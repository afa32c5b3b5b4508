// Lock-free skip list over the same marked-pointer machinery — the
// downstream structure the paper motivates (its flat list is the
// building block; bench_grid --ids doubly_cursor,skiplist shows where
// O(n) search loses to O(log n)). Bottom level (0) is the linearization point and holds
// every node; upper levels are a probabilistic index.
//
// Two flavors mirror the list ablation:
//   kDraconic = true  -- Herlihy-Shavit style find(): unlink marked
//     nodes at every level on sight, restart from the top on failure;
//     contains() helps too.
//   kDraconic = false -- pragmatic: traversals step over marked nodes;
//     a dead run is swung out with one CAS per level only inside
//     update searches, and contains() is CAS-free.
//
// Reclamation is the paper's arena scheme (AllocRegistry).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/core/iset.hpp"
#include "src/core/list_base.hpp"
#include "src/workload/rng.hpp"

namespace pragmalist::structures {

template <bool kDraconic>
class SkipListT {
  static constexpr int kMaxHeight = 16;

  struct Node {
    long key;
    int height;
    Node* reg_next = nullptr;
    std::array<core::MarkPtr<Node>, kMaxHeight> next;

    Node(long k, int h) : key(k), height(h) {}
  };

 public:
  /// Uncounted: core::Counted keeps the op ledger over this handle.
  class Handle {
   public:
    bool add(long key) { return list_->do_add(*this, key); }
    bool remove(long key) { return list_->do_remove(*this, key); }
    bool contains(long key) { return list_->do_contains(key); }
    long scan_raw(long from, long hi, long limit,
                  const core::KeySink& sink) {
      return list_->do_scan(from, hi, limit, sink);
    }

   private:
    friend class SkipListT;
    Handle(SkipListT* list, std::uint64_t seed)
        : list_(list), rng_(seed) {}

    SkipListT* list_;
    workload::Rng rng_;
  };

  SkipListT() : head_(new Node(std::numeric_limits<long>::min(), kMaxHeight)) {
    registry_.track(head_);
  }

  Handle make_handle() {
    const auto n =
        handle_seq_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t s = 0x9e3779b97f4a7c15ULL * (n + 1);
    return Handle(this, workload::splitmix64(s));
  }

  // --- quiescent API ------------------------------------------------

  bool validate(std::string* err) const {
    // Every level must satisfy the chain invariants; level 0 is the
    // set itself.
    for (int lvl = 0; lvl < kMaxHeight; ++lvl) {
      const Node* prev = nullptr;
      bool prev_marked = false;
      std::size_t steps = 0;
      for (const Node* n = head_->next[lvl].load_ptr(); n != nullptr;) {
        if (++steps > registry_.count() + 1) {
          if (err) *err = "skiplist cycle";
          return false;
        }
        const auto v = n->next[lvl].load();
        if (n->height <= lvl) {
          if (err) *err = "node linked above its height";
          return false;
        }
        if (prev != nullptr) {
          if (n->key < prev->key ||
              (n->key == prev->key && !prev_marked && !v.marked)) {
            if (err) *err = "skiplist order violated";
            return false;
          }
        }
        prev = n;
        prev_marked = v.marked;
        n = v.ptr;
      }
    }
    return true;
  }

  std::size_t size() const {
    std::size_t count = 0;
    for (const Node* n = head_->next[0].load_ptr(); n != nullptr;) {
      const auto v = n->next[0].load();
      if (!v.marked) ++count;
      n = v.ptr;
    }
    return count;
  }

  std::vector<long> snapshot() const {
    // The quiescent snapshot is the full-range scan walk.
    std::vector<long> keys;
    do_scan(std::numeric_limits<long>::min(),
            std::numeric_limits<long>::max(), /*limit=*/-1,
            [&](long k) { keys.push_back(k); });
    return keys;
  }

  void corrupt_order_for_test() {
    Node* a = head_->next[0].load_ptr();
    if (a == nullptr) return;
    Node* b = a->next[0].load_ptr();
    if (b == nullptr) return;
    std::swap(a->key, b->key);
  }

 private:
  struct Pos {
    std::array<Node*, kMaxHeight> preds;
    std::array<Node*, kMaxHeight> succs;
    Node* found;  // live level-0 node with the key, or nullptr
  };

  /// Per-level search establishing (pred, succ) adjacency at each
  /// level. Pragmatic flavor swings dead runs out with one CAS and, if
  /// that fails, re-walks just the current level; draconic restarts the
  /// whole find from the top.
  Pos find(long key) {
  restart:
    Pos pos;
    pos.found = nullptr;
    Node* pred = head_;
    for (int lvl = kMaxHeight - 1; lvl >= 0; --lvl) {
      for (;;) {
        Node* left = pred;
        const auto lv = left->next[lvl].load();
        if (lv.marked) {  // pred died under us: climb out
          goto restart;
        }
        Node* left_next = lv.ptr;
        Node* cur = left_next;
        while (cur != nullptr) {
          const auto cv = cur->next[lvl].load();
          if (cv.marked) {
            if constexpr (kDraconic) {
              if (!left->next[lvl].cas_clean(cur, cv.ptr)) goto restart;
              left_next = cv.ptr;
              cur = cv.ptr;
            } else {
              cur = cv.ptr;  // step over
            }
            continue;
          }
          if (cur->key >= key) break;
          left = cur;
          left_next = cv.ptr;
          cur = cv.ptr;
        }
        if (left_next != cur) {  // pragmatic: sweep the dead run now
          if (!left->next[lvl].cas_clean(left_next, cur)) continue;
        }
        pos.preds[lvl] = left;
        pos.succs[lvl] = cur;
        pred = left;
        break;
      }
    }
    Node* c = pos.succs[0];
    if (c != nullptr && c->key == key && !c->next[0].load().marked)
      pos.found = c;
    return pos;
  }

  int random_height(Handle& h) {
    // Geometric, p = 1/2, capped.
    const std::uint64_t bits = h.rng_();
    int height = 1;
    while (height < kMaxHeight && (bits >> (height - 1) & 1) != 0)
      ++height;
    return height;
  }

  bool do_add(Handle& h, long key) {
    for (;;) {
      Pos pos = find(key);
      if (pos.found != nullptr) return false;
      const int height = random_height(h);
      Node* node = new Node(key, height);
      registry_.track(node);
      for (int lvl = 0; lvl < height; ++lvl)
        node->next[lvl].store(pos.succs[lvl]);
      // Level-0 link is the linearization point.
      if (!pos.preds[0]->next[0].cas_clean(pos.succs[0], node)) {
        // Lost the race; the node was never published (arena frees it
        // at teardown). Retry from scratch.
        continue;
      }
      // Best-effort upper links; give up a level on interference once
      // the node has died. The node is published, so its own next
      // pointers may only change via CAS (a plain store could wipe a
      // concurrent deletion mark), and node->next[lvl] must be synced
      // to the *current* successor before every pred CAS -- linking
      // with a stale successor would splice live nodes out of the
      // index level.
      for (int lvl = 1; lvl < height; ++lvl) {
        for (;;) {
          const auto v = node->next[lvl].load();
          if (v.marked) return true;  // being removed
          if (v.ptr != pos.succs[lvl]) {
            if (!node->next[lvl].cas_clean(v.ptr, pos.succs[lvl]))
              return true;  // marked under us
            continue;       // reload and retry with the synced next
          }
          if (pos.preds[lvl]->next[lvl].cas_clean(pos.succs[lvl], node))
            break;
          pos = find(key);
          if (pos.found != node) return true;  // removed (maybe re-added)
        }
      }
      return true;
    }
  }

  bool do_remove(Handle&, long key) {
    const Pos pos = find(key);
    Node* node = pos.found;
    if (node == nullptr) return false;
    // Mark top-down; only the level-0 mark decides the winner.
    for (int lvl = node->height - 1; lvl >= 1; --lvl) {
      for (;;) {
        const auto v = node->next[lvl].load();
        if (v.marked) break;
        if (node->next[lvl].cas_mark(v.ptr)) break;
      }
    }
    for (;;) {
      const auto v = node->next[0].load();
      if (v.marked) return false;  // another remover won
      if (node->next[0].cas_mark(v.ptr)) break;
    }
    find(key);  // sweep the carcass off every level
    return true;
  }

  /// The scan primitive behind Handle::scan_raw: O(log n) index
  /// descent to a level-0 predecessor of `from` (read-only, stepping
  /// over marked nodes -- no CAS even in the draconic flavor), then a
  /// level-0 walk emitting live keys in [from, hi], at most `limit`
  /// (< 0 = unbounded). Arena reclamation makes the free walk safe: a
  /// node unlinked mid-scan stays allocated and its frozen next still
  /// leads onward, so keys stay strictly ascending.
  long do_scan(long from, long hi, long limit,
               const core::KeySink& sink) const {
    const Node* pred = head_;
    for (int lvl = kMaxHeight - 1; lvl >= 1; --lvl) {
      const Node* cur = pred->next[lvl].load_ptr();
      while (cur != nullptr) {
        const auto cv = cur->next[lvl].load();
        if (cv.marked) {
          cur = cv.ptr;
          continue;
        }
        if (cur->key >= from) break;
        pred = cur;
        cur = cv.ptr;
      }
    }
    long emitted = 0;
    for (const Node* n = pred->next[0].load_ptr(); n != nullptr;) {
      const auto v = n->next[0].load();
      if (!v.marked) {
        if (n->key > hi || (limit >= 0 && emitted >= limit)) break;
        if (n->key >= from) {
          sink(n->key);
          ++emitted;
        }
      }
      n = v.ptr;
    }
    return emitted;
  }

  bool do_contains(long key) {
    if constexpr (kDraconic) {
      const Pos pos = find(key);
      return pos.found != nullptr;
    } else {
      const Node* pred = head_;
      for (int lvl = kMaxHeight - 1; lvl >= 0; --lvl) {
        const Node* cur = pred->next[lvl].load_ptr();
        while (cur != nullptr) {
          const auto cv = cur->next[lvl].load();
          if (cv.marked) {
            cur = cv.ptr;
            continue;
          }
          if (cur->key >= key) break;
          pred = cur;
          cur = cv.ptr;
        }
        if (lvl == 0)
          return cur != nullptr && cur->key == key;
      }
      return false;  // unreachable
    }
  }

  Node* head_;
  core::AllocRegistry<Node> registry_;
  std::atomic<std::uint64_t> handle_seq_{0};
};

using SkipList = SkipListT<false>;
using SkipListDraconic = SkipListT<true>;

}  // namespace pragmalist::structures
