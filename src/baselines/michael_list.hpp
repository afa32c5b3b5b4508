// Michael's lock-free list (PODC'02/TPDS'04) on a pluggable reclaim
// domain: nodes are retired at unlink time and physically freed during
// the run, unlike the paper variants' end-of-run arena. This is the
// price the paper's §2 says the mild improvements would tolerate;
// bench_grid measures it (`--ids hp_michael,ebr_michael`). The
// slot/epoch/retire machinery lives in src/reclaim/, shared with the
// `<variant>/hp` and `<variant>/ebr` catalog combinations.
//
// The list is draconic by construction, as Michael's must be: find()
// unlinks every marked node it meets and restarts from the head on any
// lost CAS. The policy only changes how a node is held while in use:
//
//   * HP (kHazards): three hazard pointers per handle -- slot 0 the
//     current node, slot 1 its successor, slot 2 the predecessor
//     owning the `prev` cell. Every protection is published then
//     revalidated against the shared cell before use; any mismatch
//     restarts from the head. contains() runs the same find().
//   * EBR: every operation runs inside one epoch pin, so find() needs
//     no per-step protection, and contains() is a read-only walk that
//     steps over marked nodes instead of unlinking them. Cheaper per
//     access than hazard pointers, at the cost of reclamation stalling
//     whenever a thread parks inside a critical section.
//
// Every operation takes the handle's guard(): the epoch pin under EBR,
// a no-op under HP.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/iset.hpp"
#include "src/core/list_base.hpp"
#include "src/reclaim/ebr.hpp"
#include "src/reclaim/hp.hpp"
#include "src/reclaim/maybe_owned.hpp"

namespace pragmalist::baselines {

template <template <typename> class ReclaimPolicy>
class MichaelList {
  struct Node {
    long key;
    core::MarkPtr<Node> next;
    Node* reg_next = nullptr;  // leftover-stack linkage, not an arena

    explicit Node(long k, Node* succ = nullptr) : key(k), next(succ) {}
  };

 public:
  /// Shared-domain aliases, same shape as the paper-variant engines, so
  /// shard::ShardedSet can run N Michael lists against one domain.
  using Reclaim = ReclaimPolicy<Node>;
  using ReclaimHandle = typename Reclaim::Handle;

 private:
  static constexpr bool kHazards = Reclaim::kHazards;
  // The destructor frees the still-linked chain itself, which is only
  // right when the domain owns retired nodes alone (never the arena).
  static_assert(Reclaim::kReclaims,
                "Michael's list retires at unlink: it needs a reclaiming "
                "domain");

 public:
  /// Uncounted: core::Counted keeps the op ledger over this handle.
  class Handle {
   public:
    bool add(long key) {
      [[maybe_unused]] auto pin = rh_->guard();
      return list_->do_add(*this, key);
    }
    bool remove(long key) {
      [[maybe_unused]] auto pin = rh_->guard();
      return list_->do_remove(*this, key);
    }
    bool contains(long key) {
      [[maybe_unused]] auto pin = rh_->guard();
      return list_->do_contains(*this, key);
    }
    /// The paging primitive behind both scan forms. Under HP it runs
    /// the shared re-anchoring hazard scan (slots 0-2; Michael's find
    /// uses the same cells, never concurrently on one handle), which
    /// steps over marked nodes -- safe under the anchored-validation
    /// argument even though this list's updates are draconic. Under
    /// EBR one epoch pin covers the whole page.
    long scan_raw(long from, long hi, long limit,
                  const core::KeySink& sink) {
      if constexpr (kHazards) {
        return core::scan::hazard_scan(*rh_, list_->head_, from, hi, limit,
                                       sink);
      } else {
        auto pin = rh_->guard();
        return core::scan::plain_scan(list_->head_, from, hi, limit, sink);
      }
    }

    Handle(Handle&&) = default;  // MaybeOwned re-seats its pointer
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

   private:
    friend class MichaelList;
    Handle(MichaelList* list, ReclaimHandle rh)  // owning
        : list_(list), rh_(std::move(rh)) {}
    Handle(MichaelList* list, ReclaimHandle* rh)  // borrowing
        : list_(list), rh_(rh) {}

    MichaelList* list_;
    reclaim::MaybeOwned<ReclaimHandle> rh_;
  };

  explicit MichaelList(std::shared_ptr<Reclaim> domain = nullptr)
      : domain_(domain ? std::move(domain) : std::make_shared<Reclaim>()),
        head_(new Node(std::numeric_limits<long>::min())) {
    domain_->track(head_);
  }
  MichaelList(const MichaelList&) = delete;
  MichaelList& operator=(const MichaelList&) = delete;

  ~MichaelList() {
    // All handles are gone by now; the domain frees parked retirees,
    // the still-linked chain (live or marked) is ours.
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next.load().ptr;
      delete n;
      n = next;
    }
  }

  Handle make_handle() { return Handle(this, domain_->make_handle()); }

  /// Sharded use: borrow a per-thread reclaim handle leased from this
  /// list's (shared) domain.
  Handle make_handle(ReclaimHandle& shared) { return Handle(this, &shared); }

  /// The reclamation domain; the catalog adapter reads the footprint,
  /// limbo and blast-radius stats off it.
  Reclaim& domain() const { return *domain_; }

  bool validate(std::string* err) const {
    return core::quiescent::validate_chain(head_, domain_->live_nodes() + 1,
                                           err);
  }
  std::size_t size() const { return core::quiescent::size(head_); }
  std::vector<long> snapshot() const {
    return core::quiescent::snapshot(head_);
  }

 private:
  struct Pos {
    core::MarkPtr<Node>* prev;  // cell, protected via slot 2 unless head
    Node* cur;                  // protected via slot 0
    Node* succ;                 // protected via slot 1
  };

  /// Michael's find: returns with cur == first node with key >= target
  /// (or nullptr) and *prev observed == cur; under HP the hazards
  /// cover pred/cur/succ. Unlinks marked nodes on sight and restarts
  /// on a lost CAS.
  Pos find(Handle& h, long key) {
    auto& rh = *h.rh_;
  try_again:
    core::MarkPtr<Node>* prev = &head_->next;
    if constexpr (kHazards) rh.clear(2);  // pred is the head
    Node* cur = prev->load().ptr;
    for (;;) {
      if (cur == nullptr) return {prev, nullptr, nullptr};
      if constexpr (kHazards) {
        rh.protect(0, cur);
        const auto v = prev->load();
        if (v.ptr != cur || v.marked) goto try_again;  // cur unprotected
      }
      const auto nv = cur->next.load();
      if constexpr (kHazards) {
        rh.protect(1, nv.ptr);
        const auto nv2 = cur->next.load();
        if (nv2.ptr != nv.ptr || nv2.marked != nv.marked) goto try_again;
      }
      if (nv.marked) {
        if (!prev->cas_clean(cur, nv.ptr)) goto try_again;
        rh.retire(cur);
        cur = nv.ptr;  // HP: still protected by slot 1; re-pinned at top
        continue;
      }
      if (cur->key >= key) return {prev, cur, nv.ptr};
      prev = &cur->next;
      if constexpr (kHazards) rh.protect(2, cur);  // protect the pred
      cur = nv.ptr;  // HP: protected by slot 1; slot 0 re-pinned at top
    }
  }

  bool do_add(Handle& h, long key) {
    Node* node = nullptr;
    for (;;) {
      const Pos p = find(h, key);
      if (p.cur != nullptr && p.cur->key == key) {
        delete node;  // not yet published, private
        return false;
      }
      if (node == nullptr)
        node = new Node(key, p.cur);
      else
        node->next.store(p.cur);
      if (p.prev->cas_clean(p.cur, node)) {
        domain_->track(node);
        return true;
      }
    }
  }

  bool do_remove(Handle& h, long key) {
    for (;;) {
      const Pos p = find(h, key);
      if (p.cur == nullptr || p.cur->key != key) return false;
      if (!p.cur->next.cas_mark(p.succ)) continue;  // raced; re-find
      if (p.prev->cas_clean(p.cur, p.succ))
        h.rh_->retire(p.cur);
      else
        find(h, key);  // help: the next find sweeps and retires it
      return true;
    }
  }

  bool do_contains(Handle& h, long key) {
    if constexpr (kHazards) {
      const Pos p = find(h, key);
      return p.cur != nullptr && p.cur->key == key;
    } else {
      // Pinned: a read-only walk may step over marked nodes.
      const Node* cur = head_->next.load().ptr;
      while (cur != nullptr) {
        const auto nv = cur->next.load();
        if (nv.marked) {
          cur = nv.ptr;
          continue;
        }
        if (cur->key >= key) break;
        cur = nv.ptr;
      }
      return cur != nullptr && cur->key == key;
    }
  }

  std::shared_ptr<Reclaim> domain_;
  Node* head_;
};

using HpMichaelList = MichaelList<reclaim::Hp>;
using EbrMichaelList = MichaelList<reclaim::Ebr>;

}  // namespace pragmalist::baselines
