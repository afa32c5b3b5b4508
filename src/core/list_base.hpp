// Shared machinery for the marked-pointer list variants:
//
//  * MarkPtr     -- an atomic next-pointer whose low bit is the Harris
//                   deletion mark. Marking a node's *own* next pointer
//                   logically deletes the node and simultaneously
//                   poisons any in-flight CAS that expected the
//                   unmarked value, which is what makes the pragmatic
//                   variants safe without draconic traversal rules.
//  * AllocRegistry -- the paper's reclamation scheme: every node ever
//                   allocated is threaded onto a lock-free registry and
//                   freed when the list is destroyed. Nothing is freed
//                   (or reused) mid-run, so traversals may hold stale
//                   pointers and CAS never suffers ABA. The
//                   hazard-pointer and epoch baselines exist precisely
//                   to price this choice against real reclamation.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace pragmalist::core {

inline constexpr std::uintptr_t kMarkBit = 1;

// Design knobs of the paper's variants; see list_family.hpp for the
// full semantics of each.
enum class Traversal { kDraconic, kMild };
enum class Marking { kCas, kFetchOr };
enum class Cursor { kNone, kPerHandle };
enum class Backoff { kNone, kExponential };
enum class Back { kNone, kImprecise, kPrecise };

/// Bounded exponential backoff for CAS retry loops (the ablation's
/// `backoff` knob). Starts at 16 pause iterations, doubles to 1024.
class Backoffer {
 public:
  void pause() {
    for (std::uint32_t i = 0; i < (1u << shift_); ++i) cpu_relax();
    if (shift_ < 10) ++shift_;
  }

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }
  std::uint32_t shift_ = 4;
};

template <typename Node>
class MarkPtr {
 public:
  struct Value {
    Node* ptr;
    bool marked;
  };

  MarkPtr() : bits_(0) {}
  explicit MarkPtr(Node* p) : bits_(reinterpret_cast<std::uintptr_t>(p)) {}

  Value load(std::memory_order order = std::memory_order_acquire) const {
    return unpack(bits_.load(order));
  }

  Node* load_ptr(std::memory_order order = std::memory_order_acquire) const {
    return unpack(bits_.load(order)).ptr;
  }

  /// Re-read via a no-op RMW (fetch_or 0, seq_cst). Unlike a plain
  /// load, an RMW reads the *latest* value in this cell's modification
  /// order, so it cannot lag behind a concurrent mark. The hint index
  /// publish protocol depends on exactly that (hint_index.hpp): the
  /// post-publish mark re-check must not miss a mark that a purge has
  /// already acted on.
  Value load_rmw() {
    return unpack(bits_.fetch_or(0, std::memory_order_seq_cst));
  }

  void store(Node* p, std::memory_order order = std::memory_order_release) {
    bits_.store(pack(p, false), order);
  }

  /// CAS from the *unmarked* pointer `expected` to the unmarked pointer
  /// `desired`. Fails if a mark appeared: this is the only way the
  /// variants ever modify a next pointer, so a marked node's next is
  /// frozen forever -- the key structural invariant.
  bool cas_clean(Node* expected, Node* desired) {
    std::uintptr_t e = pack(expected, false);
    return bits_.compare_exchange_strong(e, pack(desired, false),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  /// CAS from the unmarked `expected` to the *marked* same pointer:
  /// the logical-deletion step of the CAS-marking variants.
  bool cas_mark(Node* expected) {
    std::uintptr_t e = pack(expected, false);
    return bits_.compare_exchange_strong(e, pack(expected, true),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  /// Unconditionally set the mark bit; returns the previous raw value.
  /// One atomic instruction replaces the CAS retry loop -- the paper's
  /// fetch-or marking variant (e). The caller owns the deletion iff the
  /// bit was previously clear.
  Value fetch_or_mark() {
    return unpack(bits_.fetch_or(kMarkBit, std::memory_order_acq_rel));
  }

 private:
  static std::uintptr_t pack(Node* p, bool marked) {
    return reinterpret_cast<std::uintptr_t>(p) | (marked ? kMarkBit : 0);
  }
  static Value unpack(std::uintptr_t bits) {
    return {reinterpret_cast<Node*>(bits & ~kMarkBit),
            (bits & kMarkBit) != 0};
  }

  std::atomic<std::uintptr_t> bits_;
};

/// Treiber push of `n` onto the intrusive stack threaded through the
/// nodes' `reg_next` field. Shared by the alloc registry and the
/// baselines' retire/leftover stacks.
template <typename Node>
void push_intrusive(std::atomic<Node*>& head_atomic, Node* n) {
  Node* head = head_atomic.load(std::memory_order_relaxed);
  do {
    n->reg_next = head;
  } while (!head_atomic.compare_exchange_weak(head, n,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
}

/// Lock-free registry of every node a list ever allocated (via the
/// node's `reg_next` field); the owning list frees the lot on
/// destruction. See file comment for why this is the paper's scheme.
template <typename Node>
class AllocRegistry {
 public:
  AllocRegistry() = default;
  AllocRegistry(const AllocRegistry&) = delete;
  AllocRegistry& operator=(const AllocRegistry&) = delete;

  ~AllocRegistry() { free_all(); }

  void track(Node* n) {
    count_.fetch_add(1, std::memory_order_relaxed);
    push_intrusive(head_, n);
  }

  std::size_t count() const { return count_.load(std::memory_order_relaxed); }

  void free_all() {
    free_all([](Node* n) { delete n; });
  }

  /// Drain with a custom deleter -- domains whose nodes live in slab
  /// slots return them to the pool instead of `delete`ing.
  template <typename Free>
  void free_all(Free&& free_node) {
    Node* n = head_.exchange(nullptr, std::memory_order_acquire);
    while (n != nullptr) {
      Node* next = n->reg_next;
      free_node(n);
      n = next;
    }
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<Node*> head_{nullptr};
  std::atomic<std::size_t> count_{0};
};

/// The anchored-validation hazard-pointer traversal shared by the list
/// families (used whenever the reclamation policy sets kHazards).
///
/// Plain hazard pointers are incompatible with traversals that step
/// over marked nodes (Michael, TPDS'04): a marked node's next pointer
/// is frozen, so re-reading it can never reveal that its successor was
/// swept out and freed. The walk instead revalidates against the *run
/// anchor*: `prev` is the last live node (slot kAnchor) and `left_next`
/// the first node of the dead run hanging off it. Any sweep that
/// detaches -- and hence retires -- any node of that run must CAS
/// `prev->next` away from `left_next` (marked nexts are frozen; the
/// anchor cell is the run's only mutable attachment point). So after
/// publishing a hazard on the next node, one re-read of `prev->next`
/// suffices: still `left_next`-and-unmarked means nothing in the run
/// was retired before the hazard became visible; anything else
/// restarts. For the address compare to be meaningful, `left_next`
/// itself must stay hazard-protected for the whole run (slot kRun):
/// an unprotected run head could be freed and its address recycled by
/// a fresh insert, making both the anchor re-read and the final sweep
/// CAS succeed against a different, live node (ABA).
namespace hazard {

// Slot roles (reclaim::Hp::kSlots >= 4):
inline constexpr int kAnchor = 0;  // last live predecessor `prev`
inline constexpr int kWalk = 1;    // the node the walk stands on
inline constexpr int kRun = 2;     // current dead run's head; reused as
                                   // the doubly variants' succ pin
inline constexpr int kCursor = 3;  // per-handle cursor, held across ops

// The persistent kCursor cell is a per-*thread* resource: under a
// sharded set many list engines borrow one reclaim handle, so the cell
// carries an owner tag (reclaim::Hp::Handle::cursor_owner) naming the
// engine whose cursor it currently protects. These three helpers are
// the whole protocol -- both list families use them verbatim, so the
// rules live once:
//   * only the owner may clear the cell (another engine's cursor may
//     be parked there);
//   * publishing stamps the caller as owner;
//   * an engine that is not the owner must treat its remembered cursor
//     node as unprotected and never dereference it.

/// True when `owner` (an engine) still holds the kCursor cell.
template <typename ReclaimHandle>
bool owns_cursor(const ReclaimHandle& rh, const void* owner) {
  return rh.cursor_owner == owner;
}

/// Clear the cell iff `owner` holds it.
template <typename ReclaimHandle>
void release_cursor(ReclaimHandle& rh, const void* owner) {
  if (rh.cursor_owner == owner) {
    rh.clear(kCursor);
    rh.cursor_owner = nullptr;
  }
}

/// Protect `n` in the cell and stamp `owner`; nullptr releases instead.
template <typename ReclaimHandle, typename Node>
void publish_cursor(ReclaimHandle& rh, const void* owner, Node* n) {
  if (n == nullptr) {
    release_cursor(rh, owner);
  } else {
    rh.protect(kCursor, n);
    rh.cursor_owner = owner;
  }
}

template <typename Node>
struct WalkPos {
  Node* prev;  // protected via kAnchor, prev->next observed == cur
               // (kMutate) or == some run reaching cur (read-only)
  Node* cur;   // protected via kWalk; first live node with key >=
               // target, or nullptr
};

/// Walk toward `key` from start_node(). kMutate: guarantee physical
/// adjacency prev->next == cur on return, sweeping the dead run with
/// one CAS if needed and invoking on_swept(prev, first, last) on
/// success (the caller retires the detached [first..last) -- purging
/// any hint-index slots first -- and refreshes back hints there; the
/// draconic inline unlink routes through the same hook with a
/// one-node run, so the caller's purge-before-retire rule covers it
/// too). Read-only (!kMutate): never CAS; cur may sit behind a dead
/// run. on_dead_start() runs when the start node died under the walk
/// (the caller drops its cursor); start_node() is then expected to
/// fall back to the head.
///
/// Bounded restart: a lost anchor (failed revalidation or sweep CAS)
/// no longer abandons the whole walk. `prev` is still kAnchor-
/// protected, so if it is still unmarked the next pass resumes from
/// it -- the validated prefix of the key space is never re-walked,
/// which is what turns an HP read's worst case from "restart from the
/// head unboundedly" into "local retry at the contention point". Only
/// a *dead* resume point decays to start_node() (cursor/hint/head).
/// Every lost anchor bumps *restarts when the caller passes a counter
/// (surfaced as OpCounters::restarts).
template <Traversal kTraversal, Backoff kBackoff, bool kMutate,
          typename Node, typename ReclaimHandle, typename StartFn,
          typename DeadStartFn, typename SweptFn>
WalkPos<Node> anchored_walk(ReclaimHandle& rh, long key, StartFn&& start_node,
                            DeadStartFn&& on_dead_start, SweptFn&& on_swept,
                            long* restarts = nullptr) {
  Backoffer bo;
  Node* resume = nullptr;  // last validated anchor, still in kAnchor
  for (;;) {
    const bool resumed = resume != nullptr;
    Node* prev;
    if (resumed) {
      prev = resume;  // kAnchor already covers it
      resume = nullptr;
    } else {
      prev = start_node();  // head, or a cursor/hint covered elsewhere
      rh.protect(kAnchor, prev);
    }
    const auto pv = prev->next.load();
    if (pv.marked) {
      if (resumed) continue;  // dead resume anchor: decay to start_node
      on_dead_start();  // cursor start died between its check and here
      continue;
    }
    Node* left_next = pv.ptr;
    Node* cur = left_next;
    bool restart = false;
    while (cur != nullptr) {
      rh.protect(kWalk, cur);
      {
        // Anchor revalidation: run still attached => cur not retired
        // before the hazard above became visible.
        const auto av = prev->next.load();
        if (av.marked || av.ptr != left_next) {
          restart = true;
          break;
        }
      }
      const auto cv = cur->next.load();
      if (cv.marked) {
        if constexpr (kTraversal == Traversal::kDraconic) {
          // Never step over a dead node: unlink it now or start over.
          // left_next == cur here, so the CAS expectation is covered
          // by the kWalk hazard. The detached one-node run goes
          // through on_swept like any other, so the caller's
          // purge-before-retire discipline holds here too.
          if (prev->next.cas_clean(cur, cv.ptr)) {
            on_swept(prev, cur, cv.ptr);
            left_next = cv.ptr;
            cur = cv.ptr;
            continue;
          }
          restart = true;
          break;
        } else {
          // Entering a run: pin its head for the run's duration (see
          // file comment -- the anchor compare and the sweep CAS are
          // ABA-unsafe otherwise). Gapless: kWalk still covers
          // cur == left_next at this point.
          if (cur == left_next) rh.protect(kRun, cur);
          cur = cv.ptr;  // pragmatic: walk through; validated at the top
          continue;
        }
      }
      if (cur->key >= key) break;
      prev = cur;
      rh.protect(kAnchor, cur);  // kWalk still covers cur
      left_next = cv.ptr;
      cur = cv.ptr;
    }
    if (!restart) {
      if (left_next == cur) return {prev, cur};
      if constexpr (!kMutate) {
        return {prev, cur};
      } else {
        // Swing the whole dead run [left_next..cur) out in one CAS.
        if (prev->next.cas_clean(left_next, cur)) {
          on_swept(prev, left_next, cur);
          return {prev, cur};
        }
      }
    }
    // Lost the anchor (revalidation or sweep CAS). prev stays kAnchor-
    // protected, so resume there next pass if it is still live.
    if (restarts != nullptr) ++*restarts;
    resume = prev;
    if constexpr (kBackoff == Backoff::kExponential) bo.pause();
  }
}

}  // namespace hazard

/// Traversal-start selection shared by the list families. Two
/// independent shortcut mechanisms can propose a start anchor for the
/// same search -- the per-handle cursor (Cursor::kPerHandle) and the
/// set-wide hint index (hint_index.hpp) -- and before this helper each
/// engine picked whichever it consulted first, so the two raced
/// instead of composing. The rule lives here, once: every candidate
/// the caller passes must already be *validated* (key < target,
/// unmarked, covered by the caller's guard -- under HP the cursor sits
/// in kCursor and the hint in kAnchor, so both stay protected through
/// the pick), and the tighter anchor -- the greatest key -- wins.
/// nullptr candidates mean "no proposal"; the head is the floor.
namespace start {

template <typename Node>
Node* tighter(Node* head, Node* cursor, Node* hint) {
  Node* best = head;
  if (cursor != nullptr && (best == head || cursor->key > best->key))
    best = cursor;
  if (hint != nullptr && (best == head || hint->key > best->key))
    best = hint;
  return best;
}

}  // namespace start

/// Ordered range scans shared by every marked-pointer list. `Node`
/// must expose `key` and a MarkPtr<Node> `next`. Three protocols, one
/// per reclamation capability (docs/ARCHITECTURE.md spells out the
/// safety arguments):
///
///   * arena  -- plain_scan, no protection: addresses are stable for
///     the list's lifetime, so the walk may dawdle freely.
///   * EBR    -- plain_scan inside ONE epoch pin covering the whole
///     scan (the caller's guard): nothing retired after the pin can be
///     freed until the scan unpins. Long scans therefore hold the
///     reclamation horizon -- the cost bench_scan prices against HP.
///   * HP     -- hazard_scan: the anchored-validation walk from
///     anchored_walk(), generalized to emit along the way. Per-step
///     publish + anchor revalidation, restart from the head on a lost
///     anchor, resuming *after* the last key already observed (the
///     restart invariant: no key is emitted twice, and each key of the
///     range is observed exactly once, at increasing positions).
///
/// All three skip marked nodes and never CAS: a scan is read-only even
/// on the draconic variants.
namespace scan {

/// Emit live keys in [from, hi] ascending, stopping after `limit`
/// emissions (limit < 0 = unbounded). Returns the number emitted.
/// Safe whenever node addresses stay valid for the walk's duration:
/// under the arena always, under EBR inside the caller's epoch pin,
/// and quiescently everywhere (snapshot() reuses it).
template <typename Node, typename Sink>
long plain_scan(const Node* head, long from, long hi, long limit,
                Sink&& sink) {
  long emitted = 0;
  for (const Node* n = head->next.load_ptr(); n != nullptr;) {
    const auto v = n->next.load();
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

/// The hazard-pointer scan protocol. Walks with the anchored-validation
/// slot discipline of hazard::anchored_walk (kAnchor / kWalk / kRun;
/// the persistent kCursor cell is never touched, so a scan cannot
/// disturb the owning engine's cursor). On a failed anchor
/// revalidation the walk resumes from the last validated anchor while
/// that anchor is still live (it stays kAnchor-protected across the
/// restart) and only decays to start_node() -- a validated hint, or
/// the head -- when the anchor died; either way emission resumes past
/// `next_from`, the successor of the last emitted key, so re-walked
/// prefix keys (already observed in an earlier pass) are never
/// emitted twice and observation instants still increase along the
/// key space. start_node() must return either the head or a node
/// validated unmarked with key < the first position still wanted,
/// already covered by kAnchor. Each lost anchor bumps *restarts.
template <typename Node, typename ReclaimHandle, typename Sink,
          typename StartFn>
long hazard_scan(ReclaimHandle& rh, Node* head, long from, long hi,
                 long limit, Sink&& sink, StartFn&& start_node,
                 long* restarts = nullptr) {
  long emitted = 0;
  long next_from = from;  // first key position not yet observed
  Node* resume = nullptr;  // last validated anchor, still in kAnchor
  bool first_pass = true;
  for (;;) {
    bool restart = false;
    Node* prev;
    if (resume != nullptr && !resume->next.load().marked) {
      prev = resume;  // kAnchor already covers it
    } else if (first_pass) {
      prev = start_node();  // validated hint (kAnchor-covered) or head
      rh.protect(hazard::kAnchor, prev);
      // A hint start may die between its validation and here; the
      // in-loop anchor revalidation would catch it, but a dead start
      // should decay straight to the head, not spin.
      if (prev != head && prev->next.load().marked) {
        prev = head;
        rh.protect(hazard::kAnchor, prev);
      }
    } else {
      prev = head;  // the head sentinel is never marked
      rh.protect(hazard::kAnchor, prev);
    }
    first_pass = false;
    resume = nullptr;
    Node* left_next = prev->next.load().ptr;
    Node* cur = left_next;
    while (cur != nullptr) {
      rh.protect(hazard::kWalk, cur);
      {
        // Anchor revalidation: run still attached => cur not retired
        // before the hazard above became visible.
        const auto av = prev->next.load();
        if (av.marked || av.ptr != left_next) {
          restart = true;
          break;
        }
      }
      const auto cv = cur->next.load();
      if (cv.marked) {
        // Entering a dead run: pin its head for the run's duration
        // (same ABA argument as anchored_walk).
        if (cur == left_next) rh.protect(hazard::kRun, cur);
        cur = cv.ptr;
        continue;
      }
      if (cur->key > hi || (limit >= 0 && emitted >= limit)) return emitted;
      if (cur->key >= next_from) {
        sink(cur->key);
        ++emitted;
        if (cur->key == hi) return emitted;  // also dodges +1 overflow
        next_from = cur->key + 1;
      }
      prev = cur;
      rh.protect(hazard::kAnchor, cur);  // kWalk still covers cur
      left_next = cv.ptr;
      cur = cv.ptr;
    }
    if (!restart) return emitted;  // clean end of chain
    // Lost the anchor: resume from it while it lives (it stays in
    // kAnchor), decay to the head once it dies.
    if (restarts != nullptr) ++*restarts;
    resume = prev;
  }
}

/// Convenience overload: head start, no restart counter (quiescent
/// helpers and callers without a hint index).
template <typename Node, typename ReclaimHandle, typename Sink>
long hazard_scan(ReclaimHandle& rh, Node* head, long from, long hi,
                 long limit, Sink&& sink) {
  return hazard_scan(rh, head, from, hi, limit,
                     static_cast<Sink&&>(sink), [&] { return head; },
                     nullptr);
}

}  // namespace scan

/// Quiescent walkers shared by the list variants. `Node` must expose
/// `key` and a MarkPtr<Node> `next`.
namespace quiescent {

template <typename Node>
std::vector<long> snapshot(const Node* head) {
  // The full-range scan IS the quiescent snapshot walk; keep one
  // traversal, not two.
  std::vector<long> keys;
  scan::plain_scan(head, std::numeric_limits<long>::min(),
                   std::numeric_limits<long>::max(), /*limit=*/-1,
                   [&](long k) { keys.push_back(k); });
  return keys;
}

template <typename Node>
std::size_t size(const Node* head) {
  std::size_t count = 0;
  for (const Node* n = head->next.load_ptr(); n != nullptr;) {
    const auto v = n->next.load();
    if (!v.marked) ++count;
    n = v.ptr;
  }
  return count;
}

/// Physical-chain invariants every marked-pointer variant must satisfy
/// at quiescence:
///   1. keys never decrease along the chain;
///   2. of two adjacent equal keys at least one is marked (a dead
///      node can linger next to its live replacement, on either side);
///   3. no cycle (bounded by the number of tracked allocations).
template <typename Node>
bool validate_chain(const Node* head, std::size_t alloc_bound,
                    std::string* err) {
  const Node* prev = nullptr;
  std::size_t steps = 0;
  bool prev_marked = false;
  for (const Node* n = head->next.load_ptr(); n != nullptr;) {
    if (++steps > alloc_bound) {
      if (err) *err = "cycle: chain longer than total allocations";
      return false;
    }
    const auto v = n->next.load();
    if (prev != nullptr) {
      if (n->key < prev->key) {
        if (err) {
          std::ostringstream os;
          os << "order violated: " << prev->key << " before " << n->key;
          *err = os.str();
        }
        return false;
      }
      if (n->key == prev->key && !prev_marked && !v.marked) {
        if (err) {
          std::ostringstream os;
          os << "duplicate live key " << n->key;
          *err = os.str();
        }
        return false;
      }
    }
    prev = n;
    prev_marked = v.marked;
    n = v.ptr;
  }
  return true;
}

}  // namespace quiescent
}  // namespace pragmalist::core
