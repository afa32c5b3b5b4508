// The marked-pointer list engine behind every paper variant: one
// template over the design knobs the ablation bench isolates plus a
// pluggable memory-reclamation policy.
//
//   Traversal::kDraconic  -- Michael-style: a traversal may never pass a
//     marked node; it must unlink it first and restart from the head
//     whenever the unlink CAS fails. Readers pay for writers.
//   Traversal::kMild      -- the paper's pragmatic rule: marked nodes
//     are simply traversed; the whole dead run is swung out with one
//     CAS right before the position is used, and contains() never
//     performs a CAS at all.
//   Marking::kCas / kFetchOr -- logical deletion via CAS-retry on the
//     next pointer vs a single fetch_or of the mark bit (variant e).
//   Cursor::kPerHandle    -- each handle remembers the last live node
//     it stood on and starts the next search there when the target key
//     is larger.
//   Backoff::kExponential -- exponential backoff on retry loops.
//   Back::kImprecise / kPrecise -- the doubly-linked variants (c, f):
//     the mild list plus an unsynchronized back pointer per node. The
//     back pointer is a *hint*, never part of the correctness argument
//     for membership: it always points to some node with a strictly
//     smaller key (initially the insert predecessor), so following back
//     pointers from a dead node reaches a live node with key < target
//     and the search resumes there instead of at the head. That turns a
//     failed cleanup CAS -- and a handle's dead cursor -- into a short
//     local walk. kPrecise refreshes the survivor's back pointer after
//     every successful unlink/insert so hints stay one hop tight;
//     kImprecise (ablation id `doubly_cursor_noprec`) leaves the
//     insert-time hint in place and walks farther on recovery. The
//     paper has no draconic doubly list, so Back implies kMild.
//
//   ReclaimPolicy (src/reclaim/) -- reclaim::Arena is the paper's
//     scheme: nothing is freed mid-run, stale pointers stay valid,
//     cursors are free. reclaim::Ebr wraps every operation in an epoch
//     pin; traversal is unchanged (the classic result that Harris-style
//     lists are safe under deferred reclamation) but cursors are
//     disabled, because a node pointer held across an unpinned gap may
//     be freed. reclaim::Hp runs the *anchored-validation* traversal
//     below; cursors survive via a dedicated hazard slot.
//
// Hazard traversal is the anchored-validation walk shared via
// core::hazard::anchored_walk (see list_base.hpp for the safety
// argument). The pragmatic variants keep their no-CAS contains()
// under HP -- they pay publish+revalidate per step instead.
//
// Back pointers are an *arena artifact*: one is never cleaned when its
// target dies, so under a reclaiming policy it may name long-freed
// memory (the paper itself leans on the end-of-run arena here). With
// reclaim::Ebr or reclaim::Hp the engine therefore never dereferences
// back pointers -- recover() degrades to a head restart -- and the
// doubly variants behave like the singly pragmatic list that still
// *maintains* the hints. Under HP the successor is pinned around an
// unlink (in the between-searches-idle kRun slot) so the precise-back
// refresh can still write through it safely.
//
// Instantiations (paper letters) are named in variants.hpp: a)
// DraconicList, b) SinglyList, c) DoublyList, d) SinglyCursorList, e)
// SinglyFetchOrList, f) DoublyCursorList, plus the ablation-only
// SinglyCursorBackoffList and DoublyCursorNoPrecList, each under every
// reclaimer.
#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/hint_index.hpp"
#include "src/core/iset.hpp"
#include "src/core/list_base.hpp"
#include "src/reclaim/arena.hpp"
#include "src/reclaim/maybe_owned.hpp"

namespace pragmalist::core {

/// The node's back-pointer field, present only in the doubly variants:
/// an empty base otherwise, so singly nodes keep their size.
template <typename Node, bool kOn>
struct BackLink {
  explicit BackLink(Node*) {}
};
template <typename Node>
struct BackLink<Node, true> {
  explicit BackLink(Node* pred) : back(pred) {}
  std::atomic<Node*> back;
};

template <Traversal kTraversal, Marking kMarking, Cursor kCursor,
          Backoff kBackoff, Back kBack,
          template <typename> class ReclaimPolicy = reclaim::Arena>
class ListFamily {
  static_assert(kBack == Back::kNone || kTraversal == Traversal::kMild,
                "the paper has no draconic doubly list");

  static constexpr bool kBackOn = kBack != Back::kNone;

  struct Node : BackLink<Node, kBackOn> {
    long key;
    MarkPtr<Node> next;
    Node* reg_next = nullptr;

    explicit Node(long k, Node* succ = nullptr, Node* pred = nullptr)
        : BackLink<Node, kBackOn>(pred), key(k), next(succ) {}
  };
  // 24 B singly / 32 B doubly: the merge must not grow singly nodes
  // (footprint and cache density of every singly cell depend on it).
  static_assert(sizeof(Node) == (kBackOn ? 4 : 3) * sizeof(void*),
                "unexpected list node layout");

 public:
  /// The reclamation *domain* this engine runs against. Stand-alone
  /// lists make their own; a sharded set makes one and hands it to
  /// every shard, so N shards cost one epoch clock / slot table.
  using Reclaim = ReclaimPolicy<Node>;
  using ReclaimHandle = typename Reclaim::Handle;

  /// Every node is acquired through the domain's pool, so the engine
  /// is eligible for slab mode (the catalog / sharded adapters gate
  /// alloc::Mode::kSlab on this trait).
  static constexpr bool kPoolAllocates = true;

  /// Progress traits, asserted across the grid in variants.hpp (see
  /// the matrix in iset.hpp). The mild variants answer contains()
  /// without ever issuing a CAS; on top of that, the arena/EBR walk is
  /// one forward pass -- no restart path exists in do_contains's plain
  /// branch at all. Draconic readers help unlink (CAS + restart on a
  /// lost CAS) by design; HP readers are CAS-free but bounded-restart
  /// (anchored_walk resumes from the last validated anchor).
  static constexpr bool kContainsCasFree = kTraversal == Traversal::kMild;
  static constexpr bool kContainsRestartFree =
      kContainsCasFree && !ReclaimPolicy<Node>::kHazards;

 private:
  static constexpr bool kHazards = Reclaim::kHazards;
  static constexpr bool kStable = Reclaim::kStableAddresses;
  // Cursors hold a node pointer across operations, which needs
  // addresses that stay dereferenceable between ops: stable (arena)
  // addresses, or a hazard slot pinning the cursor node. EBR offers
  // neither, so the cursor knob degrades to start-from-head there.
  static constexpr bool kCursorOn =
      kCursor == Cursor::kPerHandle && (kStable || kHazards);

 public:
  class Handle {
   public:
    bool add(long key) {
      ++ctr_.add_calls;
      const bool ok = list_->do_add(*this, key);
      ctr_.adds += ok;
      return ok;
    }
    bool remove(long key) {
      ++ctr_.rem_calls;
      const bool ok = list_->do_remove(*this, key);
      ctr_.rems += ok;
      return ok;
    }
    bool contains(long key) {
      ++ctr_.con_calls;
      const bool ok = list_->do_contains(*this, key);
      ctr_.cons += ok;
      return ok;
    }
    long range_scan(long lo, long hi, const KeySink& sink) {
      return counted_range_scan(*this, ctr_, lo, hi, sink);
    }
    std::vector<long> ascend(long from, std::size_t limit) {
      return counted_ascend(*this, ctr_, from, limit);
    }
    /// Uncounted paging primitive: the sharded k-way merge drives this
    /// per shard and counts once per logical scan at the set level.
    long scan_raw(long from, long hi, long limit, const KeySink& sink) {
      return list_->do_scan(*this, from, hi, limit, sink);
    }
    const OpCounters& counters() const { return ctr_; }

    /// Fault injection (see faults.hpp): op-level kinds run a
    /// deliberately botched remove of `key`; lease-level kinds crash
    /// the reclaim handle itself. Only destruction may follow.
    void abandon(faults::FaultKind k, long key) {
      list_->do_abandon(*this, k, key);
    }

    Handle(Handle&&) = default;  // MaybeOwned re-seats its pointer
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

   private:
    friend class ListFamily;
    Handle(ListFamily* list, ReclaimHandle rh)  // owning
        : list_(list), rh_(std::move(rh)) {}
    Handle(ListFamily* list, ReclaimHandle* rh)  // borrowing
        : list_(list), rh_(rh) {}

    ListFamily* list_;
    // Stand-alone handles own their reclaim handle; shard handles
    // borrow the one their worker leased for the whole sharded set.
    reclaim::MaybeOwned<ReclaimHandle> rh_;
    OpCounters ctr_;
    Node* cursor_ = nullptr;
    unsigned hint_tick_ = 0;  // throttles hint publishes (1 in 8 ops)
  };

  explicit ListFamily(std::shared_ptr<Reclaim> domain = nullptr,
                      bool hints = true)
      : domain_(domain ? std::move(domain) : std::make_shared<Reclaim>()),
        head_(domain_->construct(kSentinelKey)),
        hints_(hints) {
    domain_->track(head_);
  }
  /// Stand-alone list with an explicit allocation mode (slab twins).
  explicit ListFamily(alloc::Mode mode, bool hints = true)
      : ListFamily(std::make_shared<Reclaim>(mode), hints) {}
  ListFamily(const ListFamily&) = delete;
  ListFamily& operator=(const ListFamily&) = delete;

  ~ListFamily() {
    if constexpr (Reclaim::kReclaims) {
      // The arena owns every node it tracked; a reclaiming policy only
      // owns the retired ones, so the still-linked chain (live or
      // marked) is ours to free. Handles are gone by now.
      Node* n = head_;
      while (n != nullptr) {
        Node* next = n->next.load().ptr;
        domain_->destroy(n);
        n = next;
      }
    }
  }

  /// Stand-alone use: lease a fresh per-thread handle from the domain.
  Handle make_handle() { return Handle(this, domain_->make_handle()); }

  /// Sharded use: borrow a per-thread reclaim handle the caller leased
  /// from this engine's (shared) domain. `shared` must outlive the
  /// returned handle.
  Handle make_handle(ReclaimHandle& shared) { return Handle(this, &shared); }

  // --- quiescent API ------------------------------------------------

  bool validate(std::string* err) const {
    if (!quiescent::validate_chain(head_, domain_->live_nodes() + 1, err))
      return false;
    if constexpr (kBackOn && kStable) {
      // Back-pointer sanity: every linked node's hint has a strictly
      // smaller key (or is the head sentinel). Only checkable under the
      // arena -- with mid-run reclamation the hints may dangle and are
      // never dereferenced, by the engine or by us.
      for (const Node* n = head_->next.load_ptr(); n != nullptr;
           n = n->next.load().ptr) {
        const Node* b = n->back.load(std::memory_order_relaxed);
        if (b == nullptr) {
          if (err) *err = "node with null back pointer";
          return false;
        }
        if (b != head_ && b->key >= n->key) {
          if (err) *err = "back pointer does not decrease the key";
          return false;
        }
      }
    }
    return true;
  }
  std::size_t size() const { return quiescent::size(head_); }
  std::vector<long> snapshot() const { return quiescent::snapshot(head_); }

  /// The reclamation domain. The catalog adapter reads the footprint
  /// (live_nodes), limbo, reap_crashed() and blast-radius stats off it;
  /// they count the whole domain -- all shards, when it is shared --
  /// which is exactly what the footprint bounds want.
  Reclaim& domain() const { return *domain_; }

  /// Test-only: break the order invariant by swapping the keys of the
  /// first two physically linked nodes (requires >= 2 nodes).
  void corrupt_order_for_test() {
    Node* a = head_->next.load_ptr();
    if (a == nullptr) return;
    Node* b = a->next.load_ptr();
    if (b == nullptr) return;
    std::swap(a->key, b->key);
  }

 private:
  friend class Handle;

  static constexpr long kSentinelKey = std::numeric_limits<long>::min();

  struct Pos {
    Node* prev;  // live at observation, prev->next observed == cur
    Node* cur;   // first live node with key >= target, or nullptr
  };

  /// Doubly variants: walk back pointers from `n` until a live node
  /// (keys strictly decrease along the chain, so this terminates at the
  /// head). Under a reclaiming policy the hints may dangle, so a dead
  /// start falls back to the head instead.
  Node* recover(Node* n) const {
    if constexpr (kStable) {
      while (n != head_ && n->next.load().marked)
        n = n->back.load(std::memory_order_acquire);
      return n;
    } else {
      return (n != head_ && n->next.load().marked) ? head_ : n;
    }
  }

  /// Precise-back refresh: a successful CAS just made `pred` the
  /// predecessor of `n`, so point n's hint there. The caller keeps `n`
  /// covered (arena: stable; EBR: the op's pin; HP: a hazard slot), so
  /// the write cannot hit freed memory even if `n` was concurrently
  /// retired.
  static void refresh_back(Node* n, Node* pred) {
    if constexpr (kBack == Back::kPrecise) {
      if (n != nullptr) n->back.store(pred, std::memory_order_release);
    }
  }

  /// Forget the handle's cursor hint, releasing the persistent hazard
  /// cell only if this engine still owns it (core::hazard's
  /// owner-tagged cursor protocol; under a sharded set the cell may
  /// meanwhile guard another shard's cursor).
  void drop_cursor(Handle& h) {
    h.cursor_ = nullptr;
    if constexpr (kHazards) hazard::release_cursor(*h.rh_, this);
  }

  /// Validated hint-index candidate for a traversal toward `key`, or
  /// nullptr. Arena/EBR flavor: key/mark check only (arena addresses
  /// are stable; under EBR the caller's pin plus the purge/advance
  /// ordering keep a slot-visible node allocated -- see
  /// hint_index.hpp). HP flavor: kAnchor-protect the candidate, then
  /// re-read the slot seq_cst -- still naming it means the protection
  /// is ordered before any purge, hence before the retire that could
  /// free it -- then the same key/mark check. Either way the candidate
  /// stays covered through the caller's start-node pick. Back pointers
  /// are irrelevant here: a hint is validated forward like any anchor.
  Node* hint_start(Handle& h, long key) {
    if constexpr (kHazards) {
      return hints_.best(key, [&](Node* n, int slot) {
        h.rh_->protect(hazard::kAnchor, n);
        if (hints_.slot_node(slot) != n) return false;
        return n->key < key && !n->next.load().marked;
      });
    } else {
      return hints_.best(key, [&](Node* n, int) {
        return n->key < key && !n->next.load().marked;
      });
    }
  }

  /// Advertise `n` in the hint index, 1 op in 8 (the slots go stale in
  /// well under 8 ops' time only under adversarial churn, and the
  /// publish is two seq_cst accesses -- too dear for every contains).
  /// Caller contract (hint_index.hpp): n covered by the caller's guard
  /// (HP: a hazard slot) and observed unmarked during this op.
  void maybe_publish(Handle& h, Node* n) {
    if (!hints_.enabled()) return;
    if (n == nullptr || n == head_) return;
    if ((++h.hint_tick_ & 7u) != 0) return;
    hints_.publish(n->key, n);
  }

  Node* start_node(Handle& h, long key) {
    Node* c = nullptr;
    if constexpr (kCursorOn) {
      if constexpr (kHazards) {
        // Another shard took the cell since our last op: our node is
        // unprotected and must not be dereferenced.
        if (!hazard::owns_cursor(*h.rh_, this)) h.cursor_ = nullptr;
      }
      c = h.cursor_;
      if constexpr (kBackOn) {
        if (c != nullptr && c->key < key) {
          c = recover(c);  // dead cursor: hop back instead of head restart
          if (c == head_) {
            c = nullptr;  // keep the cursor; the head floor wins below
          } else if (c->key >= key) {
            drop_cursor(h);
            c = nullptr;
          }
        } else if (c != nullptr) {
          drop_cursor(h);
          c = nullptr;
        }
      } else if (c != nullptr && !(c->key < key && !c->next.load().marked)) {
        // Unmarked implies still physically linked (nodes are only ever
        // unlinked after being marked), so the suffix from a validated
        // cursor is a valid place to begin. Under HP the cursor slot
        // keeps it allocated.
        drop_cursor(h);
        c = nullptr;
      }
    }
    Node* g = hint_start(h, key);
    Node* s = start::tighter(head_, c, g);
    if (s != head_ && s == g) ++h.ctr_.hint_hits;
    return s;
  }

  /// Remember `n` as the handle's next search hint. Under hazards the
  /// caller must still hold `n` in another slot (or pass the head/
  /// nullptr): publishing into the cursor slot while the old slot is
  /// live is what makes the protection gapless.
  void update_cursor(Handle& h, Node* n) {
    if constexpr (kCursorOn) {
      if (n == head_) n = nullptr;
      if constexpr (kHazards) hazard::publish_cursor(*h.rh_, this, n);
      h.cursor_ = n;
    }
  }

  /// Retire every node of the detached run [first, last): after the
  /// sweep CAS succeeded the frozen chain is reachable only by threads
  /// that entered it earlier, and only the detacher may retire it.
  void retire_run(Handle& h, Node* first, Node* last) {
    if constexpr (Reclaim::kReclaims) {
      Node* n = first;
      while (n != last) {
        Node* next = n->next.load().ptr;  // read before retire: a scan
        hints_.purge(n);  // no slot may name n once retire can free it
        h.rh_->retire(n);                  // may free n immediately
        n = next;
      }
    }
  }

  Pos search(Handle& h, long key) {
    if constexpr (kHazards)
      return search_hazard(h, key);
    else
      return search_plain(h, key);
  }

  /// Locate `key` and guarantee physical adjacency prev->next == cur at
  /// some observed instant (required before an insert or unlink CAS).
  /// Arena/EBR flavor: no per-step protection (arena: addresses are
  /// stable; EBR: the caller's epoch pin covers the whole operation).
  Pos search_plain(Handle& h, long key) {
    Backoffer bo;
    Node* start = start_node(h, key);
    for (;;) {
      if constexpr (kBackOn) start = recover(start);
      Node* prev = start;
      const auto pv = prev->next.load();
      if (pv.marked) {  // start died between its check and here
        if constexpr (!kBackOn) start = head_;  // doubly: recover() hops
        continue;
      }
      Node* left_next = pv.ptr;  // the value we will CAS against at prev
      Node* cur = left_next;
      bool restart = false;
      while (cur != nullptr) {
        const auto cv = cur->next.load();
        if (cv.marked) {
          if constexpr (kTraversal == Traversal::kDraconic) {
            // Never step over a dead node: unlink it now or start over.
            if (prev->next.cas_clean(cur, cv.ptr)) {
              if constexpr (Reclaim::kReclaims) {
                hints_.purge(cur);
                h.rh_->retire(cur);
              }
              left_next = cv.ptr;
              cur = cv.ptr;
              continue;
            }
            restart = true;
            break;
          } else {
            cur = cv.ptr;  // pragmatic: just walk through it
            continue;
          }
        }
        if (cur->key >= key) break;
        prev = cur;
        left_next = cv.ptr;
        cur = cv.ptr;
      }
      if (!restart) {
        if (left_next == cur) return {prev, cur};
        // Swing the whole dead run [left_next..cur) out in one CAS.
        if (prev->next.cas_clean(left_next, cur)) {
          refresh_back(cur, prev);
          retire_run(h, left_next, cur);
          return {prev, cur};
        }
        restart = true;
      }
      // Lost the position (helping CAS or sweep CAS). The mild
      // variants resume from prev -- dereferenceable here by
      // construction (arena: stable addresses; EBR: the op's pin) -- so
      // the validated prefix is never re-walked: the doubly variants
      // let recover() hop back if prev itself died, the singly ones
      // fall back to start_node(). Draconic keeps its from-the-head
      // discipline.
      ++h.ctr_.restarts;
      if constexpr (kBackoff == Backoff::kExponential) bo.pause();
      if constexpr (kTraversal == Traversal::kDraconic)
        start = head_;
      else if constexpr (kBackOn)
        start = prev;
      else
        start = !prev->next.load().marked ? prev : start_node(h, key);
    }
  }

  /// Hazard-pointer flavor of search: the shared anchored-validation
  /// walk. Returns with prev held in the anchor slot and cur in the
  /// walk slot; the caller may dereference both until its next search.
  /// No back pointer is ever followed; a restart goes to the cursor,
  /// hint or head.
  Pos search_hazard(Handle& h, long key) {
    const auto w = hazard::anchored_walk<kTraversal, kBackoff, true, Node>(
        *h.rh_, key, [&] { return start_node(h, key); },
        [&] { drop_cursor(h); },
        [&](Node* prev, Node* first, Node* last) {
          refresh_back(last, prev);  // last is walk-slot protected
          retire_run(h, first, last);
        },
        &h.ctr_.restarts);
    return {w.prev, w.cur};
  }

  bool do_add(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    Backoffer bo;
    Node* node = nullptr;
    for (;;) {
      const Pos p = search(h, key);
      if (p.cur != nullptr && p.cur->key == key) {
        h.rh_->dispose(node);  // never published, still private
        update_cursor(h, p.prev);
        return false;  // present (the node was live when observed)
      }
      if (node == nullptr) {
        node = h.rh_->construct(key, p.cur, p.prev);
      } else {
        node->next.store(p.cur);
        if constexpr (kBackOn)
          node->back.store(p.prev, std::memory_order_relaxed);
      }
      if (p.prev->next.cas_clean(p.cur, node)) {
        domain_->track(node);
        refresh_back(p.cur, node);
        if constexpr (kHazards) {
          update_cursor(h, p.prev);  // p.prev is anchor-protected; the
          maybe_publish(h, p.prev);  // fresh node is not in any slot
        } else {
          update_cursor(h, node);
          maybe_publish(h, node);
        }
        return true;
      }
      if constexpr (kBackoff == Backoff::kExponential) bo.pause();
    }
  }

  struct Marked {
    bool won;    // this call set the mark (the remove is ours)
    Node* succ;  // n's frozen successor when won
  };

  /// Logical deletion of `n`: one fetch_or (variant e) or a CAS-retry
  /// on its next pointer.
  static Marked mark(Node* n) {
    if constexpr (kMarking == Marking::kFetchOr) {
      const auto old = n->next.fetch_or_mark();
      return {!old.marked, old.ptr};
    } else {
      for (;;) {
        const auto cv = n->next.load();
        if (cv.marked) return {false, nullptr};  // another remover won
        if (n->next.cas_mark(cv.ptr)) return {true, cv.ptr};
      }
    }
  }

  /// Doubly variants under HP: pin succ before the unlink (the kRun
  /// slot is free between searches). If the unlink CAS then succeeds,
  /// succ was still attached when the hazard was already visible, so
  /// the precise-back refresh may dereference it.
  static void pin_succ(Handle& h, Node* succ) {
    if constexpr (kHazards && kBackOn) {
      if (succ != nullptr) h.rh_->protect(hazard::kRun, succ);
    }
  }

  bool do_remove(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    if (p.cur == nullptr || p.cur->key != key) {
      update_cursor(h, p.prev);
      return false;
    }
    const Marked m = mark(p.cur);
    update_cursor(h, p.prev);
    maybe_publish(h, p.prev);
    if (!m.won) return false;
    // Physical unlink: one attempt in the mild variants (the next
    // search will sweep it), mandatory help in the draconic one. A
    // successful CAS detached exactly p.cur, so we own its retirement.
    pin_succ(h, m.succ);
    if (p.prev->next.cas_clean(p.cur, m.succ)) {
      refresh_back(m.succ, p.prev);
      if constexpr (Reclaim::kReclaims) {
        hints_.purge(p.cur);
        h.rh_->retire(p.cur);
      }
    } else {
      if constexpr (kTraversal == Traversal::kDraconic) search(h, key);
    }
    return true;
  }

  /// Fault dispatch (Handle::abandon). The op-level kinds count as a
  /// remove attempt in the handle's ledger -- their logical removal
  /// really happens, so the population conservation check
  /// (prefill + adds - rems == size) keeps balancing across crashes.
  /// They deliberately leave the reclaim lease healthy: each fault
  /// kind isolates one recovery path (combine with a lease-level
  /// abandon on another worker to test both at once).
  void do_abandon(Handle& h, faults::FaultKind k, long key) {
    if (faults::is_op_fault(k)) {
      ++h.ctr_.rem_calls;
      h.ctr_.rems += k == faults::FaultKind::kMidOpAbandon
                         ? do_remove_abandoned(h, key)
                         : do_remove_leaky(h, key);
    } else {
      h.rh_->abandon(k);
    }
  }

  /// kMidOpAbandon: win the remove's marking CAS, then vanish -- no
  /// unlink attempt, no draconic helping, no back-pointer refresh, no
  /// cursor update. The node stays marked-but-linked until a
  /// survivor's traversal sweeps it (and their recover() hops treat its
  /// stale hint like any other imprecise one): exactly the
  /// cooperative-helping obligation a crashed peer leaves behind.
  /// Returns whether the logical remove took effect.
  bool do_remove_abandoned(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    if (p.cur == nullptr || p.cur->key != key) return false;
    return mark(p.cur).won;
  }

  /// kRetireSkipped: a complete remove -- mark and unlink -- that dies
  /// between the unlink CAS and the retire; the successor's back hint
  /// is also left stale (hints are correctness-neutral; a crashed peer
  /// maintains nothing). The detached node goes to the domain's leak
  /// ledger instead of limbo; under the arena this degrades to a
  /// normal remove (retire was a no-op anyway). A failed unlink CAS
  /// leaves the node linked, degrading to kMidOpAbandon: a survivor
  /// sweeps and retires it normally, and nothing leaks.
  bool do_remove_leaky(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    if (p.cur == nullptr || p.cur->key != key) return false;
    const Marked m = mark(p.cur);
    if (!m.won) return false;
    pin_succ(h, m.succ);
    if (p.prev->next.cas_clean(p.cur, m.succ)) {
      if constexpr (Reclaim::kReclaims) {
        hints_.purge(p.cur);  // a leaked node is freed at teardown, but
        h.rh_->leak(p.cur);   // it leaves the live chain now
      }
    }
    return true;
  }

  bool do_contains(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    if constexpr (kTraversal == Traversal::kDraconic) {
      // Draconic readers help clean up (and pay the restarts for it).
      const Pos p = search(h, key);
      return p.cur != nullptr && p.cur->key == key;
    } else if constexpr (kHazards) {
      return contains_hazard(h, key);
    } else {
      // The fast lane (iset.hpp matrix): one forward pass from the
      // tighter of cursor/hint/head, no CAS, no restart path at all.
      Node* prev = start_node(h, key);
      Node* cur = prev->next.load().ptr;
      while (cur != nullptr) {
        const auto cv = cur->next.load();
        if (cv.marked) {
          cur = cv.ptr;
          continue;
        }
        if (cur->key >= key) break;
        prev = cur;
        cur = cv.ptr;
      }
      update_cursor(h, prev);
      maybe_publish(h, prev);
      return cur != nullptr && cur->key == key;
    }
  }

  /// The scan primitive behind range_scan()/ascend(): emit live keys
  /// in [from, hi], at most `limit` (< 0 = unbounded). Protocol per
  /// policy: the arena walks freely, EBR pins once for the whole scan
  /// (the guard below), HP runs the re-anchoring hazard scan. Scans
  /// walk forward only, are read-only on every variant -- even the
  /// draconic one -- and never touch the handle's cursor.
  long do_scan(Handle& h, long from, long hi, long limit,
               const KeySink& sink) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    if constexpr (kHazards) {
      return scan::hazard_scan(
          *h.rh_, head_, from, hi, limit, sink,
          [&] {
            Node* g = hint_start(h, from);
            if (g == nullptr) return head_;
            ++h.ctr_.hint_hits;
            return g;  // validated key < from, kAnchor-covered
          },
          &h.ctr_.restarts);
    } else {
      // A validated hint with key < from is a correct pseudo-head for
      // the plain scan: every key it skips is below the range.
      Node* g = hint_start(h, from);
      if (g != nullptr) ++h.ctr_.hint_hits;
      return scan::plain_scan(g != nullptr ? g : head_, from, hi, limit,
                              sink);
    }
  }

  /// The mild contains under HP: still CAS-free (read-only walk), but
  /// every step pays the publish + anchor-revalidation.
  bool contains_hazard(Handle& h, long key) {
    const auto w =
        hazard::anchored_walk<Traversal::kMild, kBackoff, false, Node>(
            *h.rh_, key, [&] { return start_node(h, key); },
            [&] { drop_cursor(h); }, [](Node*, Node*, Node*) {},
            &h.ctr_.restarts);
    update_cursor(h, w.prev);
    maybe_publish(h, w.prev);  // kAnchor still covers w.prev
    return w.cur != nullptr && w.cur->key == key;
  }

  std::shared_ptr<Reclaim> domain_;
  Node* head_;
  HintIndex<Node> hints_;
};

}  // namespace pragmalist::core
