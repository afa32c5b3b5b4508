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
//     be freed. reclaim::Hp adds the *anchored-validation* steps to
//     the same walk; cursors survive via a dedicated hazard slot.
//
// Every search and contains, under every reclaimer, is one call to
// core::walk (list_base.hpp, which also holds the hazard safety
// argument); the hazard steps compile only under reclaim::Hp, and the
// engine's hooks in search() state where each cell starts, decays and
// resumes. The pragmatic variants keep their no-CAS contains() under
// HP -- they pay publish+revalidate per step instead.
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
#include <optional>
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
  /// one forward pass -- a read-only walk without hazards has no way to
  /// lose its position, so it never restarts. Draconic readers help
  /// unlink (CAS + restart on a lost CAS) by design; HP readers are
  /// CAS-free but bounded-restart (core::walk resumes from the last
  /// validated anchor).
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
  /// Uncounted: core::Counted keeps the op ledger over this handle.
  class Handle {
   public:
    bool add(long key) { return list_->do_add(*this, key); }
    bool remove(long key) { return list_->do_remove(*this, key); }
    bool contains(long key) { return list_->do_contains(*this, key); }
    long scan_raw(long from, long hi, long limit, const KeySink& sink) {
      return list_->do_scan(*this, from, hi, limit, sink);
    }
    friend ReadPath read_path(const Handle& h) { return h.read_; }

    /// Fault injection (see faults.hpp): op-level kinds run a
    /// deliberately botched remove of `key` and return whether it took
    /// effect; lease-level kinds crash the reclaim handle itself and
    /// return nullopt. Only destruction may follow.
    std::optional<bool> abandon(faults::FaultKind k, long key) {
      return list_->do_abandon(*this, k, key);
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
    ReadPath read_;
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

  using Pos = WalkPos<Node>;

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
    Node* g = hint_start<kHazards>(hints_, *h.rh_, key);
    Node* s = start::tighter(head_, c, g);
    if (s != head_ && s == g) ++h.read_.hint_hits;
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

  /// Locate `key` with core::walk, under every reclaimer. kMutate:
  /// guarantee physical adjacency prev->next == cur at some observed
  /// instant (required before an insert or unlink CAS), sweeping and
  /// retiring the dead run in between. Read-only: the mild contains.
  /// Under HP, prev returns in the anchor slot and cur in the walk
  /// slot; the caller may dereference both until its next search.
  ///
  /// The hooks are the engine's rules per cell. HP never follows a
  /// back pointer: a dead start drops the cursor and re-picks cursor,
  /// hint or head, and a lost position resumes at the still-protected
  /// prev. On arena/EBR a dead start goes to the head (doubly:
  /// recover() hops back), except the read-only walk, which stays one
  /// forward pass and walks on from it; a lost position resumes at
  /// prev -- dereferenceable by construction (arena: stable addresses;
  /// EBR: the op's pin) -- via recover() for the doubly variants, while
  /// draconic keeps its from-the-head discipline.
  template <bool kMutate = true>
  Pos search(Handle& h, long key) {
    return walk<kTraversal, kBackoff, kMutate, Node>(
        *h.rh_, key, [&] { return start_node(h, key); },
        [&](Node* dead) -> Node* {
          if constexpr (kHazards) {
            drop_cursor(h);
            return start_node(h, key);
          } else if constexpr (!kMutate) {
            return dead;
          } else if constexpr (kBackOn) {
            return recover(dead);
          } else {
            return head_;
          }
        },
        [&](Node* prev) -> Node* {
          if constexpr (kHazards) {
            return prev;
          } else if constexpr (kTraversal == Traversal::kDraconic) {
            return head_;
          } else if constexpr (kBackOn) {
            return recover(prev);
          } else {
            return prev;
          }
        },
        [&](Node* prev, Node* first, Node* last) {
          refresh_back(last, prev);  // HP: last is walk-slot protected
          retire_run(hints_, *h.rh_, first, last);
        },
        &h.read_.restarts);
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
          // p.prev is anchor-protected; the fresh node is not in any slot
          update_cursor(h, p.prev);
          maybe_publish(hints_, h.hint_tick_, head_, p.prev);
        } else {
          update_cursor(h, node);
          maybe_publish(hints_, h.hint_tick_, head_, node);
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
    maybe_publish(hints_, h.hint_tick_, head_, p.prev);
    if (!m.won) return false;
    // Physical unlink: one attempt in the mild variants (the next
    // search will sweep it), mandatory help in the draconic one. A
    // successful CAS detached exactly p.cur, so we own its retirement.
    pin_succ(h, m.succ);
    if (p.prev->next.cas_clean(p.cur, m.succ)) {
      refresh_back(m.succ, p.prev);
      retire_run(hints_, *h.rh_, p.cur, m.succ);
    } else {
      if constexpr (kTraversal == Traversal::kDraconic) search(h, key);
    }
    return true;
  }

  /// Fault dispatch (Handle::abandon). The op-level kinds are a remove
  /// attempt (core::Counted counts it) whose logical removal really
  /// happens, so the population conservation check (prefill + adds -
  /// rems == size) keeps balancing across crashes. They deliberately
  /// leave the reclaim lease healthy: each fault kind isolates one
  /// recovery path (combine with a lease-level abandon on another
  /// worker to test both at once).
  std::optional<bool> do_abandon(Handle& h, faults::FaultKind k, long key) {
    if (!faults::is_op_fault(k)) {
      h.rh_->abandon(k);
      return std::nullopt;
    }
    return k == faults::FaultKind::kMidOpAbandon ? do_remove_abandoned(h, key)
                                                 : do_remove_leaky(h, key);
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
    // A leaked node is freed at teardown, but it leaves the live chain
    // (and so the hint index) now.
    if (p.prev->next.cas_clean(p.cur, m.succ))
      retire_run(hints_, *h.rh_, p.cur, m.succ, /*leak_victim=*/p.cur);
    return true;
  }

  bool do_contains(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    if constexpr (kTraversal == Traversal::kDraconic) {
      // Draconic readers help clean up (and pay the restarts for it).
      const Pos p = search(h, key);
      return p.cur != nullptr && p.cur->key == key;
    } else {
      // Read-only from the tighter of cursor/hint/head, never a CAS
      // (iset.hpp matrix). Arena/EBR: one forward pass, no restart
      // path; HP: every step pays the publish + anchor revalidation.
      const Pos p = search</*kMutate=*/false>(h, key);
      update_cursor(h, p.prev);
      // HP: the anchor slot still covers p.prev
      maybe_publish(hints_, h.hint_tick_, head_, p.prev);
      return p.cur != nullptr && p.cur->key == key;
    }
  }

  /// The scan primitive behind Handle::scan_raw: emit live keys
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
            Node* g = hint_start<kHazards>(hints_, *h.rh_, from);
            if (g == nullptr) return head_;
            ++h.read_.hint_hits;
            return g;  // validated key < from, kAnchor-covered
          },
          &h.read_.restarts);
    } else {
      // A validated hint with key < from is a correct pseudo-head for
      // the plain scan: every key it skips is below the range.
      Node* g = hint_start<kHazards>(hints_, *h.rh_, from);
      if (g != nullptr) ++h.read_.hint_hits;
      return scan::plain_scan(g != nullptr ? g : head_, from, hi, limit,
                              sink);
    }
  }

  std::shared_ptr<Reclaim> domain_;
  Node* head_;
  HintIndex<Node> hints_;
};

}  // namespace pragmalist::core
