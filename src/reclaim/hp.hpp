// Hazard-pointer reclamation (Michael, PODC'02/TPDS'04), one domain
// shared by the paper engines and the Michael baseline. Each handle
// owns kSlots hazard cells; a reader publishes the node it is about to
// dereference, revalidates reachability against a shared cell, and may
// then use the node until the cell is overwritten. scan() frees every
// retiree no cell currently protects.
//
//   Progress guarantee: fully lock-free, including reclamation -- a
//     parked thread pins at most kSlots nodes forever; it can never
//     stall anyone else's frees the way a parked EBR pin stalls the
//     epoch.
//   Memory bound: per-domain garbage is bounded by
//     kMaxHandles * (kRetireThreshold + kSlots) regardless of how long
//     the run lasts or how threads come and go -- the strongest bound
//     of the three policies (the churn and soak tiers assert it).
//   Engine requirements: the engine must run a hazard traversal --
//     publish into a slot before every dereference and revalidate
//     afterwards. Stepping over marked nodes additionally requires the
//     anchored-validation steps core::walk runs on an HP handle: plain
//     HP validation cannot detect that a marked node's frozen successor
//     chain was swept, see list_base.hpp. Per-handle cursors are
//     supported via a dedicated persistent slot (hazard::kCursor).
//
// Slot-role conventions are the caller's business: the Michael
// baseline uses three (cur/succ/pred); the pragmatic engines use four
// (anchor/walk/run + a persistent cursor slot, see list_base.hpp).
//
// Cursor-slot reuse (departure/arrival protocol): hazard slots are a
// fixed kMaxHandles-entry table, so a long-running service must
// re-lease the slots of departed threads to arrivals. A departing
// handle (destructor) does, in order:
//   1. one last scan(), freeing every retiree no cell protects;
//   2. hands survivors to the domain's lock-free *orphan* stack -- the
//      next scan() by any live handle adopts and frees them, so a
//      departed thread's garbage never waits for domain teardown;
//   3. clears all kSlots cells -- including the persistent kCursor
//      cell, which unlike the traversal cells is deliberately kept
//      published *between* operations and would otherwise pin its node
//      (and with it one list position) for the rest of the run;
//   4. releases the slot with a release-store that the arrival's
//      acquire-CAS in make_handle() synchronizes with, so a re-leased
//      slot is observed with all cells null and no stale protection
//      can leak from the previous owner into the new lease.
//
// One Hp instance is a *domain*: it may back any number of lists of
// the same node type (the sharded set runs every shard against one
// domain), and handles are leased per *thread*, not per list -- one
// kSlots-cell row covers a thread's traversals on all of them, which
// is what keeps the hazard-slot total O(threads) instead of
// O(threads x shards). Because the persistent kCursor cell is then a
// per-thread resource shared by every borrowing list, the handle
// carries a `cursor_owner` tag: the engine that last published a
// cursor stamps itself, and any engine finding another owner's stamp
// treats its own remembered cursor as lost instead of dereferencing a
// node the cell no longer protects (or clearing a cell that now
// guards someone else's cursor).
//
// The bookkeeping is the shared core (domain.hpp); this file is the
// hazard protocol: cells, scan, orphan stack, cursor_owner.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/list_base.hpp"
#include "src/reclaim/domain.hpp"

namespace pragmalist::reclaim {

template <typename Node>
class Hp : public Domain<Node> {
  using Base = Domain<Node>;
  using typename Base::CrashedLease;

 public:
  static constexpr bool kStableAddresses = false;
  static constexpr bool kHazards = true;
  static constexpr bool kReclaims = true;
  static constexpr int kSlots = 4;
  static constexpr std::size_t kRetireThreshold = 64;
  using Base::kMaxHandles;

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<Node*>, kSlots> hp{};
    std::atomic<bool> active{false};
  };

 public:
  class Handle : public HandleBase<Hp, Node> {
    using HandleBase<Hp, Node>::d_;
    using HandleBase<Hp, Node>::slot_;
    using HandleBase<Hp, Node>::cache_;

   public:
    static constexpr bool kHazards = Hp::kHazards;
    static constexpr bool kReclaims = Hp::kReclaims;

    Handle(Handle&&) = default;
    ~Handle() {
      if (d_ == nullptr) return;
      // Departure protocol -- see the file comment. The final scan runs
      // with our own cells still published, so a self-protected cursor
      // node correctly survives into the orphan stack rather than being
      // freed out from under a concurrent reader of the same node.
      // Survivors stay counted in limbo: orphans are still retired.
      d_->scan(retired_, cache_);
      for (Node* n : retired_) core::push_intrusive(d_->orphans_, n);
      d_->release_slot(slot_);
    }

    struct Guard {};
    Guard guard() { return {}; }

    /// Publish: the store must be ordered before the caller's
    /// revalidation read, hence seq_cst (a release store could be
    /// reordered past the subsequent load on x86 and elsewhere).
    void protect(int slot, Node* n) {
      d_->slots_[slot_].hp[static_cast<std::size_t>(slot)].store(
          n, std::memory_order_seq_cst);
    }

    void clear(int slot) {
      d_->slots_[slot_].hp[static_cast<std::size_t>(slot)].store(
          nullptr, std::memory_order_release);
    }

    void retire(Node* n) {
      retired_.push_back(n);
      d_->note_retired();
      if (retired_.size() >= kRetireThreshold) collect();
    }

    /// Scan now instead of waiting for the retire threshold (departing
    /// service workers and the slot-reuse tests force passes with it).
    void collect() { d_->scan(retired_, cache_); }

    /// Retired-not-yet-freed nodes parked on this handle.
    std::size_t limbo_size() const { return retired_.size(); }

    /// Fault injection: the owning worker crashed.
    /// kAbortWithGuardHeld leaves every published cell as-is -- each
    /// dead cell quarantines at most one node from every future scan,
    /// which is HP's whole blast radius (contrast the EBR horizon
    /// stall). kDepartWithoutRelease models a worker dying *between*
    /// operations: the traversal cells are empty but the persistent
    /// kCursor cell (by convention the highest slot) is still
    /// published, so exactly that one leaks. Either way the retire bag
    /// is parked on the domain -- counted by limbo_nodes(), but
    /// unadoptable -- and the slot stays leased until reap_crashed().
    /// The handle is dead afterwards (its destructor is a no-op).
    void abandon(faults::FaultKind k) {
      HandleBase<Hp, Node>::abandon(k);
      if (k == faults::FaultKind::kDepartWithoutRelease) {
        for (int s = 0; s + 1 < kSlots; ++s) clear(s);
      }
      d_->park_crashed(slot_, std::move(retired_));
      d_ = nullptr;
    }

    /// Which borrower (list engine) currently owns the persistent
    /// kCursor cell -- see the file comment. Only ever read/written by
    /// the handle's own thread; nullptr when the cell is unclaimed.
    const void* cursor_owner = nullptr;

   private:
    friend class Hp;
    Handle(Hp* d, int slot) : HandleBase<Hp, Node>(d, slot) {}

    std::vector<Node*> retired_;
  };

  explicit Hp(alloc::Mode mode = alloc::Mode::kHeap) : Base(mode) {}

  ~Hp() {
    Node* r = orphans_.load(std::memory_order_acquire);
    while (r != nullptr) {
      Node* next = r->reg_next;
      this->destroy(r);
      r = next;
    }
  }

  Handle make_handle() {
    const int i = Base::lease(slots_);
    // Re-lease: the departed owner's release-store of `active` ordered
    // its cell clears before the lease CAS, so the cells are null;
    // re-null defensively so a fresh lease never starts with stale
    // protection even if the slot was never used before.
    for (auto& h : slots_[i].hp) h.store(nullptr, std::memory_order_relaxed);
    return Handle(this, i);
  }

  /// Supervisor recovery: release every crashed lease. Hands the
  /// parked retire bag to the orphan stack (the next scan by any live
  /// handle adopts it), clears the dead cells -- un-quarantining
  /// whatever they pinned -- and frees the slot for re-lease. Returns
  /// the number of leases reaped. Safe to call from any thread while
  /// workers run.
  std::size_t reap_crashed() {
    return Base::reap([this](CrashedLease& lease) {
      // Same order as a clean departure: orphan the bag first, then
      // release the slot.
      for (Node* n : lease.nodes) core::push_intrusive(orphans_, n);
      release_slot(lease.slot);
    });
  }

  /// Blast-radius snapshot (see faults::BlastStats): the shared fault
  /// ledgers plus leaked_cells, the non-null hazard cells of crashed
  /// leases -- the exact number of nodes a scan may have to quarantine
  /// because of the crashes. No horizon_lag: HP has no epoch to stall.
  faults::BlastStats blast_stats() const {
    return Base::blast_stats(
        [this](const CrashedLease& lease, faults::BlastStats& b) {
          for (const auto& cell : slots_[lease.slot].hp)
            if (cell.load(std::memory_order_acquire) != nullptr)
              ++b.leaked_cells;
        });
  }

 private:
  friend class Handle;

  /// Clear every cell of `slot`, then give it up: the release-store of
  /// `active` publishes the nulls to the next make_handle, so no stale
  /// protection leaks from the previous owner into the new lease.
  void release_slot(int slot) {
    for (auto& h : slots_[slot].hp) h.store(nullptr, std::memory_order_release);
    slots_[slot].active.store(false, std::memory_order_release);
  }

  /// Free every retiree no hazard pointer currently protects, into the
  /// scanning handle's slot cache. Adopts the orphan stack first
  /// (retirees of departed handles), so one surviving handle is enough
  /// to keep the whole domain's garbage bounded under thread churn.
  void scan(std::vector<Node*>& retired, alloc::ThreadCache<Node>& cache) {
    Node* o = orphans_.exchange(nullptr, std::memory_order_acq_rel);
    while (o != nullptr) {
      Node* next = o->reg_next;
      retired.push_back(o);
      o = next;
    }
    std::unordered_set<Node*> protected_nodes;
    for (const auto& slot : slots_) {
      if (!slot.active.load(std::memory_order_acquire)) continue;
      for (const auto& hazard : slot.hp) {
        Node* n = hazard.load(std::memory_order_acquire);
        if (n != nullptr) protected_nodes.insert(n);
      }
    }
    std::vector<Node*> keep;
    keep.reserve(retired.size());
    std::size_t freed = 0;
    for (Node* n : retired) {
      if (protected_nodes.count(n) != 0) {
        keep.push_back(n);
      } else {
        cache.destroy(n);
        ++freed;
      }
    }
    retired = std::move(keep);
    this->note_freed(freed);
  }

  Slot slots_[kMaxHandles];
  std::atomic<Node*> orphans_{nullptr};
};

}  // namespace pragmalist::reclaim
