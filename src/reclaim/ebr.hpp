// Epoch-based reclamation, one domain shared by the paper engines and
// the Michael baseline: operations run inside an epoch-pinned critical
// section (Handle::guard()); detached nodes are retired into the
// current epoch's limbo bag and freed once every pinned handle has
// advanced at least two epochs past it.
//
//   Progress guarantee: operations stay lock-free (pin/unpin and
//     retire are wait-free; the free pass runs outside the pin), but
//     *reclamation* is only blocking-free in aggregate -- one thread
//     parked inside a critical section stalls the epoch and no node
//     retired since its pin can be freed until it unpins.
//   Memory bound: none in the worst case (a stalled epoch grows limbo
//     without limit); in steady state limbo per handle is bounded by
//     the retire rate of roughly three epochs plus kRetireThreshold.
//     The churn and soak tiers assert the steady-state bound.
//   Engine requirements: none beyond the retire contract -- traversals
//     are unchanged (no per-step protection, no marked-node
//     restrictions), which is why the pragmatic walk keeps its shape
//     under EBR. Cursors are disabled (kStableAddresses is false and
//     there is no hazard slot to pin them): a node pointer held across
//     an unpinned gap may be freed, so every operation starts from the
//     head.
//
// Limbo is **epoch-bucketed**: each handle owns kBags (= 3) rotating
// bags, one per epoch residue. retire() drops the node into the bag
// for the current epoch; because the global epoch can only advance
// when every pinned handle has caught up, by the time the rotation
// comes back around to a bag (three epochs later) no reader can still
// hold anything in it, and the whole bag is freed in O(|bag|) --
// nothing is ever re-examined or rebuilt, so the free-pass cost tracks
// the number of nodes actually freed, not the total limbo size (the
// old scheme rebuilt one flat limbo vector per pass, which is O(all
// of limbo) per pass under churn).
//
//   bag lifecycle (global epoch e, bags indexed e % 3):
//
//          retire() fills            collect() frees when
//               v                    min pinned epoch >= bag+2
//     +-----------------+
//     | bag[e % 3]      |  epoch e      (current: filling)
//     +-----------------+
//     | bag[(e-1) % 3]  |  epoch e-1    (cooling: readers from e-1
//     +-----------------+               may still hold pointers)
//     | bag[(e-2) % 3]  |  epoch e-2    (free as soon as every pinned
//     +-----------------+               handle reaches e, i.e. two
//                                       advances after retirement)
//
//     At epoch e+1 the rotation reuses bag[(e+1) % 3] == bag[(e-2) % 3];
//     if collect() has not already emptied it, retire() frees it whole
//     before refilling (same-residue reuse implies the bag is >= 3
//     epochs old, strictly older than the two-epoch grace period).
//
// Departure: a dying handle runs one last collect(), then hands its
// still-young bags (nodes tagged with their retire epoch) to a small
// mutex-guarded orphan pool that any survivor's collect() adopts under
// the same two-epoch rule -- so thread arrival/departure churn cannot
// grow memory toward teardown. The mutex is taken only at departures
// and try_locked from collect(); no list operation ever blocks on it.
//
// Reclamation runs at guard *release*, after the unpin: freeing while
// pinned is a death spiral -- a thread scanning with a pre-advance
// epoch blocks try_advance for everyone, epochs stall, limbo grows,
// scans get slower, pins get longer. Unpinned passes cannot block
// anything, so the epoch keeps moving no matter how churn-saturated
// the workload is (the churn test tier asserts exactly this).
//
// Collect cadence is **adaptive**: the per-handle trigger threshold
// tracks an EWMA of the handle's recent retire rate (floored at
// kRetireThreshold, capped at kCollectThresholdMax), and backs off
// exponentially while passes are futile -- under an oversubscribed
// scheduler a descheduled pinned thread stalls the horizon, and
// re-scanning the handle table at every guard release frees nothing
// while making the stall worse. The moment the global epoch moves
// again, the next guard release collects regardless of the backed-off
// threshold, so a spike drains as soon as it can instead of waiting
// for limbo to reach the raised trigger.
//
// One Ebr instance is a *domain*: it may back any number of lists of
// the same node type (the sharded set runs every shard against one
// domain), and handles are leased per *thread*, not per list -- one
// epoch slot covers a thread's operations on all of them.
//
// The bookkeeping is the shared core (domain.hpp); this file is the
// epoch protocol: pin, bags, cadence, orphan pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "src/reclaim/domain.hpp"

namespace pragmalist::reclaim {

template <typename Node>
class Ebr : public Domain<Node, std::pair<Node*, std::uint64_t>> {
  /// A retired node with its retire epoch: the form orphans and
  /// crashed leases keep, so adoption applies the two-epoch rule.
  using Entry = std::pair<Node*, std::uint64_t>;
  using Base = Domain<Node, Entry>;
  using typename Base::CrashedLease;

 public:
  static constexpr bool kStableAddresses = false;
  static constexpr bool kHazards = false;
  static constexpr bool kReclaims = true;
  static constexpr int kBags = 3;
  static constexpr std::size_t kRetireThreshold = 128;
  static constexpr std::size_t kCollectThresholdMax = 4096;
  using Base::kMaxHandles;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<bool> pinned{false};
    std::atomic<bool> active{false};
  };

  /// One epoch's worth of retired nodes. `epoch` is meaningful only
  /// while `nodes` is non-empty.
  struct Bag {
    std::vector<Node*> nodes;
    std::uint64_t epoch = 0;
  };

 public:
  class Handle : public HandleBase<Ebr, Node> {
    using HandleBase<Ebr, Node>::d_;
    using HandleBase<Ebr, Node>::slot_;

   public:
    static constexpr bool kHazards = Ebr::kHazards;
    static constexpr bool kReclaims = Ebr::kReclaims;

    Handle(Handle&&) = default;
    ~Handle() {
      if (d_ == nullptr) return;
      // One last unpinned free pass, then hand whatever is still too
      // young to the domain's orphan pool, where any survivor's next
      // collect() adopts and frees it. Departing threads therefore
      // never leak their limbo to the end of the run -- the service
      // tier's arrival/departure churn depends on this.
      collect();
      d_->orphan(take_bags());
      d_->slots_[slot_].active.store(false, std::memory_order_release);
    }

    /// RAII epoch pin around one operation. See the file comment for
    /// why the free pass runs at release, never while pinned.
    class Guard {
     public:
      explicit Guard(Handle& h) : h_(h) { h.d_->pin(h.slot_); }
      Guard(const Guard&) = delete;
      Guard& operator=(const Guard&) = delete;
      ~Guard() {
        h_.d_->slots_[h_.slot_].pinned.store(false,
                                             std::memory_order_release);
        if (h_.collect_due()) h_.collect();
      }

     private:
      Handle& h_;
    };

    Guard guard() { return Guard(*this); }

    void retire(Node* n) {
      const std::uint64_t e =
          d_->global_epoch_.load(std::memory_order_acquire);
      Bag& bag = bags_[e % kBags];
      if (!bag.nodes.empty() && bag.epoch != e) {
        // Same residue, strictly older: the bag is >= kBags epochs old,
        // past the two-epoch grace period, free it whole before reuse.
        free_bag(bag);
      }
      bag.epoch = e;
      bag.nodes.push_back(n);
      ++limbo_size_;
      ++retired_since_collect_;
      d_->note_retired();
    }

    /// Adaptive cadence trigger, checked at guard release. Pressure is
    /// the worse of own limbo and the orphan pool (a straggler that
    /// barely retires must still adopt the garbage of departed
    /// threads, or a join/leave-heavy run leaks) -- both gated the
    /// same way: fire at the backed-off threshold, or at the base
    /// threshold as soon as the epoch has moved since the last pass
    /// (a backed-off spike must drain the moment the stall clears).
    /// Past the cap the trigger fires every release by design: those
    /// passes keep calling try_advance, which is what lets the epoch
    /// move promptly once a stalled straggler unpins.
    bool collect_due() const {
      const std::size_t pressure = std::max(
          limbo_size_, d_->orphan_count_.load(std::memory_order_relaxed));
      if (pressure >= collect_threshold_) return true;
      return pressure >= kRetireThreshold &&
             d_->global_epoch_.load(std::memory_order_relaxed) !=
                 last_collect_epoch_;
    }

    /// Free pass: advance the epoch if possible, then free every bag
    /// two epochs behind the slowest pinned handle. O(#bags freed +
    /// kMaxHandles), never O(total limbo). Intended to run unpinned
    /// (the guard destructor calls it after the unpin -- see file
    /// comment); calling it inside a live guard is safe but mostly
    /// futile, as the caller's own pin holds the horizon back. Public
    /// so departing service workers and the bucket-rotation tests can
    /// force a pass.
    void collect() {
      d_->try_advance();
      const std::uint64_t min_epoch = d_->min_pinned_epoch();
      const std::size_t limbo_before = limbo_size_;
      const std::size_t orphans_before =
          d_->orphan_count_.load(std::memory_order_relaxed);
      for (Bag& bag : bags_) {
        if (bag.nodes.empty()) continue;
        if (bag.epoch + 2 <= min_epoch) free_bag(bag);
      }
      d_->collect_orphans(min_epoch);
      adapt_cadence(limbo_before, orphans_before);
    }

    /// Retired-not-yet-freed nodes parked on this handle.
    std::size_t limbo_size() const { return limbo_size_; }

    /// Current adaptive trigger (tests/metrics only).
    std::size_t collect_threshold() const { return collect_threshold_; }

    /// Fault injection: the owning worker crashed.
    /// kAbortWithGuardHeld re-pins the slot at the current epoch and
    /// leaves it pinned -- the reclamation horizon can advance at most
    /// once and then stalls until the lease is reaped.
    /// kDepartWithoutRelease skips the departure protocol (no final
    /// collect, no orphan hand-off, slot kept leased). Either way the
    /// handle's limbo is parked on the domain -- still counted by
    /// limbo_nodes(), but unadoptable until reap_crashed() -- and the
    /// handle is dead afterwards (its destructor is a no-op).
    void abandon(faults::FaultKind k) {
      HandleBase<Ebr, Node>::abandon(k);
      if (k == faults::FaultKind::kAbortWithGuardHeld) d_->pin(slot_);
      d_->park_crashed(slot_, take_bags());
      d_ = nullptr;
    }

   private:
    friend class Ebr;
    Handle(Ebr* d, int slot) : HandleBase<Ebr, Node>(d, slot) {}

    /// Free a bag into this handle's slot cache, where its next
    /// allocations reuse the slots without a refill.
    void free_bag(Bag& bag) {
      for (Node* n : bag.nodes) this->dispose(n);
      d_->note_freed(bag.nodes.size());
      limbo_size_ -= bag.nodes.size();
      bag.nodes.clear();
    }

    /// Empty every bag into retire-epoch-tagged entries (departure and
    /// crash both hand the whole limbo on in this form).
    std::vector<Entry> take_bags() {
      std::vector<Entry> out;
      out.reserve(limbo_size_);
      for (Bag& bag : bags_) {
        for (Node* n : bag.nodes) out.emplace_back(n, bag.epoch);
        bag.nodes.clear();
      }
      limbo_size_ = 0;
      return out;
    }

    /// Re-tune the trigger after a pass. A futile pass (freed nothing,
    /// own limbo or orphans alike) over above-threshold pressure means
    /// a stalled horizon: double the threshold up to the cap. A
    /// productive pass re-anchors it to the EWMA retire rate, floored
    /// at the base threshold. A futile pass *below* the threshold
    /// (only the epoch-moved clause fired) leaves it alone -- it is
    /// neither evidence of a stall nor of drainage.
    void adapt_cadence(std::size_t limbo_before,
                       std::size_t orphans_before) {
      rate_ewma_ = (3 * rate_ewma_ + retired_since_collect_) / 4;
      retired_since_collect_ = 0;
      last_collect_epoch_ =
          d_->global_epoch_.load(std::memory_order_relaxed);
      const std::size_t orphans_after =
          d_->orphan_count_.load(std::memory_order_relaxed);
      const bool futile =
          limbo_size_ == limbo_before && orphans_after >= orphans_before;
      const std::size_t pressure = std::max(limbo_size_, orphans_after);
      if (futile && pressure >= collect_threshold_) {
        if (collect_threshold_ < kCollectThresholdMax)
          collect_threshold_ =
              std::min(kCollectThresholdMax, collect_threshold_ * 2);
      } else if (!futile) {
        collect_threshold_ =
            std::max(kRetireThreshold,
                     std::min(kCollectThresholdMax, rate_ewma_));
      }
    }

    Bag bags_[kBags];
    std::size_t limbo_size_ = 0;
    std::size_t collect_threshold_ = kRetireThreshold;
    std::size_t retired_since_collect_ = 0;
    std::size_t rate_ewma_ = kRetireThreshold;
    std::uint64_t last_collect_epoch_ = 0;
  };

  explicit Ebr(alloc::Mode mode = alloc::Mode::kHeap) : Base(mode) {}

  ~Ebr() {
    for (const Entry& e : orphans_) this->destroy(e.first);
  }

  Handle make_handle() { return Handle(this, Base::lease(slots_)); }

  /// Current global epoch (metrics/tests only).
  std::uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Supervisor recovery: release every crashed lease. Moves the
  /// parked nodes into the orphan pool (any survivor's next collect
  /// adopts and frees them under the usual two-epoch rule), unpins the
  /// slot (the horizon resumes) and frees it for re-lease. Returns the
  /// number of leases reaped. Safe to call from any thread while
  /// workers run.
  std::size_t reap_crashed() {
    return Base::reap([this](CrashedLease& lease) {
      orphan(lease.nodes);
      // Hand the nodes off *before* unpinning: the stalled horizon
      // keeps them unfreeable until this store, so adoption can never
      // free something the dead pin still covered.
      slots_[lease.slot].pinned.store(false, std::memory_order_seq_cst);
      slots_[lease.slot].active.store(false, std::memory_order_release);
    });
  }

  /// Blast-radius snapshot (see faults::BlastStats): the shared fault
  /// ledgers plus horizon_lag. Sampled per tick by the soak harness;
  /// horizon_lag > 0 with no crashed slots is just normal epoch skew,
  /// while a persistent lag under a crashed slot is the guard-held
  /// stall.
  faults::BlastStats blast_stats() const {
    faults::BlastStats b = Base::blast_stats();
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    b.horizon_lag = e - min_pinned_epoch();
    return b;
  }

 private:
  friend class Handle;

  /// Pin `slot` at the current epoch: set the pinned flag, then publish
  /// an epoch and re-read the global one until they agree, so a pin is
  /// never stale at birth. Shared by Guard and the guard-held crash.
  void pin(int slot) {
    Slot& s = slots_[slot];
    s.pinned.store(true, std::memory_order_seq_cst);
    for (;;) {
      const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
      s.epoch.store(e, std::memory_order_seq_cst);
      if (global_epoch_.load(std::memory_order_seq_cst) == e) break;
    }
  }

  /// Smallest epoch any pinned handle has published (the reclamation
  /// horizon); the global epoch when nothing is pinned.
  std::uint64_t min_pinned_epoch() const {
    std::uint64_t min_epoch = global_epoch_.load(std::memory_order_seq_cst);
    for (const auto& slot : slots_) {
      if (!slot.active.load(std::memory_order_acquire)) continue;
      if (!slot.pinned.load(std::memory_order_seq_cst)) continue;
      const std::uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
      if (e < min_epoch) min_epoch = e;
    }
    return min_epoch;
  }

  /// Bump the global epoch if every pinned handle caught up with it.
  void try_advance() {
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    for (const auto& slot : slots_) {
      if (!slot.active.load(std::memory_order_acquire)) continue;
      if (!slot.pinned.load(std::memory_order_seq_cst)) continue;
      if (slot.epoch.load(std::memory_order_seq_cst) != e) return;
    }
    std::uint64_t expected = e;
    global_epoch_.compare_exchange_strong(expected, e + 1,
                                          std::memory_order_seq_cst);
  }

  /// Departure and reap path: move retire-epoch-tagged nodes into the
  /// orphan pool. The mutex is only ever taken here (rare: schedule
  /// edges and supervisor reaps) and in collect_orphans (try_lock, off
  /// the operation path), so operations themselves stay lock-free.
  void orphan(const std::vector<Entry>& nodes) {
    if (nodes.empty()) return;
    std::lock_guard<std::mutex> lock(orphans_mu_);
    orphans_.insert(orphans_.end(), nodes.begin(), nodes.end());
    orphan_count_.store(orphans_.size(), std::memory_order_relaxed);
  }

  /// Free every orphan whose epoch is two behind the horizon. Skips
  /// out immediately when the pool is empty or contended.
  void collect_orphans(std::uint64_t min_epoch) {
    if (orphan_count_.load(std::memory_order_relaxed) == 0) return;
    if (!orphans_mu_.try_lock()) return;
    std::size_t freed = 0;
    std::size_t w = 0;
    for (std::size_t r = 0; r < orphans_.size(); ++r) {
      if (orphans_[r].second + 2 <= min_epoch) {
        this->destroy(orphans_[r].first);
        ++freed;
      } else {
        orphans_[w++] = orphans_[r];
      }
    }
    orphans_.resize(w);
    orphan_count_.store(w, std::memory_order_relaxed);
    orphans_mu_.unlock();
    this->note_freed(freed);
  }

  Slot slots_[kMaxHandles];
  std::atomic<std::uint64_t> global_epoch_{2};
  std::mutex orphans_mu_;
  std::vector<Entry> orphans_;  // guarded by orphans_mu_
  std::atomic<std::size_t> orphan_count_{0};
};

}  // namespace pragmalist::reclaim
