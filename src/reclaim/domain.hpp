// The reclaim-domain core: the bookkeeping Arena, Ebr and Hp share,
// written once. A policy derives its domain from Domain<Node, Entry>
// and its handle from HandleBase<Policy, Node> and adds only its
// protection protocol; its names hide or extend the core's (static
// composition, no virtuals).
//
// The rules stated here for every policy: a node is counted allocated
// at track(), in limbo from note_retired() until note_freed(), so
// live_nodes() is the footprint and limbo_nodes() counts retired nodes
// wherever they wait -- a handle's bags, the orphans, a crashed lease.
// Attributed leaks sit outside limbo and are freed at teardown. A
// crashed lease keeps its slot and its parked limbo until reap(). Both
// fault ledgers share one mutex that only fault paths and
// blast_stats() take, so a sample never counts a lease in one field
// and not another.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "src/alloc/slab.hpp"
#include "src/common/debug.hpp"
#include "src/faults/faults.hpp"

namespace pragmalist::reclaim {

/// The node a parked limbo entry names: a bare node (HP) or a node
/// paired with its retire epoch (EBR).
template <typename Node>
Node* node_of(Node* n) {
  return n;
}
template <typename Node, typename Tag>
Node* node_of(const std::pair<Node*, Tag>& e) {
  return e.first;
}

template <typename Policy, typename Node>
class HandleBase;

template <typename Node, typename Entry = Node*>
class Domain {
 public:
  static constexpr int kMaxHandles = 256;

  /// One abandoned handle: the slot it still occupies and the limbo
  /// it had parked, in the policy's entry form.
  struct CrashedLease {
    int slot;
    std::vector<Entry> nodes;
  };

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  void track(Node*) { allocated_.fetch_add(1, std::memory_order_relaxed); }

  /// Tracked minus freed: the node footprint the churn tests bound.
  std::size_t live_nodes() const {
    return allocated_.load(std::memory_order_relaxed) -
           freed_.load(std::memory_order_relaxed);
  }

  /// Retired-not-yet-freed nodes: every handle's limbo, the orphans of
  /// departed handles and the parked limbo of crashed ones. The soak
  /// harness samples this as the limbo-depth series.
  std::size_t limbo_nodes() const {
    return limbo_.load(std::memory_order_relaxed);
  }

  /// Blast-radius snapshot of the shared fault ledgers (see
  /// faults::BlastStats). Safe to sample while workers run.
  faults::BlastStats blast_stats() const {
    return blast_stats([](const CrashedLease&, faults::BlastStats&) {});
  }

  /// Domain-level allocation (sentinels, teardown paths).
  template <typename... Args>
  Node* construct(Args&&... args) {
    return pool_.construct(std::forward<Args>(args)...);
  }
  void destroy(Node* n) { pool_.destroy(n); }

  alloc::Mode alloc_mode() const { return pool_.mode(); }
  alloc::SlabStats slab_stats() const { return pool_.stats(); }
  alloc::SlabPool<Node>& pool() { return pool_; }

 protected:
  template <typename, typename>
  friend class HandleBase;

  explicit Domain(alloc::Mode mode) : pool_(mode) {}

  /// Crashed leases nobody reaped, and attributed leaks: the domain
  /// owns both, so even a faulted run tears down ASan-clean.
  ~Domain() {
    for (const CrashedLease& lease : crashed_)
      for (const Entry& e : lease.nodes) pool_.destroy(node_of(e));
    for (Node* n : leaked_) pool_.destroy(n);
  }

  /// Lease the first free slot of a policy's handle table. The
  /// acq_rel CAS on `active` pairs with the release-store a departing
  /// (or reaped) owner ends with, so the new lease observes every
  /// store its predecessor made to the slot.
  template <typename Slot>
  static int lease(Slot (&slots)[kMaxHandles]) {
    for (int i = 0; i < kMaxHandles; ++i) {
      bool expected = false;
      if (slots[i].active.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel))
        return i;
    }
    PRAGMALIST_CHECK(false, "reclaim domain: more than 256 live handles");
    __builtin_unreachable();
  }

  void note_retired() { limbo_.fetch_add(1, std::memory_order_relaxed); }

  void note_freed(std::size_t n) {
    freed_.fetch_add(n, std::memory_order_relaxed);
    limbo_.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Record an abandoned handle's lease. Its nodes stay counted in
  /// limbo (retired, not freed) but no survivor can adopt them, and
  /// the slot stays leased, until reap().
  void park_crashed(int slot, std::vector<Entry> nodes) {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_.push_back(CrashedLease{slot, std::move(nodes)});
  }

  /// Supervisor recovery: take every crashed lease and hand each to
  /// the policy's `release(lease)` (outside the lock), which must pass
  /// the parked nodes on to its orphans and free the slot for
  /// re-lease. Returns the number of leases reaped.
  template <typename Release>
  std::size_t reap(Release&& release) {
    std::vector<CrashedLease> leases;
    {
      std::lock_guard<std::mutex> lock(mu_);
      leases.swap(crashed_);
    }
    for (CrashedLease& lease : leases) release(lease);
    return leases.size();
  }

  /// The shared blast fields plus whatever `per_lease(lease, b)` adds
  /// for each crashed lease, all in one critical section.
  template <typename PerLease>
  faults::BlastStats blast_stats(PerLease&& per_lease) const {
    faults::BlastStats b;
    std::lock_guard<std::mutex> lock(mu_);
    b.leaked_nodes = leaked_.size();
    b.leaked_slabs = leaked_slab_count();
    b.crashed_slots = crashed_.size();
    for (const CrashedLease& lease : crashed_) {
      b.parked_limbo += lease.nodes.size();
      per_lease(lease, b);
    }
    return b;
  }

 private:
  /// Attribute a kRetireSkipped leak: the node stays allocated (it is
  /// outside limbo and the orphans) and is freed at teardown.
  void leak_node(Node* n) {
    std::lock_guard<std::mutex> lock(mu_);
    leaked_.push_back(n);
  }

  /// Distinct slabs holding attributed leaks (slab-leak attribution
  /// for the fault tier; 0 in heap mode where there are no slabs).
  /// Under mu_.
  std::size_t leaked_slab_count() const {
    if (pool_.mode() != alloc::Mode::kSlab) return 0;
    std::vector<const void*> slabs;
    for (const Node* n : leaked_) {
      const void* s = pool_.slab_of(n);
      if (std::find(slabs.begin(), slabs.end(), s) == slabs.end())
        slabs.push_back(s);
    }
    return slabs.size();
  }

  alloc::SlabPool<Node> pool_;  // first: every free above drains into it
  // On their own line: retire, free passes and inserts bump these from
  // every thread, and the pool's or the policy's hot fields (EBR's
  // global epoch) must not share it.
  alignas(64) std::atomic<std::size_t> allocated_{0};
  std::atomic<std::size_t> freed_{0};
  std::atomic<std::size_t> limbo_{0};
  mutable std::mutex mu_;
  std::vector<CrashedLease> crashed_;  // guarded by mu_
  std::vector<Node*> leaked_;          // guarded by mu_
};

/// Per-thread handle core: the owning domain, the leased slot (-1 for
/// the slotless arena) and the slot cache every allocation goes
/// through. A moved-from or abandoned handle has d_ == nullptr, which
/// the policies' destructors read as "dead: skip departure".
template <typename Policy, typename Node>
class HandleBase {
 public:
  /// Node allocation, through the per-thread slot cache (a plain
  /// `new` when the domain runs in heap mode). The cache drains on
  /// handle destruction -- and on abandon: cached slots are clean
  /// memory, never protected state, so a crash leaks none of them.
  template <typename... Args>
  Node* construct(Args&&... args) {
    return cache_.construct(std::forward<Args>(args)...);
  }

  /// Free a never-published node (a lost insert race) immediately:
  /// no reader can hold it, so it skips limbo entirely.
  void dispose(Node* n) { cache_.destroy(n); }

  /// Fault injection (kRetireSkipped): `n` was unlinked but the crash
  /// skipped its retire. The domain attributes and owns it -- counted
  /// by blast_stats().leaked_nodes, freed only at teardown, never
  /// part of limbo.
  void leak(Node* n) { d_->leak_node(n); }

  /// Fault injection: the owning worker crashed. The core only checks
  /// the kind; a reclaiming policy hides this with its crash protocol
  /// (and calls it first).
  void abandon(faults::FaultKind k) {
    PRAGMALIST_CHECK(!faults::is_op_fault(k),
                     "op-level faults are injected by the engine, not "
                     "the reclaim handle");
  }

 protected:
  HandleBase(Policy* d, int slot) : d_(d), slot_(slot), cache_(&d->pool()) {}
  HandleBase(HandleBase&& o) noexcept
      : d_(std::exchange(o.d_, nullptr)),
        slot_(o.slot_),
        cache_(std::move(o.cache_)) {}

  Policy* d_;
  int slot_;
  alloc::ThreadCache<Node> cache_;
};

}  // namespace pragmalist::reclaim
