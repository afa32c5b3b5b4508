// Deterministic fault injection: crash-faulty workers for the soak /
// linearizability tiers and the blast-radius metrics that price each
// reclaimer's exposure to them.
//
// The taxonomy models a request handler dying at the four places a
// crash hurts a lock-free list differently:
//
//   kAbortWithGuardHeld    -- the worker dies inside a critical
//     section: its EBR epoch pin (or its published hazard cells) is
//     never released. EBR's horizon stalls -- nothing retired since the
//     pin can be freed until a supervisor reaps the lease; HP merely
//     quarantines the handful of nodes the dead cells name.
//   kRetireSkipped         -- the worker unlinks a node but dies before
//     retiring it: a real leak, invisible to limbo. The domain
//     *attributes* it (leaked_nodes) so the footprint ledger still
//     balances: allocated == live + limbo + leaked (+ sentinels).
//   kDepartWithoutRelease  -- the worker dies between operations,
//     skipping the departure protocol: no final collect/scan, no EBR
//     orphan hand-off, no HP cell clear / slot release. Its limbo is
//     parked, unadoptable, until the lease is reaped.
//   kMidOpAbandon          -- the worker dies between the remove's
//     marking CAS and the unlink/helping step: the node is logically
//     deleted but physically linked, and only cooperative helping by
//     the survivors (the paper's core mechanism) ever cleans it up.
//
// A FaultPlan is a deterministic map: worker arrival id -> (op
// ordinal, kind). Same plan + same seed + same schedule = the same
// crashes at the same operations, which is what makes the fault tier a
// tier-1 test rather than a flaky soak. Injection happens through
// ISetHandle::abandon(kind, key) (see core/iset.hpp); recovery through
// the domain's reap_crashed() -- the supervisor operation a real
// service runs when it notices a dead request handler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

namespace pragmalist::faults {

enum class FaultKind {
  kAbortWithGuardHeld,
  kRetireSkipped,
  kDepartWithoutRelease,
  kMidOpAbandon,
};

inline constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kAbortWithGuardHeld,
    FaultKind::kRetireSkipped,
    FaultKind::kDepartWithoutRelease,
    FaultKind::kMidOpAbandon,
};
inline constexpr int kNumFaultKinds = 4;

constexpr std::string_view fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kAbortWithGuardHeld:
      return "guard-held";
    case FaultKind::kRetireSkipped:
      return "retire-skipped";
    case FaultKind::kDepartWithoutRelease:
      return "depart-no-release";
    case FaultKind::kMidOpAbandon:
      return "mid-op";
  }
  return "?";
}

/// True for the kinds injected *during* an operation (the engine owns
/// them); false for the kinds that crash the reclaim lease itself.
constexpr bool is_op_fault(FaultKind k) {
  return k == FaultKind::kMidOpAbandon || k == FaultKind::kRetireSkipped;
}

/// One planned crash: the worker dies when it has completed exactly
/// `op_ordinal` operations (so ordinal 0 = crash before the first op).
struct FaultSpec {
  long op_ordinal = 0;
  FaultKind kind = FaultKind::kMidOpAbandon;
};

/// Deterministic crash schedule keyed by worker arrival id (the soak
/// driver's DynamicTeam never reuses arrival ids, so "worker 3" names
/// the same lease on every run). At most one fault per worker: after
/// it fires, that worker is dead.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Explicit builder form (tests): worker `worker` crashes with
  /// `kind` after `op_ordinal` completed ops.
  FaultPlan& at(int worker, long op_ordinal, FaultKind kind) {
    plan_[worker] = FaultSpec{op_ordinal, kind};
    return *this;
  }

  /// Seeded mix: `n` faults cycling through `kinds`, on distinct
  /// workers drawn from [0, max_worker), at ordinals drawn from
  /// [min_ordinal, max_ordinal]. Same seed -> same plan.
  static FaultPlan mix(std::uint64_t seed, int n, int max_worker,
                       long min_ordinal, long max_ordinal,
                       const std::vector<FaultKind>& kinds = {
                           kAllFaultKinds,
                           kAllFaultKinds + kNumFaultKinds}) {
    FaultPlan p;
    if (n <= 0 || max_worker <= 0 || kinds.empty()) return p;
    if (n > max_worker) n = max_worker;
    std::uint64_t x = seed;
    const long span = max_ordinal >= min_ordinal
                          ? max_ordinal - min_ordinal + 1
                          : 1;
    for (int i = 0; i < n; ++i) {
      // Distinct workers: draw until unused (n <= max_worker, so this
      // terminates; splitmix64 below has full 2^64 period).
      int w;
      do {
        w = static_cast<int>(splitmix64(x) %
                             static_cast<std::uint64_t>(max_worker));
      } while (p.plan_.count(w) != 0);
      const long ordinal =
          min_ordinal +
          static_cast<long>(splitmix64(x) % static_cast<std::uint64_t>(span));
      p.at(w, ordinal, kinds[static_cast<std::size_t>(i) % kinds.size()]);
    }
    return p;
  }

  /// The planned crash for this worker, or nullptr if it is
  /// well-behaved.
  const FaultSpec* find(int worker) const {
    const auto it = plan_.find(worker);
    return it == plan_.end() ? nullptr : &it->second;
  }

  std::size_t size() const { return plan_.size(); }
  bool empty() const { return plan_.empty(); }

  int count(FaultKind k) const {
    int n = 0;
    for (const auto& [w, spec] : plan_)
      if (spec.kind == k) ++n;
    return n;
  }

  const std::map<int, FaultSpec>& entries() const { return plan_; }

 private:
  // Standalone splitmix64 so this header (included by core/iset.hpp)
  // depends on nothing but the standard library.
  static std::uint64_t splitmix64(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d649bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::map<int, FaultSpec> plan_;
};

/// Per-domain blast-radius snapshot: what the crashes have cost so
/// far. Safe to sample while workers run (all counters are relaxed
/// atomics domain-side); the soak sampler records one per tick.
struct BlastStats {
  // Nodes unlinked but never retired (kRetireSkipped), attributed by
  // the domain. They stay allocated until domain teardown and are
  // *excluded* from limbo: footprint == live + limbo + leaked.
  std::size_t leaked_nodes = 0;
  // Abandoned leases not yet reaped. Each occupies a slot and, for the
  // guard-held kind under EBR, stalls the reclamation horizon.
  std::size_t crashed_slots = 0;
  // Hazard cells still published by crashed leases (HP only): each
  // quarantines at most one node per scan until the lease is reaped.
  std::size_t leaked_cells = 0;
  // Retired-not-freed nodes parked on crashed leases -- counted inside
  // limbo_nodes() but unadoptable until reap_crashed().
  std::size_t parked_limbo = 0;
  // EBR only: global epoch minus the reclamation horizon
  // (min pinned epoch). A live abandoned pin holds this at >= 1
  // forever; 0 means the horizon is current.
  std::uint64_t horizon_lag = 0;
  // Slab mode only: distinct slabs pinned live by leaked_nodes. A
  // leaked slot holds its whole 16 KiB slab out of release_empty_slabs()
  // until domain teardown -- the slab-granular cost of a node leak.
  std::size_t leaked_slabs = 0;

  /// A recovered reclaim surface: no crashed lease, no dead hazard
  /// cell, no parked limbo. Attributed leaks stay until teardown by
  /// design, so they do not count against it.
  bool clean() const {
    return crashed_slots == 0 && leaked_cells == 0 && parked_limbo == 0;
  }
};

}  // namespace pragmalist::faults
