// Service-mode soak driver: run a structure under a random-mix
// workload for a fixed wall-clock duration while worker threads arrive
// and depart on a schedule (src/service/schedule.hpp), sampling
// throughput, node footprint, and reclaimer limbo depth once per tick.
//
// This is the scenario the fixed-membership paper harness never
// models and the reclaimers of src/reclaim/ exist for: every arrival
// opens a fresh handle (leasing an EBR epoch slot or an HP hazard-cell
// row), every departure closes one (handing its limbo to survivors),
// and the time series shows whether memory stays bounded while that
// churn runs -- bench_soak summarizes it per cell (and prints it under
// --series), the soak stress tests assert the bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/iset.hpp"
#include "src/faults/faults.hpp"
#include "src/harness/latency.hpp"
#include "src/service/schedule.hpp"
#include "src/workload/op_mix.hpp"

namespace pragmalist::service {

struct SoakConfig {
  SoakSchedule schedule = SoakSchedule::kRamp;
  int max_threads = 4;     // schedule peak; the floor is always 1
  int ticks = 20;          // schedule steps == samples taken
  int tick_ms = 100;       // wall time per tick
  long universe = 1024;    // key range [0, universe)
  long prefill = 256;      // distinct keys inserted before the clock
  workload::OpMix mix = workload::kScalingMix;  // 25/25/50
  // Range-width distribution for scan ops (consulted when
  // mix.scan_pct > 0): a scan draws its key like any other op and
  // reads [key, key + width - 1]. Long scans are exactly what makes
  // EBR's one-pin-per-scan and HP's per-step re-anchoring diverge in
  // the limbo series.
  workload::ScanWidths scan_widths;
  std::uint64_t seed = 42;
  bool pin = false;
  // 0 = uniform keys; > 0 draws keys Zipf(theta), so a sharded set's
  // hot ranks concentrate on hot shards (shard::shard_of is a pure
  // function of the key) and the per-shard load report shows the skew.
  double zipf_theta = 0.0;
  // Record per-op latencies into per-worker histograms and report
  // per-tick tail columns + the whole-run per-class profile. Off by
  // default so latency-blind soaks cost nothing extra (two clock reads
  // per op when on).
  bool record_latency = false;
  // Crash schedule (src/faults/faults.hpp): worker arrival id ->
  // (op ordinal, fault kind). A planned worker injects its fault when
  // it has completed that many ops, then stops operating -- the thread
  // idles in the team until the schedule departs it, like a dead
  // request handler nobody has joined yet. Empty = every worker is
  // well-behaved.
  faults::FaultPlan faults;
  // Supervisor latency: a crashed lease is reaped (ISet::reap_crashed)
  // this many ticks after its fault fired, and once more at the end of
  // the run. Models the detection delay of a real service supervisor.
  int reap_delay_ticks = 2;
};

/// One per-tick observation. `ops` is the number of operations
/// completed inside this tick's window (not cumulative).
struct SoakSample {
  int tick = 0;
  double t_ms = 0.0;         // elapsed wall time at sample
  // Measured wall time of this tick's window. Ticks are paced by
  // absolute deadlines (start + (tick+1)*tick_ms), so a scheduler
  // delay stretches one window instead of drifting all later ones --
  // and per-tick throughput must be normalized by *this*, not the
  // nominal tick_ms (kops_per_sec() does).
  double dur_ms = 0.0;
  int threads = 0;           // live workers during this tick
  long ops = 0;              // ops completed in this window
  std::size_t footprint = 0;  // ISet::allocated_nodes()
  std::size_t limbo = 0;      // ISet::limbo_nodes()
  // Tail of the ops completed in this window, all classes merged,
  // microseconds (0 when record_latency is off). Derived from interval
  // histograms (cumulative merge minus previous tick's), so max is at
  // bucket resolution.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  // Blast radius at sample time (ISet::blast_stats) -- all zero on a
  // fault-free run.
  faults::BlastStats blast;

  /// Window throughput normalized by the measured duration.
  double kops_per_sec() const {
    return dur_ms > 0.0 ? static_cast<double>(ops) / dur_ms : 0.0;
  }
};

struct SoakResult {
  /// One injected crash, as it actually fired.
  struct FaultEvent {
    int worker = 0;      // arrival id
    double t_ms = 0.0;   // wall time since soak start
    faults::FaultKind kind = faults::FaultKind::kMidOpAbandon;
  };

  std::vector<SoakSample> series;
  core::OpCounters agg;  // every worker that ran, departed or not
  double ms = 0.0;       // whole soak wall time
  int arrivals = 0;      // handles opened over the run
  int peak_threads = 0;
  // Crashes injected (in firing order) and supervisor reap count. A
  // planned fault can fail to fire only if its worker never reached
  // its op ordinal before the run ended.
  std::vector<FaultEvent> fault_events;
  int reaps = 0;
  // Per-shard routed op counts, read quiescently after the last worker
  // departed; empty for unsharded ids. bench_soak prints min/max and
  // the max/min imbalance so skewed runs show their hot shards.
  std::vector<long> shard_ops;
  // Whole-run per-op-class latency profile, merged over every worker
  // that ran (departed or not). Empty when record_latency was off.
  harness::LatencyProfile latency;

  long total_ops() const { return agg.total_ops(); }
  double kops_per_sec() const {
    return ms > 0.0 ? static_cast<double>(total_ops()) / ms : 0.0;
  }
  std::size_t peak_footprint() const;
  std::size_t peak_limbo() const;
  /// Wall time of the last injected fault, or -1 when none fired.
  double last_fault_ms() const;
  /// Wall time from the last injected fault to the first sample at or
  /// after it showing a clean blast surface (BlastStats::clean); -1
  /// when no fault fired or no such sample exists (a fault inside the
  /// final reap window is recovered by the end-of-run pass, after the
  /// last sample).
  double recovery_ms() const;
};

/// Run the soak. On return all workers have departed, so the set is
/// quiescent: callers should validate() and check the population
/// ledger (prefill + adds - rems == size) like every other driver.
SoakResult run_soak(core::ISet& set, const SoakConfig& cfg);

}  // namespace pragmalist::service
