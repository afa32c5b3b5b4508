// The two workload drivers behind every paper table and figure:
//
//   run_deterministic -- the worst-case benchmark: every thread adds
//     its n scheduled keys, then removes them (same or disjoint key
//     schedules). Always drains the set.
//   run_random_mix    -- prefill f keys, then p threads each run c
//     operations drawn from an OpMix over a key universe, uniform or
//     zipfian.
//
// Both create one handle per worker via ISet::make_handle() and
// aggregate the handles' OpCounters into the RunResult.
#pragma once

#include <cstdint>

#include "src/core/iset.hpp"
#include "src/harness/latency.hpp"
#include "src/workload/op_mix.hpp"
#include "src/workload/schedule.hpp"

namespace pragmalist::harness {

struct RunResult {
  double ms = 0.0;
  long total_ops = 0;
  core::OpCounters agg;

  /// Thousands of operations per second (ops per millisecond).
  double kops_per_sec() const {
    return ms > 0.0 ? static_cast<double>(total_ops) / ms : 0.0;
  }
};

/// Key distribution selector for run_random_mix.
struct KeyDist {
  enum class Kind { kUniform, kZipf };
  Kind kind = Kind::kUniform;
  double theta = 0.0;

  static KeyDist uniform() { return {}; }
  static KeyDist zipf(double theta) {
    return {Kind::kZipf, theta};
  }
};

RunResult run_deterministic(core::ISet& set, int p, long n,
                            workload::KeySchedule sched, bool pin);

/// Execute one range scan with the emission contract checked on every
/// key (ascending, inside [lo, hi]); aborts via PRAGMALIST_CHECK on a
/// violation. Both workload drivers (random mix and soak) issue their
/// scan ops through this, so no driver can report numbers from a
/// misbehaving scan.
long checked_range_scan(core::ISetHandle& h, long lo, long hi);

/// `widths` is the range-width distribution for scan operations (only
/// consulted when mix.scan_pct > 0): a scan op draws its key like any
/// other op and reads [key, key + width - 1]. Every scan's emission is
/// checked in-line (ascending, in range) -- a scan bug aborts the run
/// rather than producing numbers.
///
/// `lat`, when non-null, receives per-op-class latencies (observed
/// start -> completion, merged across workers). A null pointer is the
/// default and costs one predicted branch per op -- no clock reads --
/// so throughput numbers stay comparable with pre-latency runs.
RunResult run_random_mix(core::ISet& set, int p, long c, long prefill,
                         long universe, workload::OpMix mix,
                         std::uint64_t seed, bool pin,
                         KeyDist dist = KeyDist::uniform(),
                         workload::ScanWidths widths = {},
                         LatencyProfile* lat = nullptr);

/// Fixed-rate (coordinated-omission-aware) mix driver behind
/// bench_grid --rate: each of the p workers issues its ops on an
/// absolute schedule of `rate` intended starts per second and records
/// completion - *intended* start into `lat`, so a stall charges its
/// full duration to the stalled op and the queueing delay to every op
/// scheduled behind it (a free-running loop silently omits exactly
/// those samples). `behind`, when non-null, receives the total number
/// of ops that started a full period or more late. RunResult.ms is the
/// usual run_team window, which here includes pacing sleeps -- kops/s
/// reports the *offered* rate, the latency profile carries the story.
RunResult run_fixed_rate(core::ISet& set, int p, long c, long prefill,
                         long universe, workload::OpMix mix,
                         std::uint64_t seed, bool pin, double rate,
                         LatencyProfile& lat, long* behind = nullptr,
                         KeyDist dist = KeyDist::uniform(),
                         workload::ScanWidths widths = {});

}  // namespace pragmalist::harness
