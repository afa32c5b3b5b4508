#include "src/harness/drivers.hpp"

#include <limits>
#include <memory>
#include <vector>

#include "src/common/debug.hpp"
#include "src/harness/thread_team.hpp"
#include "src/workload/distributions.hpp"
#include "src/workload/rng.hpp"

namespace pragmalist::harness {
namespace {

void check_mix(long prefill, long universe, const workload::OpMix& mix,
               const workload::ScanWidths& widths) {
  PRAGMALIST_CHECK(prefill <= universe,
                   "cannot prefill more distinct keys than the universe");
  PRAGMALIST_CHECK(
      mix.add_pct >= 0 && mix.rem_pct >= 0 && mix.con_pct >= 0 &&
          mix.scan_pct >= 0 &&
          mix.add_pct + mix.rem_pct + mix.con_pct + mix.scan_pct == 100,
      "op mix percentages must be non-negative and sum to 100");
  PRAGMALIST_CHECK(widths.min_width >= 1 &&
                       widths.max_width >= widths.min_width,
                   "scan widths must satisfy 1 <= min <= max");
}

}  // namespace

void prefill_set(core::ISet& set, long prefill, long universe,
                 std::uint64_t seed) {
  auto handle = set.make_handle();
  workload::Rng rng(workload::thread_seed(seed, -1));
  long inserted = 0;
  while (inserted < prefill) {
    const auto key =
        static_cast<long>(rng.below(static_cast<std::uint64_t>(universe)));
    inserted += handle->add(key);
  }
}

OpClass execute_op(core::ISetHandle& h, workload::OpKind kind, long key,
                   long width) {
  switch (kind) {
    case workload::OpKind::kAdd:
      h.add(key);
      return OpClass::kAdd;
    case workload::OpKind::kRemove:
      h.remove(key);
      return OpClass::kRemove;
    case workload::OpKind::kContains:
      h.contains(key);
      return OpClass::kContains;
    case workload::OpKind::kScan:
      checked_range_scan(h, key, key + width - 1);
      return OpClass::kScan;
  }
  return OpClass::kContains;  // unreachable
}

long checked_range_scan(core::ISetHandle& h, long lo, long hi) {
  struct ScanState {
    long lo, hi, last;
  } s{lo, hi, std::numeric_limits<long>::min()};
  return h.range_scan(lo, hi, [&s](long k) {
    PRAGMALIST_CHECK(k >= s.lo && k <= s.hi && k > s.last,
                     "scan emitted an out-of-order or out-of-range key");
    s.last = k;
  });
}

RunResult run_deterministic(core::ISet& set, int p, long n,
                            workload::KeySchedule sched, bool pin) {
  std::vector<core::OpCounters> counters(static_cast<std::size_t>(p));
  const double ms = run_team(
      p,
      [&](int t) {
        auto handle = set.make_handle();
        for (long i = 0; i < n; ++i)
          handle->add(workload::schedule_key(sched, t, i, p));
        for (long i = 0; i < n; ++i)
          handle->remove(workload::schedule_key(sched, t, i, p));
        counters[static_cast<std::size_t>(t)] = handle->counters();
      },
      pin);

  RunResult r;
  r.ms = ms;
  for (const auto& c : counters) r.agg += c;
  r.total_ops = r.agg.total_ops();
  return r;
}

RunResult run_random_mix(core::ISet& set, int p, long c, long prefill,
                         long universe, workload::OpMix mix,
                         std::uint64_t seed, bool pin, KeyDist dist,
                         workload::ScanWidths widths, LatencyProfile* lat) {
  check_mix(prefill, universe, mix, widths);
  prefill_set(set, prefill, universe, seed);

  // The zipf generator's O(universe) setup must stay outside the timed
  // region (it would be charged to the zipf rows but not the uniform
  // ones); draws are const and stateless, so one instance is shared.
  const workload::UniformKeys uniform(static_cast<std::uint64_t>(universe));
  std::unique_ptr<const workload::ZipfKeys> zipf;
  if (dist.kind == KeyDist::Kind::kZipf)
    zipf = std::make_unique<workload::ZipfKeys>(
        static_cast<std::uint64_t>(universe), dist.theta);

  // Per-worker profiles (LatHistogram is non-movable), merged after the
  // join; only allocated when recording is on.
  std::vector<std::unique_ptr<LatencyProfile>> parts;
  if (lat)
    for (int t = 0; t < p; ++t)
      parts.push_back(std::make_unique<LatencyProfile>());

  std::vector<core::OpCounters> counters(static_cast<std::size_t>(p));
  const double ms = run_team(
      p,
      [&](int t) {
        auto handle = set.make_handle();
        workload::Rng rng(workload::thread_seed(seed, t));
        LatencyProfile* lp =
            lat ? parts[static_cast<std::size_t>(t)].get() : nullptr;
        for (long i = 0; i < c; ++i) {
          const long key = zipf ? (*zipf)(rng) : uniform(rng);
          const workload::OpKind kind = mix.pick(rng);
          // Draw the width only for scans so the pre-scan RNG streams
          // (and their golden tests) stay bit-identical.
          const long width =
              kind == workload::OpKind::kScan ? widths.pick(rng) : 1;
          if (lp) {
            const std::uint64_t t0 = lat_now_ns();
            const OpClass cls = execute_op(*handle, kind, key, width);
            lp->of(cls).record(lat_now_ns() - t0);
          } else {
            execute_op(*handle, kind, key, width);
          }
        }
        counters[static_cast<std::size_t>(t)] = handle->counters();
      },
      pin);

  if (lat)
    for (const auto& part : parts) *lat += *part;

  RunResult r;
  r.ms = ms;
  for (const auto& c2 : counters) r.agg += c2;
  r.total_ops = r.agg.total_ops();
  return r;
}

RunResult run_fixed_rate(core::ISet& set, int p, long c, long prefill,
                         long universe, workload::OpMix mix,
                         std::uint64_t seed, bool pin, double rate,
                         LatencyProfile& lat, long* behind, KeyDist dist,
                         workload::ScanWidths widths) {
  check_mix(prefill, universe, mix, widths);
  PRAGMALIST_CHECK(rate > 0.0, "fixed-rate mode needs a positive --rate");
  prefill_set(set, prefill, universe, seed);

  const workload::UniformKeys uniform(static_cast<std::uint64_t>(universe));
  std::unique_ptr<const workload::ZipfKeys> zipf;
  if (dist.kind == KeyDist::Kind::kZipf)
    zipf = std::make_unique<workload::ZipfKeys>(
        static_cast<std::uint64_t>(universe), dist.theta);

  const auto period_ns = static_cast<std::uint64_t>(1e9 / rate);
  std::vector<std::unique_ptr<LatencyProfile>> parts;
  for (int t = 0; t < p; ++t)
    parts.push_back(std::make_unique<LatencyProfile>());
  std::vector<long> behinds(static_cast<std::size_t>(p), 0);

  std::vector<core::OpCounters> counters(static_cast<std::size_t>(p));
  const double ms = run_team(
      p,
      [&](int t) {
        auto handle = set.make_handle();
        workload::Rng rng(workload::thread_seed(seed, t));
        LatencyProfile& lp = *parts[static_cast<std::size_t>(t)];
        behinds[static_cast<std::size_t>(t)] = run_paced(
            c, period_ns,
            [&](long, std::chrono::steady_clock::time_point intended) {
              const long key = zipf ? (*zipf)(rng) : uniform(rng);
              const workload::OpKind kind = mix.pick(rng);
              const long width =
                  kind == workload::OpKind::kScan ? widths.pick(rng) : 1;
              const OpClass cls = execute_op(*handle, kind, key, width);
              lp.of(cls).record(co_latency_ns(
                  intended, std::chrono::steady_clock::now()));
            });
        counters[static_cast<std::size_t>(t)] = handle->counters();
      },
      pin);

  long total_behind = 0;
  for (int t = 0; t < p; ++t) {
    lat += *parts[static_cast<std::size_t>(t)];
    total_behind += behinds[static_cast<std::size_t>(t)];
  }
  if (behind) *behind = total_behind;

  RunResult r;
  r.ms = ms;
  for (const auto& c2 : counters) r.agg += c2;
  r.total_ops = r.agg.total_ops();
  return r;
}

}  // namespace pragmalist::harness
