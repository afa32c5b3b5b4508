// Tier-1 latency-measurement tests: histogram bucket scheme and
// percentile correctness against a sorted-vector oracle, cross-thread
// merge associativity, interval subtraction, the coordinated-omission
// pacing unit, the run_team window regression (thread teardown must
// not inflate the measured window), and the driver-level recording
// ledgers (histogram counts == op-call counters, exactly).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/harness/catalog.hpp"
#include "src/harness/drivers.hpp"
#include "src/harness/latency.hpp"
#include "src/harness/thread_team.hpp"
#include "src/workload/rng.hpp"

namespace pragmalist {
namespace {

using harness::LatHistogram;
using harness::LatencyProfile;
using harness::OpClass;

// A value stream spanning the histogram's scales: uniform random
// exponent (ns to tens of ms), uniform mantissa.
std::vector<std::uint64_t> mixed_scale_values(int n, std::uint64_t seed) {
  workload::Rng rng(seed);
  std::vector<std::uint64_t> vals;
  vals.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto exp = rng.below(25);  // up to ~33M ns
    vals.push_back(1 + rng.below(1ull << (exp + 1)));
  }
  return vals;
}

TEST(LatHistogram, BucketSchemeRoundTripsAndIsMonotone) {
  // Every value maps into a bucket whose [min, max] range contains it.
  const std::vector<std::uint64_t> probes = {
      0,   1,   2,   63,   64,        65,         127,  128, 129,
      255, 256, 257, 1000, 4095,      4096,       4097, 1ull << 20,
      (1ull << 20) + 1,    (1ull << 40) - 1, 1ull << 40, ~0ull};
  int prev = -1;
  for (const auto v : probes) {
    const int i = LatHistogram::bucket_index(v);
    ASSERT_GE(i, 0) << v;
    ASSERT_LT(i, LatHistogram::kBuckets) << v;
    EXPECT_LE(LatHistogram::bucket_min(i), v) << v;
    EXPECT_GE(LatHistogram::bucket_max(i), v) << v;
    EXPECT_GE(i, prev) << "bucket index must be monotone in the value";
    prev = i;
  }
  // Below kLinear buckets are exact; above, the relative width is
  // bounded by 1/kSub.
  for (std::uint64_t v = 0; v < LatHistogram::kLinear; ++v)
    EXPECT_EQ(LatHistogram::bucket_min(LatHistogram::bucket_index(v)),
              LatHistogram::bucket_max(LatHistogram::bucket_index(v)));
  for (const auto v : {64ull, 1000ull, 123456ull, 1ull << 30}) {
    const int i = LatHistogram::bucket_index(v);
    const double width = static_cast<double>(LatHistogram::bucket_max(i) -
                                             LatHistogram::bucket_min(i) + 1);
    EXPECT_LE(width / static_cast<double>(LatHistogram::bucket_min(i)),
              1.0 / LatHistogram::kSub + 1e-12)
        << v;
  }
  // Octave boundaries land on fresh buckets (the classic off-by-one).
  EXPECT_EQ(LatHistogram::bucket_index(63), 63);
  EXPECT_EQ(LatHistogram::bucket_index(64), 64);
  EXPECT_EQ(LatHistogram::bucket_index(127),
            LatHistogram::kLinear + LatHistogram::kSub - 1);
  EXPECT_EQ(LatHistogram::bucket_index(128), LatHistogram::kLinear +
                                                 LatHistogram::kSub);
}

TEST(LatHistogram, PercentilesMatchSortedVectorOracle) {
  auto vals = mixed_scale_values(10000, 77);
  LatHistogram h;
  for (const auto v : vals) h.record(v);
  std::sort(vals.begin(), vals.end());
  ASSERT_EQ(h.count(), vals.size());
  EXPECT_EQ(h.max(), vals.back());
  for (const double q : {0.05, 0.25, 0.50, 0.90, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(vals.size())));
    const std::uint64_t oracle = vals[rank - 1];
    const std::uint64_t got = h.percentile(q);
    // The histogram reports the bucket's inclusive upper bound: never
    // below the oracle, and within one sub-bucket width above it.
    EXPECT_GE(got, oracle) << "q=" << q;
    EXPECT_LE(static_cast<double>(got),
              static_cast<double>(oracle) *
                      (1.0 + 1.0 / LatHistogram::kSub) +
                  1.0)
        << "q=" << q;
  }
  // Tails are monotone, and bounded by the exact max.
  EXPECT_LE(h.percentile(0.50), h.percentile(0.99));
  EXPECT_LE(h.percentile(0.99), h.percentile(0.999));
  EXPECT_LE(h.percentile(0.999), h.max());
  EXPECT_EQ(h.percentile(1.0), h.max());
}

TEST(LatHistogram, EmptyAndSingleValue) {
  LatHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Every quantile of a single sample is that sample (clamped by max).
  EXPECT_EQ(h.percentile(0.5), 1000u);
  EXPECT_EQ(h.percentile(0.999), 1000u);
}

TEST(LatHistogram, MergeIsAssociativeAndMatchesSingleRecorder) {
  const auto a_vals = mixed_scale_values(3000, 1);
  const auto b_vals = mixed_scale_values(4000, 2);
  const auto c_vals = mixed_scale_values(5000, 3);
  LatHistogram a, b, c, all;
  for (const auto v : a_vals) { a.record(v); all.record(v); }
  for (const auto v : b_vals) { b.record(v); all.record(v); }
  for (const auto v : c_vals) { c.record(v); all.record(v); }

  LatHistogram ab_c = a;   // (a + b) + c
  ab_c += b;
  ab_c += c;
  LatHistogram bc = b;     // a + (b + c)
  bc += c;
  LatHistogram a_bc = a;
  a_bc += bc;

  for (int i = 0; i < LatHistogram::kBuckets; ++i) {
    ASSERT_EQ(ab_c.bucket_count(i), all.bucket_count(i)) << "bucket " << i;
    ASSERT_EQ(a_bc.bucket_count(i), all.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(ab_c.count(), all.count());
  EXPECT_EQ(a_bc.count(), all.count());
  EXPECT_EQ(ab_c.max(), all.max());
  EXPECT_EQ(a_bc.max(), all.max());
  for (const double q : {0.5, 0.99, 0.999})
    EXPECT_EQ(ab_c.percentile(q), all.percentile(q)) << q;
}

TEST(LatHistogram, CrossThreadMergeMatchesSequential) {
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<LatHistogram>> parts;
  for (int t = 0; t < kThreads; ++t)
    parts.push_back(std::make_unique<LatHistogram>());
  harness::run_team(
      kThreads,
      [&](int t) {
        const auto vals =
            mixed_scale_values(2000, static_cast<std::uint64_t>(t) + 10);
        for (const auto v : vals) parts[static_cast<std::size_t>(t)]->record(v);
      },
      /*pin=*/false);
  LatHistogram merged;
  for (const auto& p : parts) merged += *p;

  LatHistogram sequential;
  for (int t = 0; t < kThreads; ++t)
    for (const auto v :
         mixed_scale_values(2000, static_cast<std::uint64_t>(t) + 10))
      sequential.record(v);
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_EQ(merged.max(), sequential.max());
  for (int i = 0; i < LatHistogram::kBuckets; ++i)
    ASSERT_EQ(merged.bucket_count(i), sequential.bucket_count(i)) << i;
}

TEST(LatHistogram, IntervalSubtractionRecoversTheWindow) {
  const auto first = mixed_scale_values(2000, 21);
  const auto second = mixed_scale_values(3000, 22);
  LatHistogram cum;
  for (const auto v : first) cum.record(v);
  const LatHistogram snap = cum;  // end-of-tick-1 snapshot
  for (const auto v : second) cum.record(v);

  LatHistogram interval = cum;
  interval -= snap;
  LatHistogram oracle;
  for (const auto v : second) oracle.record(v);
  EXPECT_EQ(interval.count(), oracle.count());
  for (int i = 0; i < LatHistogram::kBuckets; ++i)
    ASSERT_EQ(interval.bucket_count(i), oracle.bucket_count(i)) << i;
  // The interval max is bucket-resolution (the true max is not
  // recoverable from two cumulative views): within one sub-bucket.
  EXPECT_GE(interval.max(), oracle.max());
  EXPECT_LE(static_cast<double>(interval.max()),
            static_cast<double>(oracle.max()) *
                    (1.0 + 1.0 / LatHistogram::kSub) +
                1.0);
  // Subtracting everything leaves an empty histogram.
  LatHistogram none = cum;
  none -= cum;
  EXPECT_EQ(none.count(), 0u);
  EXPECT_EQ(none.max(), 0u);
}

TEST(LatencyProfile, RoutesClassesAndMerges) {
  LatencyProfile p1, p2;
  p1.of(OpClass::kAdd).record(100);
  p1.of(OpClass::kScan).record(5000);
  p2.of(OpClass::kAdd).record(200);
  p2.of(OpClass::kContains).record(50);
  p1 += p2;
  EXPECT_EQ(p1.of(OpClass::kAdd).count(), 2u);
  EXPECT_EQ(p1.of(OpClass::kRemove).count(), 0u);
  EXPECT_EQ(p1.of(OpClass::kContains).count(), 1u);
  EXPECT_EQ(p1.of(OpClass::kScan).count(), 1u);
  EXPECT_EQ(p1.total_count(), 4u);
  const LatHistogram all = p1.merged();
  EXPECT_EQ(all.count(), 4u);
  EXPECT_EQ(all.max(), 5000u);
}

// The coordinated-omission unit: with a fixed-rate schedule, a single
// stalled op must charge its stall to itself AND to every op whose
// intended start passed while it ran. An observed-start loop records
// the same scenario as one slow op and many fast ones -- the lie CO
// mode exists to avoid.
TEST(CoordinatedOmission, PacedLoopAttributesStallToQueuedOps) {
  using Clock = std::chrono::steady_clock;
  constexpr std::uint64_t kPeriodNs = 1'000'000;  // 1 ms
  constexpr long kOps = 50;
  constexpr auto kStall = std::chrono::milliseconds(80);

  LatHistogram paced;       // completion - intended start (CO-aware)
  LatHistogram observed;    // completion - observed start (the lie)
  harness::run_paced(kOps, kPeriodNs, [&](long i, Clock::time_point intended) {
    const auto begin = Clock::now();
    if (i == 0) std::this_thread::sleep_for(kStall);  // the stalled op
    const auto end = Clock::now();
    paced.record(harness::co_latency_ns(intended, end));
    observed.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count()));
  });
  ASSERT_EQ(paced.count(), static_cast<std::uint64_t>(kOps));

  // Ops 1..~49 had intended starts during the stall: their CO-aware
  // latency includes the queueing delay. Op i's intended start is at
  // i ms, the backlog drains from ~80 ms, so op i records >= ~(80-i)
  // ms; at least ops 1..40 must exceed 10 ms even under heavy CI
  // scheduling slop.
  std::uint64_t paced_over_10ms = 0, observed_over_10ms = 0;
  const std::uint64_t threshold = 10'000'000;
  for (int i = LatHistogram::bucket_index(threshold) + 1;
       i < LatHistogram::kBuckets; ++i) {
    paced_over_10ms += paced.bucket_count(i);
    observed_over_10ms += observed.bucket_count(i);
  }
  EXPECT_GE(paced_over_10ms, 30u)
      << "fixed-rate mode must charge the stall to the queued ops";
  // The observed-start view sees the stall exactly once (op 0) -- a
  // couple more only if the scheduler preempts this thread mid-loop.
  EXPECT_LE(observed_over_10ms, 5u)
      << "observed-start timing should hide the queueing delay";
  EXPECT_GE(paced.percentile(0.90), threshold);
}

// Regression for the run_team measurement window: thread teardown
// (TLS destructors, kernel exit, join skew) happens *after* the body
// returns and used to be measured, inflating short runs. A body whose
// thread exit path sleeps must not stretch the window.
struct SleepyThreadExit {
  ~SleepyThreadExit() { std::this_thread::sleep_for(std::chrono::milliseconds(150)); }
};

TEST(RunTeam, SleepingAtThreadExitDoesNotInflateTheWindow) {
  const double ms = harness::run_team(
      2,
      [](int) {
        // First touch constructs the thread_local; its destructor runs
        // at thread exit, after the body has returned and stamped its
        // completion time.
        thread_local SleepyThreadExit guard;
        (void)guard;
      },
      /*pin=*/false);
  // The body itself is microseconds; 150 ms of teardown sleep must not
  // appear. Generous bound for loaded CI machines.
  EXPECT_LT(ms, 100.0);
  EXPECT_GE(ms, 0.0);
}

TEST(RunTeam, WindowCoversTheSlowestBody) {
  const double ms = harness::run_team(
      2,
      [](int t) {
        if (t == 1) std::this_thread::sleep_for(std::chrono::milliseconds(30));
      },
      /*pin=*/false);
  EXPECT_GE(ms, 25.0) << "the window must still cover the slowest body";
}

// Driver-level ledger: when recording is on, histogram counts must
// equal the op-call counters exactly, class by class.
TEST(Drivers, RandomMixRecordsEveryOpOnce) {
  auto set = harness::make_set("singly/ebr");
  ASSERT_NE(set, nullptr);
  LatencyProfile lat;
  const workload::OpMix mix{25, 25, 40, 10};
  const auto r = harness::run_random_mix(
      *set, /*p=*/4, /*c=*/3000, /*prefill=*/200, /*universe=*/1024, mix,
      /*seed=*/7, /*pin=*/false, harness::KeyDist::uniform(),
      workload::ScanWidths{1, 32}, &lat);
  EXPECT_EQ(lat.of(OpClass::kAdd).count(),
            static_cast<std::uint64_t>(r.agg.add_calls));
  EXPECT_EQ(lat.of(OpClass::kRemove).count(),
            static_cast<std::uint64_t>(r.agg.rem_calls));
  EXPECT_EQ(lat.of(OpClass::kContains).count(),
            static_cast<std::uint64_t>(r.agg.con_calls));
  EXPECT_EQ(lat.of(OpClass::kScan).count(),
            static_cast<std::uint64_t>(r.agg.scan_calls));
  EXPECT_EQ(lat.total_count(), static_cast<std::uint64_t>(r.total_ops));
  EXPECT_GT(lat.of(OpClass::kScan).count(), 0u);
}

// The same workload with recording off must produce the identical op
// stream (the RNG draw order is recording-independent). Single worker:
// with p > 1 the success counts depend on interleaving, and this test
// is about the per-worker stream, not the race.
TEST(Drivers, RecordingDoesNotPerturbTheWorkload) {
  const workload::OpMix mix{25, 25, 40, 10};
  auto run = [&](bool record) {
    auto set = harness::make_set("singly");
    LatencyProfile lat;
    const auto r = harness::run_random_mix(
        *set, /*p=*/1, /*c=*/4000, /*prefill=*/100, /*universe=*/512, mix,
        /*seed=*/11, /*pin=*/false, harness::KeyDist::uniform(),
        workload::ScanWidths{1, 16}, record ? &lat : nullptr);
    return r.agg;
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_EQ(with.add_calls, without.add_calls);
  EXPECT_EQ(with.adds, without.adds);
  EXPECT_EQ(with.rem_calls, without.rem_calls);
  EXPECT_EQ(with.rems, without.rems);
  EXPECT_EQ(with.con_calls, without.con_calls);
  EXPECT_EQ(with.scan_calls, without.scan_calls);
  EXPECT_EQ(with.scans, without.scans);
}

// Read-path progress ledger through the driver: the hint index must
// actually fire on a contains-heavy mix (hint_hits > 0), the /nohint
// twin must never report a hit, and restarts must stay proportional to
// ops (bounded retries, per the iset.hpp progress matrix) -- the
// hazard engines revalidate anchors but never livelock.
TEST(Drivers, ReadPathProgressCountersAreBudgeted) {
  const workload::OpMix reads = workload::kReadMostlyMix;
  auto run = [&](std::string_view id) {
    auto set = harness::make_set(id);
    const auto r = harness::run_random_mix(*set, /*p=*/4, /*c=*/3000,
                                           /*prefill=*/500, /*universe=*/4096,
                                           reads, /*seed=*/17, /*pin=*/false);
    std::string err;
    EXPECT_TRUE(set->validate(&err)) << err;
    return r;
  };
  for (const std::string_view id : {"singly", "singly/ebr", "singly/hp"}) {
    const auto r = run(id);
    EXPECT_GT(r.agg.hint_hits, 0) << id;
    EXPECT_LE(r.agg.restarts, r.total_ops * 16 + 4096) << id;
  }
  const auto nohint = run("singly/ebr/nohint");
  EXPECT_EQ(nohint.agg.hint_hits, 0);
}

TEST(Drivers, FixedRateRecordsEveryOpAndReportsBacklog) {
  auto set = harness::make_set("singly/ebr");
  LatencyProfile lat;
  long behind = -1;
  const workload::OpMix mix{25, 25, 40, 10};
  const auto r = harness::run_fixed_rate(
      *set, /*p=*/2, /*c=*/500, /*prefill=*/100, /*universe=*/512, mix,
      /*seed=*/5, /*pin=*/false, /*rate=*/50000.0, lat, &behind,
      harness::KeyDist::uniform(), workload::ScanWidths{1, 16});
  EXPECT_EQ(lat.total_count(), static_cast<std::uint64_t>(r.total_ops));
  EXPECT_EQ(r.total_ops, 2 * 500);
  EXPECT_GE(behind, 0);
  // Paced at 50k ops/s/worker the run takes >= c/rate seconds.
  EXPECT_GE(r.ms, 500.0 / 50000.0 * 1000.0 * 0.5);
}

}  // namespace
}  // namespace pragmalist
