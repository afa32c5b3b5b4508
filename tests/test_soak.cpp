// Service-mode stress: the soak driver runs every <variant>/ebr|hp
// catalog id with worker threads arriving and departing mid-run, and
// the footprint / limbo-depth series must stay bounded by the live set
// plus per-handle slack -- never by the cumulative churn volume or the
// number of arrivals. Also the concurrent halves of the reclaimer
// departure protocols: HP hazard-slot re-lease and EBR orphan adoption
// while other threads keep operating (run under ASan and TSan in CI,
// label `sanitizer`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "src/core/iset.hpp"
#include "src/harness/catalog.hpp"
#include "src/harness/thread_team.hpp"
#include "src/service/soak.hpp"
#include "src/workload/rng.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

constexpr int kMaxThreads = 4;
constexpr long kUniverse = 128;

/// Quiescent footprint ceiling (all workers departed): the key
/// universe plus a bounded per-handle / orphan-pool residue.
/// Independent of tick count, op count, and number of arrivals.
std::size_t quiescent_bound() {
  return static_cast<std::size_t>(kUniverse) + (kMaxThreads + 2) * 1500;
}

/// Mid-run ceiling for sample `i` of a series. EBR's in-flight limbo
/// is proportional to the retire *rate*: a descheduled epoch-pinned
/// thread stalls the horizon for a scheduling quantum while the
/// runnable threads keep retiring, so the honest bound is "a couple of
/// tick-windows' worth of operations", not a constant. That is still
/// the property a service needs -- limbo tracks current throughput and
/// drains with it, instead of accumulating with run length -- and the
/// cumulative churn volume stays orders of magnitude above it.
std::size_t sample_bound(const std::vector<service::SoakSample>& series,
                         std::size_t i) {
  const long window = series[i].ops + (i > 0 ? series[i - 1].ops : 0);
  return quiescent_bound() + static_cast<std::size_t>(2 * window);
}

service::SoakConfig short_soak(service::SoakSchedule schedule,
                               std::uint64_t seed) {
  service::SoakConfig cfg;
  cfg.schedule = schedule;
  cfg.max_threads = kMaxThreads;
  cfg.ticks = 10;
  cfg.tick_ms = 25;
  cfg.universe = kUniverse;
  cfg.prefill = kUniverse / 4;
  cfg.seed = seed;
  cfg.pin = false;
  return cfg;
}

class EverySoakCombo : public ::testing::TestWithParam<std::string_view> {};

INSTANTIATE_TEST_SUITE_P(
    Catalog, EverySoakCombo,
    ::testing::ValuesIn(harness::reclaim_variant_ids()),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '/') c = '_';
      return name;
    });

// The acceptance bar of the service-mode subsystem: thread count
// varies mid-run on the ramp schedule and both series stay bounded.
TEST_P(EverySoakCombo, RampSoakKeepsFootprintAndLimboBounded) {
  const std::uint64_t seed = test::env_seed(7);
  test::ReproOnFailure repro(seed);
  auto set = harness::make_set(GetParam());
  const auto cfg = short_soak(service::SoakSchedule::kRamp, seed);
  const auto r = service::run_soak(*set, cfg);

  // The membership actually changed mid-run.
  int min_threads = kMaxThreads + 1, max_threads = 0;
  for (const auto& s : r.series) {
    min_threads = std::min(min_threads, s.threads);
    max_threads = std::max(max_threads, s.threads);
  }
  EXPECT_EQ(min_threads, 1);
  EXPECT_EQ(max_threads, kMaxThreads);
  // A ramp is one monotone up-phase: every worker arrives exactly
  // once (and the down-phase departs all but one of them).
  EXPECT_EQ(r.arrivals, kMaxThreads);

  // Every sample, not just the end state, respects the bound.
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    EXPECT_LE(r.series[i].footprint, sample_bound(r.series, i))
        << "tick " << r.series[i].tick;
    EXPECT_LE(r.series[i].limbo, sample_bound(r.series, i))
        << "tick " << r.series[i].tick;
  }

  // Quiescent integrity and the population ledger, as for every
  // driver.
  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;
  EXPECT_EQ(static_cast<long>(set->size()),
            cfg.prefill + r.agg.adds - r.agg.rems);
  EXPECT_LE(set->allocated_nodes(), quiescent_bound());
}

// The stragglers schedule is the worst case for departed-thread
// garbage: everyone but one worker leaves at once, and that lone
// straggler must adopt and free what the leavers retired.
TEST_P(EverySoakCombo, StragglersSoakDrainsDepartedGarbage) {
  const std::uint64_t seed = test::env_seed(7);
  test::ReproOnFailure repro(seed);
  auto set = harness::make_set(GetParam());
  const auto cfg = short_soak(service::SoakSchedule::kStragglers, seed);
  const auto r = service::run_soak(*set, cfg);

  for (std::size_t i = 0; i < r.series.size(); ++i)
    EXPECT_LE(r.series[i].footprint, sample_bound(r.series, i))
        << "tick " << r.series[i].tick;

  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;
  EXPECT_EQ(static_cast<long>(set->size()),
            cfg.prefill + r.agg.adds - r.agg.rems);
  EXPECT_LE(set->limbo_nodes(), quiescent_bound());
}

// Burst schedules spike back up after a quiet phase, so workers
// *re-arrive*: more total arrivals than the pool maximum, each new
// arrival re-leasing a slot some departed worker gave back.
TEST(BurstSoak, ReArrivalsReuseReclaimerSlots) {
  const std::uint64_t seed = test::env_seed(7);
  test::ReproOnFailure repro(seed);
  for (const std::string_view id : {std::string_view("singly_fetch_or/ebr"),
                                    std::string_view("doubly_cursor/hp")}) {
    auto set = harness::make_set(id);
    const auto cfg = short_soak(service::SoakSchedule::kBurst, seed);
    const auto r = service::run_soak(*set, cfg);
    EXPECT_GT(r.arrivals, kMaxThreads) << id;  // the second spike re-hired
    for (std::size_t i = 0; i < r.series.size(); ++i)
      EXPECT_LE(r.series[i].footprint, sample_bound(r.series, i))
          << id << " tick " << r.series[i].tick;
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << id << ": " << err;
    EXPECT_EQ(static_cast<long>(set->size()),
              cfg.prefill + r.agg.adds - r.agg.rems)
        << id;
  }
}

// recovery_ms on a hand-built series: the offset from the *last* fault
// to the first clean sample at or after it, and -1 when there is no
// fault or no clean sample follows it. Clean samples before the last
// fault and attributed leaks (which stay until teardown) do not matter.
TEST(SoakResult, RecoveryMsIsTheFirstCleanSampleAfterTheLastFault) {
  auto sample = [](double t_ms, std::size_t crashed, std::size_t parked) {
    service::SoakSample s;
    s.t_ms = t_ms;
    s.blast.crashed_slots = crashed;
    s.blast.parked_limbo = parked;
    return s;
  };
  service::SoakResult r;
  r.series = {sample(10, 0, 0), sample(20, 0, 0), sample(40, 1, 0),
              sample(50, 0, 3)};
  EXPECT_EQ(r.recovery_ms(), -1.0);  // no fault fired

  r.fault_events = {{0, 5.0, faults::FaultKind::kAbortWithGuardHeld},
                    {1, 30.0, faults::FaultKind::kDepartWithoutRelease}};
  EXPECT_EQ(r.recovery_ms(), -1.0);  // nothing clean after t = 30

  r.series.push_back(sample(65, 0, 0));
  r.series.back().blast.leaked_nodes = 1;
  r.series.push_back(sample(80, 0, 0));
  EXPECT_DOUBLE_EQ(r.recovery_ms(), 35.0);
}

// The sharded soak: dynamic membership over a hash-sharded set. The
// same footprint/limbo bounds apply verbatim because every shard
// shares ONE reclamation domain (domain-wide counters, one reclaim
// handle per worker); and the driver's quiescent per-shard ledger must
// account for every routed operation, workers and prefill alike.
TEST(ShardedSoak, RampSoakStaysBoundedAndLedgersCoverEveryOp) {
  const std::uint64_t seed = test::env_seed(7);
  test::ReproOnFailure repro(seed);
  for (const std::string_view id : {std::string_view("singly/ebr/sh8"),
                                    std::string_view("singly_cursor/hp/sh8"),
                                    std::string_view("doubly/ebr/sh4")}) {
    auto set = harness::make_set(id);
    const auto cfg = short_soak(service::SoakSchedule::kRamp, seed);
    const auto r = service::run_soak(*set, cfg);

    for (std::size_t i = 0; i < r.series.size(); ++i) {
      EXPECT_LE(r.series[i].footprint, sample_bound(r.series, i))
          << id << " tick " << r.series[i].tick;
      EXPECT_LE(r.series[i].limbo, sample_bound(r.series, i))
          << id << " tick " << r.series[i].tick;
    }

    std::string err;
    ASSERT_TRUE(set->validate(&err)) << id << ": " << err;
    EXPECT_EQ(static_cast<long>(set->size()),
              cfg.prefill + r.agg.adds - r.agg.rems)
        << id;
    EXPECT_LE(set->allocated_nodes(), quiescent_bound()) << id;

    // The driver captured the quiescent per-shard ledger: every worker
    // op plus the prefill handle's attempts, nothing lost.
    ASSERT_EQ(static_cast<int>(r.shard_ops.size()), set->shard_count())
        << id;
    long routed = 0;
    for (const long ops : r.shard_ops) routed += ops;
    EXPECT_GE(routed, r.total_ops() + cfg.prefill) << id;
  }
}

// Concurrent HP slot re-lease: a long-lived cursor-holding churner
// runs while two other threads cycle through far more handles than the
// domain has hazard slots (256), each departure orphaning retirees.
// Exercised under TSan in CI; the bound proves adoption keeps up.
TEST(ConcurrentSlotReuse, HpHandleChurnAgainstLiveCursorTraffic) {
  const std::uint64_t seed = test::env_seed(11);
  test::ReproOnFailure repro(seed);
  auto set = harness::make_set("singly_cursor/hp");
  constexpr int kCyclesPerThread = 150;  // 2 x 150 + 1 > 256 slots
  harness::run_team(
      3,
      [&](int t) {
        workload::Rng rng(workload::thread_seed(seed, t));
        if (t == 0) {
          // Long-lived handle: its persistent cursor cell must never
          // be spoofed by departing threads' slot hand-overs.
          auto h = set->make_handle();
          for (long i = 0; i < 12000; ++i) {
            const long k = static_cast<long>(rng.below(kUniverse));
            const auto roll = rng.below(100);
            if (roll < 40)
              h->add(k);
            else if (roll < 80)
              h->remove(k);
            else
              h->contains(k);
          }
        } else {
          for (int c = 0; c < kCyclesPerThread; ++c) {
            auto h = set->make_handle();
            for (long i = 0; i < 40; ++i) {
              const long k = static_cast<long>(rng.below(kUniverse));
              if (rng.below(2) == 0)
                h->add(k);
              else
                h->remove(k);
            }
          }
        }
      },
      /*pin=*/false);

  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;
  EXPECT_LE(set->allocated_nodes(), quiescent_bound());
  EXPECT_LE(set->limbo_nodes(), quiescent_bound());
}

// Concurrent EBR orphan adoption: handle churn on one side, a
// continuously collecting survivor on the other. Departures park young
// bags in the orphan pool; the survivor's guard-release passes must
// drain it, or the footprint outgrows the bound.
TEST(ConcurrentSlotReuse, EbrHandleChurnIsAdoptedByTheSurvivor) {
  const std::uint64_t seed = test::env_seed(13);
  test::ReproOnFailure repro(seed);
  for (const std::string_view id :
       {std::string_view("singly/ebr"), std::string_view("doubly/ebr")}) {
    auto set = harness::make_set(id);
    harness::run_team(
        3,
        [&](int t) {
          workload::Rng rng(workload::thread_seed(seed, t));
          if (t == 0) {
            auto h = set->make_handle();
            for (long i = 0; i < 12000; ++i) {
              const long k = static_cast<long>(rng.below(kUniverse));
              if (rng.below(2) == 0)
                h->add(k);
              else
                h->remove(k);
            }
          } else {
            for (int c = 0; c < 150; ++c) {
              auto h = set->make_handle();
              for (long i = 0; i < 40; ++i) {
                const long k = static_cast<long>(rng.below(kUniverse));
                if (rng.below(2) == 0)
                  h->add(k);
                else
                  h->remove(k);
              }
            }
          }
        },
        /*pin=*/false);

    std::string err;
    ASSERT_TRUE(set->validate(&err)) << id << ": " << err;
    EXPECT_LE(set->allocated_nodes(), quiescent_bound()) << id;
    EXPECT_LE(set->limbo_nodes(), quiescent_bound()) << id;
  }
}

}  // namespace
}  // namespace pragmalist
