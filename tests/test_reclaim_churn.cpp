// Sustained-churn stress for the reclamation subsystem: insert/delete
// loops long enough to force retire-list scans and epoch advances,
// with quiescent checkpoints *between* churn phases -- validate() used
// to be exercised only after clean sequential runs, so mid-churn
// integrity (marked runs, parked leftovers, reused handle slots) went
// unchecked. The footprint assertions are the point of the tier: under
// EBR and HP the number of allocated-but-unfreed nodes must stay near
// the live set no matter how long the churn runs, while the arena
// grows with every successful insert. Run under ASan/TSan in CI (label
// `sanitizer`).
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/iset.hpp"
#include "src/harness/catalog.hpp"
#include "src/harness/thread_team.hpp"
#include "src/workload/rng.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

constexpr int kThreads = 4;
constexpr long kUniverse = 64;
constexpr long kOpsPerPhase = 6000;  // per thread
constexpr int kPhases = 4;

/// Footprint ceiling after `phases_done` churn phases: the live set,
/// plus per-handle in-flight retire bags (EBR may briefly hold a few
/// multiples of its threshold while epochs catch up), plus leftovers
/// parked by the handles destroyed so far — all independent of the
/// per-phase op count, which is what "bounded" means here.
std::size_t footprint_bound(int phases_done) {
  return static_cast<std::size_t>(kUniverse) +
         static_cast<std::size_t>(phases_done) * kThreads * 400 +
         kThreads * 300;
}

/// Quiescent drain: a fresh scratch handle runs a few read-only ops so
/// its guard releases keep advancing the epoch and adopting what the
/// departed workers orphaned. Under EBR's adaptive cadence a phase may
/// end with up to a threshold's worth of young bags per handle still
/// in the orphan pool (nothing is ever freeable sooner than two epochs
/// after retirement); a couple of advances make all of it eligible, so
/// the checkpoint asserts the real invariant -- everything beyond the
/// live set is *reclaimable* within a few epochs, not that the
/// scheduler happened to drain it already.
void drain_quiescent(core::ISet& set) {
  auto h = set.make_handle();
  for (int i = 0; i < 8; ++i) h->contains(0);
}

/// One churn phase: every thread hammers a 50/45/5 add/remove/contains
/// mix over the small universe (update-heavy so retirements dominate).
core::OpCounters churn_phase(core::ISet& set, std::uint64_t seed) {
  std::vector<core::OpCounters> counters(kThreads);
  harness::run_team(
      kThreads,
      [&](int t) {
        auto h = set.make_handle();
        workload::Rng rng(workload::thread_seed(seed, t));
        for (long i = 0; i < kOpsPerPhase; ++i) {
          const long k = static_cast<long>(rng.below(kUniverse));
          const auto roll = rng.below(100);
          if (roll < 50)
            h->add(k);
          else if (roll < 95)
            h->remove(k);
          else
            h->contains(k);
        }
        counters[static_cast<std::size_t>(t)] = h->counters();
      },
      /*pin=*/false);
  core::OpCounters agg;
  for (const auto& c : counters) agg += c;
  return agg;
}

class EveryReclaimCombo : public ::testing::TestWithParam<std::string_view> {};

/// The reclaim grid plus its sharded counterpart: the footprint bound
/// must hold identically when N shards share one reclamation domain
/// (the domain-wide allocated_nodes() already aggregates every shard).
std::vector<std::string_view> reclaim_and_sharded_ids() {
  std::vector<std::string_view> ids = harness::reclaim_variant_ids();
  const auto& sharded = harness::sharded_variant_ids();
  ids.insert(ids.end(), sharded.begin(), sharded.end());
  return ids;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryReclaimCombo,
    ::testing::ValuesIn(reclaim_and_sharded_ids()),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '/') c = '_';
      return name;
    });

// The reclaiming policies must keep the node footprint bounded by
// live-set + per-handle garbage, not by the total churn volume, and
// every quiescent checkpoint mid-churn must see an intact structure.
TEST_P(EveryReclaimCombo, ChurnKeepsFootprintBoundedAndStructureValid) {
  const std::uint64_t seed = test::env_seed(1000);
  test::ReproOnFailure repro(seed);
  auto set = harness::make_set(GetParam());
  core::OpCounters agg;
  for (int phase = 0; phase < kPhases; ++phase) {
    agg += churn_phase(*set, seed + static_cast<std::uint64_t>(phase));

    // Quiescent checkpoint: all workers joined, handles destroyed.
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << "phase " << phase << ": " << err;
    ASSERT_EQ(static_cast<long>(set->size()), agg.adds - agg.rems)
        << "phase " << phase;

    // Footprint after a drain: nowhere near the cumulative churn
    // volume.
    drain_quiescent(*set);
    EXPECT_LE(set->allocated_nodes(), footprint_bound(phase + 1))
        << "phase " << phase;
  }
  // The bound had teeth: the run allocated far more than it may keep.
  EXPECT_GT(agg.adds, 2 * static_cast<long>(footprint_bound(kPhases)));
}

// The same churn under the arena must *grow* the footprint: exactly
// one tracked node per successful insert (plus the head sentinel).
// This is the contrast that proves the bounded assertion above is
// measuring reclamation and not a miscounting ledger.
TEST(ArenaContrast, ArenaFootprintGrowsWithEveryInsert) {
  const std::uint64_t seed = test::env_seed(2000);
  test::ReproOnFailure repro(seed);
  for (const std::string_view id :
       {std::string_view("singly"), std::string_view("doubly_cursor")}) {
    auto set = harness::make_set(id);
    core::OpCounters agg;
    for (int phase = 0; phase < 2; ++phase)
      agg += churn_phase(*set, seed + static_cast<std::uint64_t>(phase));
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << err;
    EXPECT_EQ(set->allocated_nodes(),
              static_cast<std::size_t>(agg.adds) + 1)
        << id;
  }
}

// Handle slots must be released and reusable: cycle far more handles
// than the domain has slots (256), each parking a little garbage.
TEST(HandleLifecycle, SlotsAreReleasedAndLeftoversParked) {
  for (const auto id : reclaim_and_sharded_ids()) {
    auto set = harness::make_set(id);
    for (int i = 0; i < 300; ++i) {
      auto h = set->make_handle();
      EXPECT_TRUE(h->add(i % kUniverse));
      EXPECT_TRUE(h->remove(i % kUniverse));
    }
    std::string err;
    EXPECT_TRUE(set->validate(&err)) << id << ": " << err;
    EXPECT_EQ(set->size(), 0u) << id;
  }
}

// The shared-domain budget, the reason the domain/handle split exists:
// 200 *concurrent* workers on an 8-shard set fit the one 256-slot
// domain because each worker leases ONE reclaim handle for all eight
// shards. Per-shard domains would need 1600 slots (or 1600 hazard-cell
// rows) and abort in make_handle.
TEST(HandleLifecycle, ShardedWorkersCostOneSlotNotOnePerShard) {
  constexpr int kWorkers = 200;  // > 256 / 8, well under 256
  const std::uint64_t seed = test::env_seed(77);
  test::ReproOnFailure repro(seed);
  for (const std::string_view id : {std::string_view("singly/ebr/sh8"),
                                    std::string_view("singly_cursor/hp/sh8")}) {
    auto set = harness::make_set(id);
    harness::run_team(
        kWorkers,
        [&](int t) {
          auto h = set->make_handle();
          workload::Rng rng(workload::thread_seed(seed, t));
          for (long i = 0; i < 200; ++i) {
            const long k = static_cast<long>(rng.below(kUniverse));
            if (rng.below(2) == 0)
              h->add(k);
            else
              h->remove(k);
          }
        },
        /*pin=*/false);
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << id << ": " << err;
    // Limbo residue is per-thread bounded, never per-thread-per-shard.
    EXPECT_LE(set->limbo_nodes(),
              static_cast<std::size_t>(kWorkers) * 400 + kUniverse)
        << id;
  }
}

// Long-running scans under churn: one thread runs continuous
// full-range range_scan() passes and another pages with ascend()
// while the remaining threads hammer insert/delete. Scans hold an
// epoch pin for their whole pass under EBR and re-anchor per step
// under HP; a reclamation bug -- a node freed while a scan can still
// reach it -- is a use-after-free the sanitizer tier (ASan/TSan re-run
// this label) catches on the spot, while the in-sink checks catch any
// ordering violation in every build. Covers the whole reclaim grid
// plus its sh4 sharded counterpart (where the scanner is the k-way
// merge over one shared domain).
TEST_P(EveryReclaimCombo, LongRunningScansNeverObserveAFreedNode) {
  const std::uint64_t seed = test::env_seed(4000);
  test::ReproOnFailure repro(seed);
  auto set = harness::make_set(GetParam());
  std::atomic<int> churners{kThreads};
  harness::run_team(
      kThreads + 2,
      [&](int t) {
        auto h = set->make_handle();
        workload::Rng rng(workload::thread_seed(seed, t));
        if (t < kThreads) {
          for (long i = 0; i < kOpsPerPhase; ++i) {
            const long k = static_cast<long>(rng.below(kUniverse));
            if (rng.below(2) == 0)
              h->add(k);
            else
              h->remove(k);
          }
          churners.fetch_sub(1, std::memory_order_release);
        } else if (t == kThreads) {
          // Full-range scanner: every emitted key must be in range and
          // strictly ascending within its pass, no matter how much was
          // retired and freed under the walk.
          long passes = 0;
          do {
            long last = std::numeric_limits<long>::min();
            h->range_scan(0, kUniverse - 1, [&](long k) {
              EXPECT_TRUE(k >= 0 && k < kUniverse && k > last)
                  << "scan emitted " << k << " after " << last;
              last = k;
            });
            ++passes;
          } while (churners.load(std::memory_order_acquire) != 0);
          EXPECT_GT(passes, 0);
        } else {
          // Pager: ascend() in small pages, restarting from the bottom
          // whenever the key space is exhausted.
          long from = 0;
          do {
            const std::vector<long> page = h->ascend(from, 8);
            long last = from - 1;
            for (const long k : page) {
              EXPECT_TRUE(k >= from && k < kUniverse && k > last)
                  << "page emitted " << k << " after " << last
                  << " (from " << from << ")";
              last = k;
            }
            from = (page.size() < 8) ? 0 : page.back() + 1;
          } while (churners.load(std::memory_order_acquire) != 0);
        }
      },
      /*pin=*/false);

  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;
  drain_quiescent(*set);
  EXPECT_LE(set->allocated_nodes(), footprint_bound(1));
}

/// The catalog rows with no reclaim domain behind them.
bool no_domain(std::string_view id) {
  return id == "coarse_lock" || id == "lazy_lock" || id == "skiplist" ||
         id == "skiplist_draconic";
}

// Regression for the satellite fix: validate() must hold at a
// quiescent checkpoint in the middle of churn for *every* catalog
// structure, not only after clean sequential runs.
class EveryVariantMidChurn
    : public ::testing::TestWithParam<std::string_view> {};

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryVariantMidChurn,
    ::testing::ValuesIn(harness::all_variant_ids()),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '/') c = '_';
      return name;
    });

TEST_P(EveryVariantMidChurn, QuiescentCheckpointSeesIntactStructure) {
  const std::uint64_t seed = test::env_seed(3000);
  test::ReproOnFailure repro(seed);
  auto set = harness::make_set(GetParam());
  core::OpCounters agg;
  for (int phase = 0; phase < 2; ++phase) {
    std::vector<core::OpCounters> counters(kThreads);
    harness::run_team(
        kThreads,
        [&](int t) {
          auto h = set->make_handle();
          workload::Rng rng(workload::thread_seed(
              seed + static_cast<std::uint64_t>(phase), t));
          for (long i = 0; i < 1500; ++i) {
            const long k = static_cast<long>(rng.below(kUniverse));
            if (rng.below(2) == 0)
              h->add(k);
            else
              h->remove(k);
          }
          counters[static_cast<std::size_t>(t)] = h->counters();
        },
        /*pin=*/false);
    for (const auto& c : counters) agg += c;

    std::string err;
    ASSERT_TRUE(set->validate(&err)) << "phase " << phase << ": " << err;
    ASSERT_EQ(static_cast<long>(set->size()), agg.adds - agg.rems);
    // Footprint floor: the churn and soak tiers bound allocated_nodes()
    // only from above, which a stats read silently answering 0 passes.
    // A domain-backed row holds its head plus one node per key (list
    // engines) or per at most 8 keys (unrolled); the rows without a
    // domain answer 0.
    if (no_domain(GetParam()))
      EXPECT_EQ(set->allocated_nodes(), 0u) << "phase " << phase;
    else
      EXPECT_GE(set->allocated_nodes(), 1 + set->size() / 8)
          << "phase " << phase;
    // Snapshot/membership coherence at the checkpoint.
    auto h = set->make_handle();
    for (const long k : set->snapshot())
      EXPECT_TRUE(h->contains(k)) << "snapshot key " << k;
  }
}

}  // namespace
}  // namespace pragmalist
