// The deterministic fault tier (tier1 + `faults` labels, re-run under
// ASan and TSan in CI): crash-faulty workers against every reclaim
// policy, with hand-computed blast-radius ledgers at the domain level
// and a short fault-soak across the whole <variant>/ebr|hp grid.
//
// The taxonomy under test (src/faults/faults.hpp):
//   guard-held abort   -- EBR's horizon stalls until the lease is
//                         reaped; HP merely quarantines what the dead
//                         cells name.
//   depart-no-release  -- parked limbo is unadoptable until the reap;
//                         under HP exactly the persistent cursor cell
//                         stays published.
//   retire-skipped     -- a real leak, attributed (never in limbo) and
//                         freed only at teardown.
//   mid-op abandon     -- a marked-but-linked node only the survivors'
//                         cooperative helping ever cleans up.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/iset.hpp"
#include "src/faults/faults.hpp"
#include "src/harness/catalog.hpp"
#include "src/reclaim/ebr.hpp"
#include "src/reclaim/hp.hpp"
#include "src/service/soak.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

using faults::FaultKind;

/// Node whose destructor reports into a shared counter, so the tests
/// observe exactly when the policy frees (same shape as the reclaim
/// unit tier in test_service_schedule.cpp).
struct CountingNode {
  explicit CountingNode(std::atomic<int>* f) : freed(f) {}
  ~CountingNode() { freed->fetch_add(1, std::memory_order_relaxed); }
  std::atomic<int>* freed;
  CountingNode* reg_next = nullptr;  // for the HP orphan stack
};

// --- FaultPlan ------------------------------------------------------

TEST(FaultPlan, MixIsDeterministicAndCoversEveryKind) {
  const auto a = faults::FaultPlan::mix(/*seed=*/99, /*n=*/8,
                                        /*max_worker=*/16,
                                        /*min_ordinal=*/10,
                                        /*max_ordinal=*/500);
  const auto b = faults::FaultPlan::mix(99, 8, 16, 10, 500);
  ASSERT_EQ(a.size(), 8u);
  // Same seed, same plan: entry-for-entry identical.
  auto ib = b.entries().begin();
  for (const auto& [w, spec] : a.entries()) {
    EXPECT_EQ(w, ib->first);
    EXPECT_EQ(spec.op_ordinal, ib->second.op_ordinal);
    EXPECT_EQ(spec.kind, ib->second.kind);
    ++ib;
  }
  // Kinds cycle: 8 faults over 4 kinds = exactly 2 of each; workers
  // are distinct (map keys) in range; ordinals in range.
  for (const FaultKind k : faults::kAllFaultKinds) EXPECT_EQ(a.count(k), 2);
  for (const auto& [w, spec] : a.entries()) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 16);
    EXPECT_GE(spec.op_ordinal, 10);
    EXPECT_LE(spec.op_ordinal, 500);
  }
  // Unplanned workers are well-behaved.
  int planned = 0;
  for (int w = 0; w < 16; ++w) planned += a.find(w) != nullptr;
  EXPECT_EQ(planned, 8);
  EXPECT_EQ(a.find(16), nullptr);
}

// --- EBR blast radius (hand-computed ledgers) -----------------------

// A guard-held abort pins the dead slot at the current epoch: the
// horizon may advance at most once past the pin and then stalls, so
// nothing retired at or after the crash frees -- until reap_crashed
// unpins the lease and hands its parked limbo to the orphan pool,
// where a survivor's collect() adopts and frees it.
TEST(EbrFaults, GuardHeldStallsHorizonUntilReapThenResumes) {
  std::atomic<int> freed{0};
  reclaim::Ebr<CountingNode> d;
  auto survivor = d.make_handle();
  auto victim = d.make_handle();

  // The victim has one node of its own in limbo when it crashes.
  auto* parked = new CountingNode(&freed);
  d.track(parked);
  {
    auto g = victim.guard();
    victim.retire(parked);
  }
  victim.abandon(FaultKind::kAbortWithGuardHeld);

  // Ledger after the crash: one crashed slot, its one node parked
  // (still counted by limbo_nodes), nothing attributed as leaked.
  faults::BlastStats b = d.blast_stats();
  EXPECT_EQ(b.crashed_slots, 1u);
  EXPECT_EQ(b.parked_limbo, 1u);
  EXPECT_EQ(b.leaked_nodes, 0u);
  EXPECT_EQ(d.limbo_nodes(), 1u);

  // The survivor retires a node and collects hard: the dead pin caps
  // min_pinned_epoch, so the bag can never age two epochs and nothing
  // frees. The horizon lag is visible and persistent.
  auto* stalled = new CountingNode(&freed);
  d.track(stalled);
  {
    auto g = survivor.guard();
    survivor.retire(stalled);
  }
  for (int i = 0; i < 10; ++i) survivor.collect();
  EXPECT_EQ(freed.load(), 0);
  EXPECT_GE(d.blast_stats().horizon_lag, 1u);

  // Supervisor reap: the pin lifts, the parked node joins the orphan
  // pool, and the survivor's next collects free both nodes.
  EXPECT_EQ(d.reap_crashed(), 1u);
  b = d.blast_stats();
  EXPECT_EQ(b.crashed_slots, 0u);
  EXPECT_EQ(b.parked_limbo, 0u);
  for (int i = 0; i < 5; ++i) survivor.collect();
  EXPECT_EQ(freed.load(), 2);
  EXPECT_EQ(d.limbo_nodes(), 0u);
  EXPECT_EQ(d.reap_crashed(), 0u);  // nothing left to reap
}

// Depart-without-release does not stall the horizon (no pin), but the
// crashed lease's limbo is parked where no survivor can adopt it: only
// the reap hands it over.
TEST(EbrFaults, DepartWithoutReleaseParksLimboUnadoptable) {
  std::atomic<int> freed{0};
  reclaim::Ebr<CountingNode> d;
  auto survivor = d.make_handle();
  auto victim = d.make_handle();

  auto* parked = new CountingNode(&freed);
  d.track(parked);
  {
    auto g = victim.guard();
    victim.retire(parked);
  }
  victim.abandon(FaultKind::kDepartWithoutRelease);

  // No pin left behind: the epoch advances freely... but the parked
  // node is not in any survivor's bag or the orphan pool, so no amount
  // of collecting reaches it.
  for (int i = 0; i < 10; ++i) survivor.collect();
  EXPECT_EQ(freed.load(), 0);
  EXPECT_EQ(d.limbo_nodes(), 1u);
  EXPECT_EQ(d.blast_stats().parked_limbo, 1u);
  EXPECT_EQ(d.blast_stats().crashed_slots, 1u);

  EXPECT_EQ(d.reap_crashed(), 1u);
  for (int i = 0; i < 5; ++i) survivor.collect();
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(d.limbo_nodes(), 0u);
}

// A reaped slot is re-leasable: the crashed worker's replacement gets
// a working lease (regression guard for the slot-release ordering in
// reap_crashed).
TEST(EbrFaults, ReapedSlotCanBeReLeased) {
  reclaim::Ebr<CountingNode> d;
  std::vector<reclaim::Ebr<CountingNode>::Handle> handles;
  for (int i = 0; i < reclaim::Ebr<CountingNode>::kMaxHandles - 1; ++i)
    handles.push_back(d.make_handle());
  auto victim = d.make_handle();  // the last free slot
  victim.abandon(FaultKind::kAbortWithGuardHeld);
  EXPECT_EQ(d.reap_crashed(), 1u);
  auto replacement = d.make_handle();  // would abort if the slot leaked
  { auto g = replacement.guard(); }
}

// --- HP blast radius (hand-computed ledgers) ------------------------

// Guard-held abort under HP: every published cell of the dead lease
// keeps quarantining its node -- and *only* its node; unprotected
// retirees free as usual. This is the whole blast radius (contrast the
// EBR horizon stall above).
TEST(HpFaults, GuardHeldCellsQuarantineExactlyTheirNodes) {
  std::atomic<int> freed{0};
  reclaim::Hp<CountingNode> d;
  auto survivor = d.make_handle();
  auto victim = d.make_handle();

  auto* pinned = new CountingNode(&freed);
  auto* unpinned = new CountingNode(&freed);
  d.track(pinned);
  d.track(unpinned);
  victim.protect(0, pinned);  // mid-traversal when the crash hits
  victim.abandon(FaultKind::kAbortWithGuardHeld);

  faults::BlastStats b = d.blast_stats();
  EXPECT_EQ(b.crashed_slots, 1u);
  EXPECT_EQ(b.leaked_cells, 1u);  // exactly the one published cell
  EXPECT_EQ(b.parked_limbo, 0u);  // the victim had retired nothing

  // The survivor retires both: the dead cell saves its node from every
  // scan, the other frees immediately.
  survivor.retire(pinned);
  survivor.retire(unpinned);
  survivor.collect();
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(d.limbo_nodes(), 1u);

  // Reap clears the dead cells; the quarantined node frees on the next
  // scan.
  EXPECT_EQ(d.reap_crashed(), 1u);
  EXPECT_EQ(d.blast_stats().leaked_cells, 0u);
  survivor.collect();
  EXPECT_EQ(freed.load(), 2);
  EXPECT_EQ(d.limbo_nodes(), 0u);
}

// Depart-without-release under HP: the worker died *between*
// operations, so the traversal cells are clear but the persistent
// cursor cell (highest slot, by convention) is still published, and
// the parked retire bag is unadoptable until the reap.
TEST(HpFaults, DepartWithoutReleaseLeaksOnlyTheCursorCell) {
  constexpr int kSlots = reclaim::Hp<CountingNode>::kSlots;
  std::atomic<int> freed{0};
  reclaim::Hp<CountingNode> d;
  auto survivor = d.make_handle();
  auto victim = d.make_handle();

  auto* cursor_node = new CountingNode(&freed);
  auto* walk_node = new CountingNode(&freed);
  auto* bagged = new CountingNode(&freed);
  d.track(cursor_node);
  d.track(walk_node);
  d.track(bagged);
  victim.protect(0, walk_node);             // stale traversal cell
  victim.protect(kSlots - 1, cursor_node);  // persistent cursor cell
  victim.retire(bagged);
  victim.abandon(FaultKind::kDepartWithoutRelease);

  faults::BlastStats b = d.blast_stats();
  EXPECT_EQ(b.crashed_slots, 1u);
  EXPECT_EQ(b.leaked_cells, 1u);  // the cursor cell alone survived
  EXPECT_EQ(b.parked_limbo, 1u);  // the bagged node, still in limbo
  EXPECT_EQ(d.limbo_nodes(), 1u);

  // walk_node's cell was cleared by the crash path, so it frees; the
  // cursor node stays quarantined; the parked bag is out of reach.
  survivor.retire(cursor_node);
  survivor.retire(walk_node);
  survivor.collect();
  EXPECT_EQ(freed.load(), 1);

  EXPECT_EQ(d.reap_crashed(), 1u);
  survivor.collect();  // adopts the orphaned bag + un-quarantined node
  EXPECT_EQ(freed.load(), 3);
  EXPECT_EQ(d.limbo_nodes(), 0u);
  EXPECT_EQ(d.blast_stats().parked_limbo, 0u);
}

// --- engine-level op faults over the catalog ------------------------

// The unrolled fat-node engine packs up to 8 keys per node, so a
// faulty remove only leaks (or abandons) a *node* when it empties one.
// To put the unrolled ids through the same node-level blast shapes as
// the singly families, drain the 0..9 prefill down to {3, 5}: the
// split left A{0,1,2,3} anchored at 0 and B{4..9} anchored at 4, and
// this removal order never empties a node and never makes a merge
// eligible (one side always holds too many keys for the both-fit
// ceiling, and the tail node has no right sibling to absorb). End
// state: key 3 alone in A, key 5 alone in B -- a faulty remove of 5 is
// exactly a node-emptying remove.
bool is_unrolled(std::string_view id) {
  return id.find("unrolled") != std::string_view::npos;
}

void drain_to_singleton_nodes(core::ISetHandle& h) {
  for (const long k : {0L, 1L, 2L, 4L, 6L, 7L, 8L, 9L})
    ASSERT_TRUE(h.remove(k)) << k;
}

class EveryFaultCombo : public ::testing::TestWithParam<std::string_view> {};

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryFaultCombo,
    ::testing::ValuesIn(harness::reclaim_variant_ids()),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '/') c = '_';
      return name;
    });

// kRetireSkipped: a full remove whose retire never happened. The node
// leaves the set and the *limbo ledger never sees it* -- it is
// attributed as leaked instead, so footprint = live + limbo + leaked
// still balances (delta form below; freed at domain teardown, which
// ASan verifies).
TEST_P(EveryFaultCombo, RetireSkippedLeaksOutsideLimbo) {
  const bool unrolled = is_unrolled(GetParam());
  auto set = harness::make_set(GetParam());
  {
    auto h = set->make_handle();
    for (long k = 0; k < 10; ++k) ASSERT_TRUE(h->add(k));
    if (unrolled) drain_to_singleton_nodes(*h);
  }
  const std::size_t live_before = unrolled ? 2u : 10u;
  ASSERT_EQ(set->size(), live_before);
  const std::size_t allocated_before = set->allocated_nodes();
  const std::size_t limbo_before = set->limbo_nodes();

  auto victim = set->make_handle();
  victim->abandon(FaultKind::kRetireSkipped, 5);
  // The botched remove still counts as a remove, so the population
  // ledger balances across the crash.
  EXPECT_EQ(victim->counters().rem_calls, 1);
  EXPECT_EQ(victim->counters().rems, 1);
  victim.reset();

  EXPECT_EQ(set->size(), live_before - 1);
  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;
  EXPECT_EQ(set->allocated_nodes(), allocated_before);  // nothing freed
  EXPECT_EQ(set->limbo_nodes(), limbo_before);          // nothing retired
  EXPECT_EQ(set->blast_stats().leaked_nodes, 1u);       // ...attributed
  // Slab-leak attribution: the catalog default is slab mode, so that
  // one leaked node pins exactly one 16 KiB slab out of
  // release_empty_slabs() until domain teardown.
  EXPECT_EQ(set->blast_stats().leaked_slabs, 1u);
  {
    auto h = set->make_handle();
    EXPECT_FALSE(h->contains(5));
    EXPECT_TRUE(h->add(5));  // the key is genuinely gone, not hidden
  }
}

// kMidOpAbandon: the crash wins the marking CAS and vanishes before
// the unlink. The node is logically deleted but physically linked --
// excluded from size() and unremovable, and only the survivors'
// cooperative helping (the paper's core mechanism) ever unlinks it.
TEST_P(EveryFaultCombo, MidOpAbandonLeavesMarkedNodeForTheHelpers) {
  const bool unrolled = is_unrolled(GetParam());
  auto set = harness::make_set(GetParam());
  {
    auto h = set->make_handle();
    for (long k = 0; k < 10; ++k) ASSERT_TRUE(h->add(k));
    // For unrolled this makes the abandoned remove of 5 empty its fat
    // node, so the crash leaves a marked-but-linked *node* corpse just
    // like the singly families (a non-emptying remove would leave
    // nothing for the helpers to do).
    if (unrolled) drain_to_singleton_nodes(*h);
  }
  const std::size_t live_before = unrolled ? 2u : 10u;
  auto victim = set->make_handle();
  victim->abandon(FaultKind::kMidOpAbandon, 5);
  EXPECT_EQ(victim->counters().rems, 1);  // the marked key left the set
  victim.reset();

  EXPECT_EQ(set->size(), live_before - 1);  // marked-but-linked not live
  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;

  auto h = set->make_handle();
  EXPECT_FALSE(h->remove(5));  // already logically deleted
  EXPECT_TRUE(h->add(5));      // survivors sweep past the corpse
  EXPECT_TRUE(h->contains(5));
  EXPECT_EQ(set->size(), live_before);
  ASSERT_TRUE(set->validate(&err)) << err;
}

// --- the arena is fault-oblivious -----------------------------------

// No guard to leak, no retire to skip, no departure protocol: every
// fault costs an arena worker exactly what a clean exit does. Blast
// stats stay all-zero and there is never a lease to reap. Holds for
// the per-key and the fat-node arena engines alike.
TEST(ArenaFaults, EveryFaultKindIsFreeByConstruction) {
  for (const std::string_view id :
       {std::string_view("singly"), std::string_view("unrolled_k8")}) {
    auto set = harness::make_set(id);
    {
      auto h = set->make_handle();
      for (long k = 0; k < 10; ++k) ASSERT_TRUE(h->add(k));
    }
    long removed = 0;
    for (const FaultKind k : faults::kAllFaultKinds) {
      auto victim = set->make_handle();
      victim->abandon(k, removed);  // op-level kinds remove 0 then 1
      removed += faults::is_op_fault(k);
    }
    EXPECT_EQ(set->size(), static_cast<std::size_t>(10 - removed)) << id;
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << id << ": " << err;
    const faults::BlastStats b = set->blast_stats();
    EXPECT_EQ(b.leaked_nodes, 0u) << id;
    EXPECT_EQ(b.crashed_slots, 0u) << id;
    EXPECT_EQ(b.leaked_cells, 0u) << id;
    EXPECT_EQ(b.parked_limbo, 0u) << id;
    EXPECT_EQ(b.horizon_lag, 0u) << id;
    EXPECT_EQ(b.leaked_slabs, 0u) << id;
    EXPECT_EQ(set->reap_crashed(), 0u) << id;
  }
}

// --- the fault soak over the whole grid -----------------------------

constexpr int kMaxThreads = 4;
constexpr long kUniverse = 128;

/// End-of-run footprint ceiling with fault slack: the fault-free
/// quiescent bound of test_soak (universe + per-handle residue) plus
/// one more residue block -- the crashed leases' parked bags travel
/// through the orphan pool after the reap instead of being collected
/// by their (dead) owner, so they can linger one adoption cycle
/// longer. Still independent of op count and run length.
std::size_t faulted_quiescent_bound() {
  return static_cast<std::size_t>(kUniverse) + 2 * (kMaxThreads + 2) * 1500;
}

service::SoakConfig faulted_soak(std::uint64_t seed) {
  service::SoakConfig cfg;
  cfg.schedule = service::SoakSchedule::kSteady;  // workers 0..3 all live
  cfg.max_threads = kMaxThreads;
  cfg.ticks = 12;
  cfg.tick_ms = 25;
  cfg.universe = kUniverse;
  cfg.prefill = kUniverse / 4;
  cfg.seed = seed;
  cfg.pin = false;
  cfg.reap_delay_ticks = 1;
  // One fault of each kind, small staggered ordinals so all four fire
  // within the first ticks and recovery happens on-series.
  cfg.faults.at(0, 50, FaultKind::kAbortWithGuardHeld)
      .at(1, 100, FaultKind::kRetireSkipped)
      .at(2, 150, FaultKind::kDepartWithoutRelease)
      .at(3, 200, FaultKind::kMidOpAbandon);
  return cfg;
}

void run_fault_soak(std::string_view id, std::uint64_t seed) {
  test::ReproOnFailure repro(seed);
  auto set = harness::make_set(id);
  const auto cfg = faulted_soak(seed);
  const auto r = service::run_soak(*set, cfg);

  // Every planned fault fired, once per kind, and the two lease-level
  // crashes were reaped (the op-level kinds never crash the lease).
  ASSERT_EQ(r.fault_events.size(), 4u) << id;
  for (const FaultKind k : faults::kAllFaultKinds) {
    int fired = 0;
    for (const auto& ev : r.fault_events) fired += ev.kind == k;
    EXPECT_EQ(fired, 1) << id << ": " << faults::fault_kind_name(k);
  }
  EXPECT_EQ(r.reaps, 2) << id;

  // Quiescent integrity and the population ledger survive the
  // crashes: op-level faults were counted as removes, the mid-op
  // corpse is excluded from size(), and helping swept what it could.
  std::string err;
  ASSERT_TRUE(set->validate(&err)) << id << ": " << err;
  EXPECT_EQ(static_cast<long>(set->size()),
            cfg.prefill + r.agg.adds - r.agg.rems)
      << id;

  // Recovery happened on-series: after the last fault there is a
  // sample with no crashed lease, no parked limbo, no leaked cell.
  const double last = r.last_fault_ms();
  ASSERT_GE(last, 0.0) << id;
  bool recovered = false;
  for (const auto& s : r.series)
    recovered = recovered || (s.t_ms >= last && s.blast.clean());
  EXPECT_TRUE(recovered) << id;

  // Blast radius is bounded and fully recovered at the end: at most
  // the one retire-skipped node attributed (0 when the drawn key was
  // absent -- a leaky remove of nothing leaks nothing), nothing else
  // outstanding.
  const faults::BlastStats end = set->blast_stats();
  EXPECT_LE(end.leaked_nodes, 1u) << id;
  EXPECT_EQ(end.crashed_slots, 0u) << id;
  EXPECT_EQ(end.parked_limbo, 0u) << id;
  EXPECT_EQ(end.leaked_cells, 0u) << id;
  EXPECT_LE(set->allocated_nodes(), faulted_quiescent_bound()) << id;
  EXPECT_LE(set->limbo_nodes(), faulted_quiescent_bound()) << id;
}

TEST_P(EveryFaultCombo, FaultSoakRecoversEveryKind) {
  run_fault_soak(GetParam(), test::env_seed(7));
}

// The sharded grid shares ONE domain across shards, so a crashed
// worker's lease covers every shard it touched; the same recovery
// contract must hold through the set-level reap_crashed/blast_stats
// forwarding.
TEST(ShardedFaultSoak, FaultSoakRecoversAcrossSharedDomain) {
  for (const std::string_view id : {std::string_view("singly/ebr/sh8"),
                                    std::string_view("singly_cursor/hp/sh8"),
                                    std::string_view("doubly/ebr/sh4"),
                                    std::string_view("unrolled_k8/ebr/sh4"),
                                    std::string_view("unrolled_k8/hp/sh4")})
    run_fault_soak(id, test::env_seed(7));
}

}  // namespace
}  // namespace pragmalist
