// Allocator tier (label `alloc`): the slab pool and thread caches that
// back every reclaim domain in slab mode. The contract under test:
//
//   * slots round-trip -- construct/destroy through the pool returns
//     the same memory to the same slab, and an empty+quiescent slab is
//     actually released back to the OS;
//   * frees are owner-correct across threads -- a slot freed by a
//     thread that never allocated it still lands on the slab that owns
//     the address (the used counter could never reach zero otherwise);
//   * a departing handle's ThreadCache drains: no slot stays stranded
//     in a dead worker's cache, so slab release is never blocked by a
//     worker that left;
//   * recycled slots stay poisoned (ASan builds) from the moment they
//     are freed until the moment they are handed out again -- the
//     tripwire that turns "a reader dereferenced a slot the reclaim
//     horizon no longer protects" into an immediate fault instead of a
//     silent read of the next owner's bytes;
//   * through a real domain, retire -> limbo -> free -> slab balances:
//     slots outstanding in the pool always equals the domain's live
//     ledger once every handle has departed.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/alloc/slab.hpp"
#include "src/core/unrolled_family.hpp"
#include "src/core/variants.hpp"
#include "src/harness/catalog.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

struct TestNode {
  long v;
  long pad[3];
  explicit TestNode(long x) : v(x), pad{0, 0, 0} {}
};

using Pool = alloc::SlabPool<TestNode>;
using Cache = alloc::ThreadCache<TestNode>;

TEST(SlabPool, SlotRoundTrip) {
  Pool pool(alloc::Mode::kSlab);
  std::vector<TestNode*> nodes;
  for (long i = 0; i < 100; ++i) nodes.push_back(pool.construct(i));
  for (long i = 0; i < 100; ++i) {
    EXPECT_EQ(nodes[static_cast<std::size_t>(i)]->v, i);
    // Every slot lives inside a slab the pool owns: its base is
    // 16 KiB-aligned and slab_of is a pure mask.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                  pool.slab_of(nodes[static_cast<std::size_t>(i)])) %
                  Pool::kSlabBytes,
              0u);
  }
  EXPECT_EQ(pool.slots_in_use(), 100u);
  for (TestNode* n : nodes) pool.destroy(n);
  EXPECT_EQ(pool.slots_in_use(), 0u);

  const auto st = pool.stats();
  EXPECT_GE(st.slot_acquires, 100u);
  EXPECT_EQ(st.slot_acquires, st.slot_releases);

  // Quiescent and empty: every slab must go back to the OS.
  const std::size_t live = pool.slab_count();
  EXPECT_GE(live, 1u);
  EXPECT_EQ(pool.release_empty_slabs(), live);
  EXPECT_EQ(pool.slab_count(), 0u);
}

TEST(SlabPool, FreedSlotsAreReusedBeforeVirginOnes) {
  Pool pool(alloc::Mode::kSlab);
  TestNode* a = pool.construct(1L);
  pool.destroy(a);
  // The refill path harvests the free list before advancing the bump
  // counter, so the very next construct gets the recycled slot back.
  TestNode* b = pool.construct(2L);
  EXPECT_EQ(static_cast<void*>(a), static_cast<void*>(b));
  pool.destroy(b);
}

TEST(SlabPool, HeapModeIsPlainNewDelete) {
  Pool pool(alloc::Mode::kHeap);
  TestNode* n = pool.construct(7L);
  EXPECT_EQ(n->v, 7);
  pool.destroy(n);
  EXPECT_EQ(pool.slab_count(), 0u);
  EXPECT_EQ(pool.stats().slot_acquires, 0u);
}

TEST(SlabPool, CrossThreadFreeReturnsToOwningSlab) {
  Pool pool(alloc::Mode::kSlab);
  // Allocate enough to span several slabs, free every node from a
  // different thread through its *own* cache. If any free missed the
  // owning slab, that slab's used counter could never reach zero and
  // the final release would leave it live.
  const std::size_t per_slab = pool.stats().slots_per_slab;
  const std::size_t n = 3 * per_slab + 5;
  std::vector<TestNode*> nodes;
  {
    Cache producer(&pool);
    for (std::size_t i = 0; i < n; ++i)
      nodes.push_back(producer.construct(static_cast<long>(i)));
  }
  EXPECT_GE(pool.slab_count(), 3u);
  std::thread t([&] {
    Cache consumer(&pool);
    for (TestNode* node : nodes) consumer.destroy(node);
    // consumer's cache drains on scope exit (departure).
  });
  t.join();
  EXPECT_EQ(pool.slots_in_use(), 0u);
  const std::size_t live = pool.slab_count();
  EXPECT_EQ(pool.release_empty_slabs(), live);
  EXPECT_EQ(pool.slab_count(), 0u);
}

TEST(ThreadCache, DrainsOnDeparture) {
  Pool pool(alloc::Mode::kSlab);
  {
    Cache cache(&pool);
    // Fill the cache: destroys park slots locally instead of going to
    // the slab, so the pool still counts them as outstanding.
    std::vector<TestNode*> nodes;
    for (long i = 0; i < 32; ++i) nodes.push_back(cache.construct(i));
    for (TestNode* n : nodes) cache.destroy(n);
    EXPECT_GT(cache.cached(), 0u);
    EXPECT_GT(pool.slots_in_use(), 0u);
    // A cached slab never qualifies as empty: the worker might hand
    // the slot out again without touching the pool.
    EXPECT_EQ(pool.release_empty_slabs(), 0u);
  }
  // Departure drained every cached slot back to its owning slab.
  EXPECT_EQ(pool.slots_in_use(), 0u);
  EXPECT_GE(pool.release_empty_slabs(), 1u);
  EXPECT_EQ(pool.slab_count(), 0u);
}

TEST(ThreadCache, MoveTransfersCachedSlots) {
  Pool pool(alloc::Mode::kSlab);
  Cache a(&pool);
  a.destroy(a.construct(1L));
  const std::size_t cached = a.cached();
  ASSERT_GT(cached, 0u);
  Cache b(std::move(a));
  EXPECT_EQ(a.cached(), 0u);
  EXPECT_EQ(b.cached(), cached);
  b.drain();
  EXPECT_EQ(pool.slots_in_use(), 0u);
}

#if defined(PRAGMALIST_ASAN)
// The allocator-lifetime tripwire. While a slot sits in a thread cache
// or on a slab free list, its bytes are poisoned -- any dereference
// through a stale pointer (a reader the reclaim horizon should still
// be protecting) faults immediately. The slot unpoisons only at the
// moment it is handed out again.
TEST(SlabPoison, RecycledSlotIsPoisonedUntilReissued) {
  Pool pool(alloc::Mode::kSlab);
  Cache cache(&pool);
  TestNode* n = cache.construct(42L);
  char* bytes = reinterpret_cast<char*>(n);
  EXPECT_FALSE(__asan_address_is_poisoned(bytes));
  cache.destroy(n);
  // Cached: the whole slot is poisoned.
  EXPECT_TRUE(__asan_address_is_poisoned(bytes));
  EXPECT_TRUE(__asan_address_is_poisoned(bytes + sizeof(TestNode) - 1));
  // Drained to the slab's free list: the intrusive link occupies the
  // first pointer, the rest stays poisoned.
  cache.drain();
  EXPECT_TRUE(__asan_address_is_poisoned(bytes + sizeof(void*)));
  // Reissued: clean again, and it is the same memory.
  TestNode* again = cache.construct(43L);
  EXPECT_EQ(static_cast<void*>(again), static_cast<void*>(n));
  EXPECT_FALSE(__asan_address_is_poisoned(bytes));
  cache.destroy(again);
}
#endif

// --- domain integration ----------------------------------------------
//
// The same ledger through a real engine + reclaim domain in slab mode:
// once every handle has departed, slots outstanding in the pool ==
// nodes the domain considers live (live keys + sentinels + limbo).
// Nothing retired ever reaches the slab before the policy frees it;
// nothing freed ever lingers in a departed worker's cache.

template <typename Engine>
void churn_and_check_ledger() {
  auto domain =
      std::make_shared<typename Engine::Reclaim>(alloc::Mode::kSlab);
  {
    Engine list(domain);
    {
      auto h = list.make_handle();
      for (long k = 0; k < 512; ++k) EXPECT_TRUE(h.add(k));
      for (long k = 0; k < 512; k += 2) EXPECT_TRUE(h.remove(k));
      for (long k = 1; k < 512; k += 2) EXPECT_TRUE(h.contains(k));
    }
    std::string err;
    EXPECT_TRUE(list.validate(&err)) << err;
    EXPECT_EQ(list.size(), 256u);
    const auto st = domain->slab_stats();
    // Handles departed: caches drained, so pool-outstanding slots are
    // exactly the domain's live ledger (live + sentinels + limbo).
    EXPECT_EQ(st.slot_acquires - st.slot_releases, domain->live_nodes());
  }
  // Engine gone; whatever limbo the domain still parks dies with it.
  domain.reset();
}

TEST(SlabDomain, ArenaLedgerBalances) {
  churn_and_check_ledger<core::SinglyList>();
}
TEST(SlabDomain, EbrLedgerBalances) {
  churn_and_check_ledger<core::SinglyListEbr>();
}
TEST(SlabDomain, HpLedgerBalances) {
  churn_and_check_ledger<core::SinglyListHp>();
}
TEST(SlabDomain, UnrolledEbrLedgerBalances) {
  churn_and_check_ledger<core::UnrolledK8ListEbr>();
}

// The catalog's mode plumbing: engine ids default to slab, `/heap` is
// the malloc twin, and `unrolled-k8` aliases to the underscore id.
TEST(SlabCatalog, ModeAndAliasParsing) {
  for (const char* id :
       {"unrolled_k8", "unrolled-k8", "unrolled_k8/ebr", "unrolled-k8/hp",
        "singly/heap", "unrolled_k8/hp/sh4/heap", "singly/ebr/sh2",
        "skiplist/heap"}) {
    auto set = harness::make_set(id);
    ASSERT_NE(set, nullptr) << id;
    EXPECT_EQ(set->name(), id);
    auto h = set->make_handle();
    EXPECT_TRUE(h->add(1));
    EXPECT_TRUE(h->contains(1));
    h.reset();
    std::string err;
    EXPECT_TRUE(set->validate(&err)) << id << ": " << err;
  }
  EXPECT_EQ(harness::make_set("unrolled_k8/hp/sh4/heap")->shard_count(), 4);
}

}  // namespace
}  // namespace pragmalist
