// Concurrent publish / purge / best on one HintIndex over a toy node
// pool, modelling the engines' protocol: publishers and readers cover
// a node with a per-thread guard cell before touching it (an HP
// hazard), a retirer marks a node, purges it, waits for every guard to
// let go (the hazard scan a real retire would run) and only then
// recycles it. The property under test is the one reclamation relies
// on: once purge(n) has returned and no guard still covers n, no slot
// names n -- whatever shift growth or concurrent publishes did to the
// buckets meanwhile. The second case races the purge against the
// shift growth itself: a fresh index every round, so the round's first
// publishes raise the shift while the retirer purges. Stress-labelled
// so the ASan/TSan legs run it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "src/core/hint_index.hpp"
#include "src/core/list_base.hpp"

namespace {

using pragmalist::core::HintIndex;
using pragmalist::core::MarkPtr;

struct ToyNode {
  explicit ToyNode(long k) : key(k) {}
  long key;
  MarkPtr<ToyNode> next;
};

using Index = HintIndex<ToyNode>;

TEST(HintIndexRace, NoSlotNamesANodeOncePurgedAndUnguarded) {
  constexpr int kWorkers = 3;
  // Few nodes, so publishers keep landing on the retirer's victim.
  constexpr int kNodes = 4;
  constexpr int kRounds = 20000;

  Index idx;
  std::deque<ToyNode> pool;  // stable addresses, no moves
  // Keys spread over 30 bits: the first publishes grow shift while the
  // others race, and the small keys then share bucket 0.
  for (int i = 0; i < kNodes; ++i) pool.emplace_back(1L << (10 * i));
  std::atomic<ToyNode*> guards[kWorkers] = {};
  std::atomic<bool> done{false};
  std::atomic<int> ready{0};
  std::atomic<long> hits{0};

  auto worker = [&](int t) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
    ready.fetch_add(1);
    while (!done.load(std::memory_order_acquire)) {
      ToyNode& n = pool[rng() % kNodes];
      // Publish: guard first, then observe unmarked (the caller
      // contract), then publish under the guard.
      guards[t].store(&n, std::memory_order_seq_cst);
      if (!n.next.load().marked) idx.publish(&n);
      guards[t].store(nullptr, std::memory_order_seq_cst);
      if (t != 0) continue;  // the others only publish, widening the race

      // Lookup with the HP validation handshake: protect, re-read the
      // slot, then check the candidate.
      const long target = static_cast<long>(rng() >> 1);
      ToyNode* got = idx.best(target, [&](ToyNode* c, int slot) {
        guards[t].store(c, std::memory_order_seq_cst);
        if (idx.slot_node(slot) != c) return false;
        return c->key < target && !c->next.load().marked;
      });
      if (got != nullptr) {
        hits.fetch_add(1, std::memory_order_relaxed);
        EXPECT_LT(got->key, target);
      }
      guards[t].store(nullptr, std::memory_order_seq_cst);
    }
  };

  std::vector<std::thread> team;
  for (int t = 0; t < kWorkers; ++t) team.emplace_back(worker, t);

  // Race only once every worker runs, and keep racing (up to a
  // deadline) until lookups have succeeded: on a loaded machine the
  // workers may otherwise not be scheduled before the rounds end.
  while (ready.load() < kWorkers) std::this_thread::yield();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::mt19937_64 rng(99);
  int leaks = 0;
  for (int r = 0; r < kRounds || (hits.load() == 0 &&
                                  std::chrono::steady_clock::now() < deadline);
       ++r) {
    ToyNode& n = pool[rng() % kNodes];
    n.next.fetch_or_mark();  // logical delete
    idx.purge(&n);
    for (auto& g : guards)
      while (g.load(std::memory_order_seq_cst) == &n) std::this_thread::yield();
    for (int s = 0; s < Index::kSlots; ++s)
      if (idx.slot_node(s) == &n) ++leaks;
    n.next.store(nullptr);  // "freed and reallocated": live again
  }
  done.store(true, std::memory_order_release);
  for (auto& th : team) th.join();

  EXPECT_EQ(leaks, 0) << "a slot still named a purged, unguarded node";
  EXPECT_GT(hits.load(), 0) << "the race never exercised a successful lookup";
}

TEST(HintIndexRace, PurgeRacingShiftGrowthLeavesNoSlotNamingTheNode) {
  constexpr int kWorkers = 3;
  constexpr int kNodes = 4;
  constexpr int kPublishesPerRound = 8;
  constexpr int kRounds = 3000;

  std::deque<ToyNode> pool;  // stable addresses, no moves
  // Keys 1, 2^12, 2^24, 2^36: each needs a larger shift than the last,
  // so a round's publishes grow the shift of its fresh index in steps
  // and move the small keys' buckets while the retirer purges.
  for (int i = 0; i < kNodes; ++i) pool.emplace_back(1L << (12 * i));
  std::atomic<ToyNode*> guards[kWorkers] = {};
  std::atomic<Index*> current{nullptr};
  std::atomic<int> round{0};      // the round the workers may publish in
  std::atomic<int> finished{0};   // workers done with the current round
  std::atomic<int> published{0};  // publishes made in the current round
  std::atomic<bool> done{false};

  auto worker = [&](int t) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 7);
    int seen = 0;
    for (;;) {
      int r;
      while ((r = round.load(std::memory_order_seq_cst)) == seen) {
        if (done.load(std::memory_order_acquire)) return;
        std::this_thread::yield();
      }
      seen = r;
      Index* idx = current.load(std::memory_order_seq_cst);
      for (int i = 0; i < kPublishesPerRound; ++i) {
        ToyNode& n = pool[rng() % kNodes];
        guards[t].store(&n, std::memory_order_seq_cst);
        if (!n.next.load().marked) idx->publish(&n);
        guards[t].store(nullptr, std::memory_order_seq_cst);
        published.fetch_add(1, std::memory_order_seq_cst);
      }
      finished.fetch_add(1, std::memory_order_seq_cst);
    }
  };

  std::vector<std::thread> team;
  for (int t = 0; t < kWorkers; ++t) team.emplace_back(worker, t);

  // Bounded in time as well as rounds, for the slow sanitizer legs.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::mt19937_64 rng(99);
  int leaks = 0;
  int rounds = 0;
  int published_rounds = 0;
  for (; rounds < kRounds && std::chrono::steady_clock::now() < deadline;
       ++rounds) {
    auto idx = std::make_unique<Index>();
    ToyNode& n = pool[rng() % kNodes];
    finished.store(0, std::memory_order_seq_cst);
    published.store(0, std::memory_order_seq_cst);
    current.store(idx.get(), std::memory_order_seq_cst);
    round.store(rounds + 1, std::memory_order_seq_cst);  // workers go

    // Retire n part-way through the round's publishes, so n may already
    // sit in a bucket that the publishes still to come move.
    const int after =
        static_cast<int>(rng() % (kWorkers * kPublishesPerRound / 2));
    while (published.load(std::memory_order_seq_cst) < after)
      std::this_thread::yield();
    n.next.fetch_or_mark();
    idx->purge(&n);
    for (auto& g : guards)
      while (g.load(std::memory_order_seq_cst) == &n) std::this_thread::yield();
    for (int s = 0; s < Index::kSlots; ++s)
      if (idx->slot_node(s) == &n) ++leaks;

    // Let the round end, then look again: no later publish may have
    // re-advertised the marked node either.
    while (finished.load(std::memory_order_seq_cst) < kWorkers)
      std::this_thread::yield();
    bool any = false;
    for (int s = 0; s < Index::kSlots; ++s) {
      ToyNode* at = idx->slot_node(s);
      if (at == &n) ++leaks;
      any = any || at != nullptr;
    }
    if (any) ++published_rounds;
    n.next.store(nullptr);  // "freed and reallocated": live again
  }
  done.store(true, std::memory_order_release);
  for (auto& th : team) th.join();

  EXPECT_EQ(leaks, 0) << "a slot still named a purged, unguarded node";
  EXPECT_GT(published_rounds, 0) << "no round ever published a hint";
}

}  // namespace
