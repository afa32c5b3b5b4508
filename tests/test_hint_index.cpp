// HintIndex on its own, over a toy node type: the key-ordered bucket
// layout, the downward probe and its validation bound, purge after
// shift growth, key clamping at both ends, and the off-switch. Slot
// numbers are derived from Index::kSlotBits, so the cases hold for any
// bucket count of at least 16. The
// engines' use of the index is covered by every catalog suite; the
// concurrent publish/purge/best race lives in test_hint_index_race.
#include <gtest/gtest.h>

#include <climits>
#include <deque>
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
static_assert(Index::kSlots >= 16, "the cases below place keys in slot 15");

constexpr int kTop = Index::kSlots - 1;  // the last slot

/// best() with the engines' key/mark validation (or one that rejects
/// every candidate), recording the slots it was asked about, in order.
struct Probe {
  ToyNode* found = nullptr;
  std::vector<int> slots;
};

Probe probe(const Index& idx, long key, bool accept = true) {
  Probe p;
  p.found = idx.best(key, [&](ToyNode* n, int slot) {
    p.slots.push_back(slot);
    EXPECT_EQ(idx.slot_node(slot), n);
    return accept && n->key < key && !n->next.load().marked;
  });
  return p;
}

TEST(HintIndex, LookupTakesTheNearestBucketBelowTheKey) {
  Index idx;
  // The largest key below kSlots << 6 fixes shift at 6: buckets 64
  // keys wide.
  ToyNode top((long{Index::kSlots} << 6) - 1);
  ToyNode b1(100), b10(700), b15(1000);
  for (ToyNode* n : {&top, &b1, &b10, &b15}) idx.publish(n);
  EXPECT_EQ(idx.slot_node(kTop), &top);
  EXPECT_EQ(idx.slot_node(1), &b1);
  EXPECT_EQ(idx.slot_node(10), &b10);
  EXPECT_EQ(idx.slot_node(15), &b15);

  // Same bucket, routing key below the target: first probe wins.
  Probe p = probe(idx, 1010);
  EXPECT_EQ(p.found, &b15);
  EXPECT_EQ(p.slots, std::vector<int>({15}));

  // Same bucket but routing key >= target: skipped without a
  // validation, and the probe descends to the next non-empty bucket.
  p = probe(idx, 990);
  EXPECT_EQ(p.found, &b10);
  EXPECT_EQ(p.slots, std::vector<int>({10}));
  p = probe(idx, 1000);
  EXPECT_EQ(p.found, &b10);

  // Nothing below: no candidate, no validation.
  p = probe(idx, 64);
  EXPECT_EQ(p.found, nullptr);
  EXPECT_TRUE(p.slots.empty());

  // Past the largest published key: clamps to the last bucket.
  p = probe(idx, 1L << 40);
  EXPECT_EQ(p.found, &top);
  EXPECT_EQ(p.slots, std::vector<int>({kTop}));

  // A failed validation decays to the next lower bucket.
  b15.next.fetch_or_mark();
  p = probe(idx, 1010);
  EXPECT_EQ(p.found, &b10);
  EXPECT_EQ(p.slots, std::vector<int>({15, 10}));
}

TEST(HintIndex, ValidationsStayBoundedWhenEveryOneFails) {
  Index idx;
  std::deque<ToyNode> nodes;  // stable addresses, no moves
  for (int b = 0; b < Index::kSlots; ++b) nodes.emplace_back(64L * b + 1);
  // Largest first, so shift settles at 6 (buckets 64 keys wide) before
  // the rest are placed.
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) idx.publish(&*it);
  for (int b = 0; b < Index::kSlots; ++b)
    ASSERT_EQ(idx.slot_node(b), &nodes[static_cast<std::size_t>(b)]);

  const Probe p = probe(idx, LONG_MAX, /*accept=*/false);
  EXPECT_EQ(p.found, nullptr);
  ASSERT_EQ(p.slots.size(), static_cast<std::size_t>(Index::kSlots));
  // Every slot once, top-down.
  for (int i = 0; i < Index::kSlots; ++i)
    EXPECT_EQ(p.slots[static_cast<std::size_t>(i)], Index::kSlots - 1 - i);
}

TEST(HintIndex, PurgeFindsANodeWhoseBucketMovedWithShift) {
  Index idx;
  ToyNode low(40);
  idx.publish(&low);  // shift 0: slot 40
  ASSERT_EQ(idx.slot_node(40), &low);

  // Grows shift to 11: key 40 now maps to slot 0, big to the middle.
  ToyNode big(1L << (Index::kSlotBits + 10));
  idx.publish(&big);
  constexpr int kMid = Index::kSlots / 2;
  ASSERT_EQ(idx.slot_node(kMid), &big);
  EXPECT_EQ(idx.slot_node(40), &low);  // left where it was published

  idx.purge(&low);
  for (int i = 0; i < Index::kSlots; ++i) EXPECT_NE(idx.slot_node(i), &low);
  EXPECT_EQ(idx.slot_node(kMid), &big);
  EXPECT_EQ(probe(idx, 41).found, nullptr);
}

TEST(HintIndex, OnePurgeClearsEveryShiftANodeWasPublishedUnder) {
  Index idx;
  ToyNode n(kTop);  // shift 0, 3, 6: slots kTop, kTop >> 3, kTop >> 6
  const int at[] = {kTop, kTop >> 3, kTop >> 6};
  ToyNode grow3(1L << (Index::kSlotBits + 2));  // needs shift 3
  ToyNode grow6(1L << (Index::kSlotBits + 5));  // needs shift 6

  idx.publish(&n);
  idx.publish(&grow3);  // shift 0 -> 3
  idx.publish(&n);
  idx.publish(&grow6);  // shift 3 -> 6
  idx.publish(&n);
  for (int slot : at) ASSERT_EQ(idx.slot_node(slot), &n) << "slot " << slot;

  idx.purge(&n);
  for (int i = 0; i < Index::kSlots; ++i)
    EXPECT_NE(idx.slot_node(i), &n) << "slot " << i;
  EXPECT_EQ(idx.slot_node(Index::kSlots / 2), &grow6);  // others untouched
}

TEST(HintIndex, KeysAtOrBelowZeroShareSlotZero) {
  Index idx;
  ToyNode zero(0), neg(-5), min(LONG_MIN + 1);
  idx.publish(&zero);
  EXPECT_EQ(idx.slot_node(0), &zero);
  idx.publish(&neg);
  EXPECT_EQ(idx.slot_node(0), &neg);
  idx.publish(&min);
  EXPECT_EQ(idx.slot_node(0), &min);
  for (int i = 1; i < Index::kSlots; ++i)
    EXPECT_EQ(idx.slot_node(i), nullptr);

  // Negative targets probe slot 0 only; the routing key still prunes.
  Probe p = probe(idx, -10);
  EXPECT_EQ(p.found, &min);
  EXPECT_EQ(p.slots, std::vector<int>({0}));
  EXPECT_EQ(probe(idx, LONG_MIN + 1).found, nullptr);
  EXPECT_EQ(probe(idx, 1).found, &min);
}

TEST(HintIndex, KeysNearLongMaxClampToTheLastSlot) {
  Index idx;
  ToyNode near_max(LONG_MAX - 1), half(LONG_MAX / 2);
  idx.publish(&near_max);  // shift 63 - kSlotBits
  EXPECT_EQ(idx.slot_node(kTop), &near_max);
  idx.publish(&half);  // one bit narrower: the top of the lower half
  constexpr int kHalf = Index::kSlots / 2 - 1;
  EXPECT_EQ(idx.slot_node(kHalf), &half);

  Probe p = probe(idx, LONG_MAX);
  EXPECT_EQ(p.found, &near_max);
  EXPECT_EQ(p.slots, std::vector<int>({kTop}));
  p = probe(idx, LONG_MAX - 1);  // routing key == target: skip it
  EXPECT_EQ(p.found, &half);
  EXPECT_EQ(p.slots, std::vector<int>({kHalf}));
}

TEST(HintIndex, PublishingAMarkedNodeWithdrawsIt) {
  Index idx;
  ToyNode dead(500);
  dead.next.fetch_or_mark();
  idx.publish(&dead);
  for (int i = 0; i < Index::kSlots; ++i) EXPECT_EQ(idx.slot_node(i), nullptr);
}

TEST(HintIndex, DisabledIndexReturnsNothing) {
  Index idx(/*enabled=*/false);
  EXPECT_FALSE(idx.enabled());
  ToyNode n(10);
  idx.publish(&n);
  for (int i = 0; i < Index::kSlots; ++i) EXPECT_EQ(idx.slot_node(i), nullptr);
  const Probe p = probe(idx, 100);
  EXPECT_EQ(p.found, nullptr);
  EXPECT_TRUE(p.slots.empty());
}

}  // namespace
