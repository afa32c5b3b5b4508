// Deterministic unit tests for the unrolled fat-node engine
// (src/core/unrolled_family.hpp, K = 8 sorted keys per node): split
// and merge exactly at the K boundaries, duplicate rejection inside a
// fat node, ascend paging that resumes mid-node, and scan emission
// that stays strictly ascending across node splits. Single-threaded
// by design -- the node-count transitions below are only well-defined
// on a deterministic schedule; the concurrent story is covered by the
// linearizability / churn / fault tiers via the catalog ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/unrolled_family.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

// K and the derived thresholds under test (kept in sync with the
// engine's constants by the static_asserts in the family header).
constexpr int kK = 8;
constexpr int kSplitKeep = (kK + 1) / 2;       // 4 keys stay left
constexpr int kMergeCount = kK / 4;            // shrink-below trigger
constexpr int kMergeCombined = kK / 2;         // both-fit ceiling

template <typename List>
void expect_valid(const List& list) {
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
}

using ListTypes = ::testing::Types<core::UnrolledK8List,
                                   core::UnrolledK8ListEbr,
                                   core::UnrolledK8ListHp>;

template <typename List>
class UnrolledNode : public ::testing::Test {};
TYPED_TEST_SUITE(UnrolledNode, ListTypes);

TYPED_TEST(UnrolledNode, SplitAtExactlyKPlusOneKeys) {
  TypeParam list;
  auto h = list.make_handle();
  // K keys fit one fat node.
  for (long k = 0; k < kK; ++k) ASSERT_TRUE(h.add(k));
  EXPECT_EQ(list.live_node_count(), 1u);
  // Key K+1 overflows it: split-right, kSplitKeep keys stay in the
  // left node, the rest move to a fresh sibling.
  ASSERT_TRUE(h.add(kK));
  EXPECT_EQ(list.live_node_count(), 2u);
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kK + 1));
  expect_valid(list);
  // Every key is still present and ordered across the split.
  std::vector<long> expect(kK + 1);
  std::iota(expect.begin(), expect.end(), 0L);
  EXPECT_EQ(list.snapshot(), expect);
}

TYPED_TEST(UnrolledNode, SplitKeepsInsertPositionCorrect) {
  // Overflow via a key that lands in the *middle* of a full node: the
  // split merge-loop must weave it into the right half/left half at
  // the correct sorted position.
  for (long probe = 0; probe <= kK; ++probe) {
    TypeParam list;
    auto h = list.make_handle();
    std::vector<long> expect;
    for (long k = 0; k < kK; ++k) {
      const long key = 2 * k + (2 * k >= 2 * probe ? 2 : 0);
      ASSERT_TRUE(h.add(key));
      expect.push_back(key);
    }
    ASSERT_TRUE(h.add(2 * probe + 1));  // forces the split
    expect.push_back(2 * probe + 1);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(list.snapshot(), expect) << "probe " << probe;
    EXPECT_EQ(list.live_node_count(), 2u);
    expect_valid(list);
  }
}

TYPED_TEST(UnrolledNode, MergeLeftAtBoundary) {
  TypeParam list;
  auto h = list.make_handle();
  // 0..8 -> split: A{0,1,2,3} anchor 0, B{4..8} anchor 4.
  for (long k = 0; k <= kK; ++k) ASSERT_TRUE(h.add(k));
  ASSERT_EQ(list.live_node_count(), 2u);
  // Shrink B first (no merge: B has no successor to absorb).
  ASSERT_TRUE(h.remove(4));
  ASSERT_TRUE(h.remove(5));
  ASSERT_TRUE(h.remove(6));
  EXPECT_EQ(list.live_node_count(), 2u);
  // Now shrink A to kMergeCount: combined 2 + 2 = 4 <= kMergeCombined,
  // so A absorbs B and B is unlinked.
  ASSERT_TRUE(h.remove(0));
  ASSERT_TRUE(h.remove(1));
  EXPECT_EQ(list.live_node_count(), 1u);
  EXPECT_EQ(list.snapshot(), (std::vector<long>{2, 3, 7, 8}));
  expect_valid(list);
  static_assert(kMergeCount == 2 && kMergeCombined == 4,
                "scenario hand-built for K=8 thresholds");
}

TYPED_TEST(UnrolledNode, NoMergeWhenCombinedWouldOverflow) {
  TypeParam list;
  auto h = list.make_handle();
  // A{0..3}, B{4..8}: shrink A to 2 keys while B keeps 5 -- combined 7
  // exceeds kMergeCombined, so both nodes must survive.
  for (long k = 0; k <= kK; ++k) ASSERT_TRUE(h.add(k));
  ASSERT_TRUE(h.remove(0));
  ASSERT_TRUE(h.remove(1));
  EXPECT_EQ(list.live_node_count(), 2u);
  EXPECT_EQ(list.size(), 7u);
  expect_valid(list);
}

TYPED_TEST(UnrolledNode, EmptiedNodeIsUnlinked) {
  TypeParam list;
  auto h = list.make_handle();
  for (long k = 0; k <= kK; ++k) ASSERT_TRUE(h.add(k));
  ASSERT_EQ(list.live_node_count(), 2u);
  // Drain B{4..8} completely: the node marks itself empty and the
  // remover sweeps it out.
  for (long k = 4; k <= kK; ++k) ASSERT_TRUE(h.remove(k));
  EXPECT_EQ(list.live_node_count(), 1u);
  EXPECT_EQ(list.snapshot(), (std::vector<long>{0, 1, 2, 3}));
  expect_valid(list);
  // The emptied anchor is re-addable; coverage re-routes to A.
  EXPECT_TRUE(h.add(4));
  EXPECT_TRUE(h.contains(4));
}

TYPED_TEST(UnrolledNode, DuplicateRejectedInsideFatNode) {
  TypeParam list;
  auto h = list.make_handle();
  for (long k = 0; k < kK; ++k) ASSERT_TRUE(h.add(2 * k));
  ASSERT_EQ(list.live_node_count(), 1u);
  // Duplicates at the front, middle and back of one node's cells: all
  // rejected without splitting, without changing the count.
  EXPECT_FALSE(h.add(0));
  EXPECT_FALSE(h.add(2 * (kK / 2)));
  EXPECT_FALSE(h.add(2 * (kK - 1)));
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kK));
  EXPECT_EQ(list.live_node_count(), 1u);
  // And across a split boundary: both halves still reject.
  ASSERT_TRUE(h.add(1));  // forces the split
  EXPECT_FALSE(h.add(1));
  EXPECT_FALSE(h.add(2 * (kK - 1)));
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kK + 1));
  expect_valid(list);
}

TYPED_TEST(UnrolledNode, AscendPagesResumeMidNode) {
  TypeParam list;
  core::Counted<typename TypeParam::Handle> h{list.make_handle()};
  const long n = 40;  // several fat nodes
  for (long k = 0; k < n; ++k) ASSERT_TRUE(h.add(k));
  // Page through with limits that never align with node boundaries
  // (3 and 5 vs node counts of 4..8): every resume lands mid-node.
  for (const std::size_t page : {std::size_t{3}, std::size_t{5}}) {
    std::vector<long> got;
    long from = std::numeric_limits<long>::min();
    for (;;) {
      const auto chunk = h.ascend(from, page);
      got.insert(got.end(), chunk.begin(), chunk.end());
      if (chunk.size() < page) break;
      from = chunk.back() + 1;
    }
    std::vector<long> expect(n);
    std::iota(expect.begin(), expect.end(), 0L);
    EXPECT_EQ(got, expect) << "page " << page;
  }
  // A page starting strictly inside a node emits only the tail of
  // that node's cells.
  const auto tail = h.ascend(2, 2);
  EXPECT_EQ(tail, (std::vector<long>{2, 3}));
}

TYPED_TEST(UnrolledNode, ScanStrictlyAscendingAcrossSplits) {
  TypeParam list;
  core::Counted<typename TypeParam::Handle> h{list.make_handle()};
  // Insert in an order that splits repeatedly and leaves keys woven
  // across many nodes: evens first, then odds (each odd lands inside
  // an existing full-ish node).
  std::vector<long> expect;
  for (long k = 0; k < 64; k += 2) ASSERT_TRUE(h.add(k));
  for (long k = 1; k < 64; k += 2) ASSERT_TRUE(h.add(k));
  for (long k = 0; k < 64; ++k) expect.push_back(k);
  EXPECT_GE(list.live_node_count(), 8u);

  std::vector<long> got;
  long prev = std::numeric_limits<long>::min();
  const long emitted =
      h.range_scan(std::numeric_limits<long>::min(),
                   std::numeric_limits<long>::max(), [&](long k) {
                     EXPECT_GT(k, prev) << "scan emitted out of order";
                     prev = k;
                     got.push_back(k);
                   });
  EXPECT_EQ(emitted, 64);
  EXPECT_EQ(got, expect);
  // Bounded sub-range across node boundaries.
  got.clear();
  h.range_scan(13, 42, [&](long k) { got.push_back(k); });
  std::vector<long> mid;
  for (long k = 13; k <= 42; ++k) mid.push_back(k);
  EXPECT_EQ(got, mid);
  expect_valid(list);
}

TYPED_TEST(UnrolledNode, ExtremeKeysRoundTrip) {
  constexpr long kMin = std::numeric_limits<long>::min();
  constexpr long kMax = std::numeric_limits<long>::max();
  TypeParam list;
  core::Counted<typename TypeParam::Handle> h{list.make_handle()};
  auto scan = [&](long lo, long hi) {
    std::vector<long> got;
    h.range_scan(lo, hi, [&](long k) { got.push_back(k); });
    return got;
  };
  // Alone: each extreme anchors its own fresh node (LONG_MIN shares the
  // head sentinel's anchor, LONG_MAX covers itself with no key + 1).
  for (long k : {kMax, kMin}) {
    EXPECT_FALSE(h.contains(k));
    EXPECT_TRUE(h.add(k));
    EXPECT_FALSE(h.add(k));
    EXPECT_TRUE(h.contains(k));
  }
  EXPECT_EQ(list.live_node_count(), 2u);
  EXPECT_EQ(scan(kMin, kMax), (std::vector<long>{kMin, kMax}));
  EXPECT_EQ(scan(kMin, kMin), std::vector<long>{kMin});
  EXPECT_EQ(scan(kMax, kMax), std::vector<long>{kMax});
  expect_valid(list);

  // Among ordinary keys: the LONG_MIN node fills and splits around them.
  std::vector<long> expect{kMin};
  for (long k = -20; k < 20; ++k) {
    ASSERT_TRUE(h.add(k));
    expect.push_back(k);
  }
  expect.push_back(kMax);
  EXPECT_EQ(list.snapshot(), expect);
  EXPECT_EQ(scan(kMin, kMax), expect);
  EXPECT_EQ(h.ascend(kMin, 3), (std::vector<long>{kMin, -20, -19}));
  EXPECT_EQ(h.ascend(19, 5), (std::vector<long>{19, kMax}));
  expect_valid(list);

  for (long k : {kMin, kMax}) {
    EXPECT_TRUE(h.remove(k));
    EXPECT_FALSE(h.remove(k));
    EXPECT_FALSE(h.contains(k));
  }
  EXPECT_EQ(scan(kMin, kMax).size(), 40u);
  expect_valid(list);

  // LONG_MAX inside a node anchored below it, not as its own anchor.
  TypeParam shared;
  auto g = shared.make_handle();
  ASSERT_TRUE(g.add(5));
  ASSERT_TRUE(g.add(kMax));
  EXPECT_EQ(shared.live_node_count(), 1u);
  EXPECT_TRUE(g.contains(kMax));
  EXPECT_FALSE(g.add(kMax));
  EXPECT_TRUE(g.remove(kMax));
  EXPECT_FALSE(g.contains(kMax));
  EXPECT_EQ(shared.snapshot(), std::vector<long>{5});
  expect_valid(shared);
}

}  // namespace
}  // namespace pragmalist
