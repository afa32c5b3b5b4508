// core::walk on its own, over a toy node and each reclaim domain
// (arena, EBR, HP): the adjacency a mutating walk returns, the one-CAS
// sweep of a dead run and the exact bounds its hook sees, a read-only
// walk that leaves the chain alone, draconic one-node unlinks, the
// dead-start hook, and a restart counter that stays at zero on a walk
// nobody disturbs. Single-threaded: a lost position needs a racing
// writer, which the engines' stress and linearizability tiers supply.
#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/hint_index.hpp"
#include "src/core/list_base.hpp"
#include "src/reclaim/reclaim.hpp"

namespace pragmalist {
namespace {

using core::Backoff;
using core::Traversal;

struct ToyNode {
  explicit ToyNode(long k) : key(k) {}
  long key;
  core::MarkPtr<ToyNode> next;
  ToyNode* reg_next = nullptr;
};

using Swept = std::tuple<ToyNode*, ToyNode*, ToyNode*>;  // prev, first, last

/// A chain head -> nodes, built through the domain like an engine's.
template <typename Domain>
class Walk : public ::testing::Test {
 protected:
  Walk() : head_(add_node(std::numeric_limits<long>::min())) {}

  ~Walk() override {
    if constexpr (Domain::kReclaims) {
      // The domain owns retired nodes only; the linked chain is ours.
      for (ToyNode* n = head_; n != nullptr;) {
        ToyNode* next = n->next.load().ptr;
        domain_.destroy(n);
        n = next;
      }
    }
  }

  ToyNode* add_node(long key) {
    ToyNode* n = domain_.construct(key);
    domain_.track(n);
    return n;
  }

  /// Link head -> keys..., marking the nodes listed in `dead`.
  std::vector<ToyNode*> build(const std::vector<long>& keys,
                              const std::vector<long>& dead = {}) {
    std::vector<ToyNode*> nodes;
    ToyNode* prev = head_;
    for (long k : keys) {
      ToyNode* n = add_node(k);
      prev->next.store(n);
      nodes.push_back(n);
      prev = n;
    }
    for (ToyNode* n : nodes)
      for (long k : dead)
        if (n->key == k) n->next.fetch_or_mark();
    return nodes;
  }

  /// Every link's raw state, head first.
  std::vector<std::pair<ToyNode*, bool>> links() const {
    std::vector<std::pair<ToyNode*, bool>> out;
    for (const ToyNode* n = head_; n != nullptr;) {
      const auto v = n->next.load();
      out.emplace_back(v.ptr, v.marked);
      n = v.ptr;
    }
    return out;
  }

  /// core::walk from the head; a lost position resumes at prev. The
  /// sweep hook records each run and retires it like the engines do.
  template <Traversal kTraversal, bool kMutate>
  core::WalkPos<ToyNode> walk_to(long key, ToyNode* start = nullptr) {
    [[maybe_unused]] auto guard = rh_.guard();
    return core::walk<kTraversal, Backoff::kNone, kMutate, ToyNode>(
        rh_, key, [&] { return start != nullptr ? start : head_; },
        [&](ToyNode* dead) {
          dead_starts_.push_back(dead);
          return dead_start_ != nullptr ? dead_start_ : head_;
        },
        [](ToyNode* prev) { return prev; },
        [&](ToyNode* prev, ToyNode* first, ToyNode* last) {
          swept_.emplace_back(prev, first, last);
          core::retire_run(hints_, rh_, first, last);
        },
        &restarts_);
  }

  Domain domain_;
  typename Domain::Handle rh_ = domain_.make_handle();
  core::HintIndex<ToyNode> hints_;
  ToyNode* head_;
  ToyNode* dead_start_ = nullptr;  // on_dead_start's answer; null = head
  std::vector<ToyNode*> dead_starts_;
  std::vector<Swept> swept_;
  long restarts_ = 0;
};

using Domains =
    ::testing::Types<reclaim::Arena<ToyNode>, reclaim::Ebr<ToyNode>,
                     reclaim::Hp<ToyNode>>;
TYPED_TEST_SUITE(Walk, Domains);

TYPED_TEST(Walk, MutatingWalkEndsAdjacent) {
  const auto n = this->build({10, 20, 30});
  for (long key : {5L, 10L, 15L, 30L, 35L}) {
    SCOPED_TRACE(key);
    const auto w = this->template walk_to<Traversal::kMild, true>(key);
    const auto link = w.prev->next.load();
    EXPECT_EQ(link.ptr, w.cur);
    EXPECT_FALSE(link.marked);
    EXPECT_TRUE(w.prev == this->head_ || w.prev->key < key);
    EXPECT_TRUE(w.cur == nullptr || w.cur->key >= key);
  }
  const auto w = this->template walk_to<Traversal::kMild, true>(15);
  EXPECT_EQ(w.prev, n[0]);
  EXPECT_EQ(w.cur, n[1]);
  EXPECT_TRUE(this->swept_.empty());
}

TYPED_TEST(Walk, DeadRunIsSweptOnceWithItsExactBounds) {
  const auto n = this->build({10, 20, 30, 40}, /*dead=*/{20, 30});
  const auto w = this->template walk_to<Traversal::kMild, true>(35);
  EXPECT_EQ(w.prev, n[0]);
  EXPECT_EQ(w.cur, n[3]);
  EXPECT_EQ(n[0]->next.load().ptr, n[3]);
  ASSERT_EQ(this->swept_.size(), 1u);
  EXPECT_EQ(this->swept_[0], Swept(n[0], n[1], n[3]));
  // retire_run put exactly the two-node run into limbo.
  EXPECT_EQ(this->domain_.limbo_nodes(), TypeParam::kReclaims ? 2u : 0u);
  // The chain is clean now: a second walk sweeps nothing.
  this->template walk_to<Traversal::kMild, true>(35);
  EXPECT_EQ(this->swept_.size(), 1u);
  EXPECT_EQ(this->restarts_, 0);
}

TYPED_TEST(Walk, ReadOnlyWalkLeavesTheChainUnchanged) {
  const auto n = this->build({10, 20, 30, 40}, /*dead=*/{20, 30});
  const auto before = this->links();
  const auto w = this->template walk_to<Traversal::kMild, false>(35);
  EXPECT_EQ(w.prev, n[0]);  // the last live node passed
  EXPECT_EQ(w.cur, n[3]);   // behind the dead run, which stays
  EXPECT_EQ(this->links(), before);
  EXPECT_TRUE(this->swept_.empty());
  EXPECT_EQ(this->domain_.limbo_nodes(), 0u);
}

TYPED_TEST(Walk, DraconicUnlinksEachDeadNodeAsAOneNodeRun) {
  const auto n = this->build({10, 20, 30, 40}, /*dead=*/{20, 30});
  const auto w = this->template walk_to<Traversal::kDraconic, true>(35);
  EXPECT_EQ(w.prev, n[0]);
  EXPECT_EQ(w.cur, n[3]);
  EXPECT_EQ(n[0]->next.load().ptr, n[3]);
  EXPECT_EQ(this->swept_,
            (std::vector<Swept>{{n[0], n[1], n[2]}, {n[0], n[2], n[3]}}));
  EXPECT_EQ(this->restarts_, 0);
}

TYPED_TEST(Walk, DeadStartGoesToTheEngineHook) {
  const auto n = this->build({10, 20, 30, 40}, /*dead=*/{20});
  if constexpr (!TypeParam::kHazards) {
    // Read-only without hazards, a hook that answers with the dead
    // start itself walks on along its frozen successor chain.
    this->dead_start_ = n[1];
    const auto w = this->template walk_to<Traversal::kMild, false>(35, n[1]);
    EXPECT_EQ(this->dead_starts_, std::vector<ToyNode*>{n[1]});
    EXPECT_EQ(w.prev, n[2]);
    EXPECT_EQ(w.cur, n[3]);
    this->dead_start_ = nullptr;
    this->dead_starts_.clear();
  }
  // The start died before the walk reached it: the hook's answer (the
  // head) is where the pass begins instead.
  const auto w = this->template walk_to<Traversal::kMild, true>(25, n[1]);
  EXPECT_EQ(this->dead_starts_, std::vector<ToyNode*>{n[1]});
  EXPECT_EQ(w.prev, n[0]);
  EXPECT_EQ(w.cur, n[2]);
  EXPECT_EQ(this->swept_, (std::vector<Swept>{{n[0], n[1], n[2]}}));
  EXPECT_EQ(this->restarts_, 0);
}

TYPED_TEST(Walk, CleanWalksCountNoRestarts) {
  this->build({10, 20, 30, 40, 50}, /*dead=*/{30});
  for (long key = 0; key <= 60; key += 5) {
    this->template walk_to<Traversal::kMild, false>(key);
    this->template walk_to<Traversal::kMild, true>(key);
    this->template walk_to<Traversal::kDraconic, true>(key);
  }
  EXPECT_EQ(this->restarts_, 0);
  EXPECT_EQ(this->swept_.size(), 1u);  // the one dead node, once
}

}  // namespace
}  // namespace pragmalist
