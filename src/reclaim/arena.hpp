// The paper's reclamation scheme as a policy: every published node is
// threaded onto a lock-free registry and freed only when the list dies.
// Nothing is freed (or reused) mid-run, so traversals may hold stale
// pointers, CAS never sees ABA, and cursors / back-pointer hints are
// safe with no per-access protection. The EBR and HP policies exist to
// price real mid-run reclamation against this choice.
//
//   Progress guarantee: wait-free -- track() is one lock-free push,
//     retire() and guard() are no-ops; reclamation cannot interfere
//     with operations because there is none until teardown.
//   Memory bound: none by design. The footprint is one node per
//     successful insert for the whole lifetime of the list (the churn
//     tier's ArenaContrast test measures exactly this), which is why
//     the arena is a benchmark-harness scheme and not a service-mode
//     one.
//   Engine requirements: none -- any traversal is safe as-is. This is
//     the only policy with kStableAddresses, the capability gate for
//     per-handle cursors without a hazard slot and for the doubly
//     family's back-pointer hints.
//
// Like the reclaiming policies, one Arena instance is a *domain*: a
// sharded set backs every shard with the same registry, so
// allocated_nodes() aggregates across shards for free and handles (a
// slot cache, no lease slot) are made per thread. Everything but the
// registry is the shared core (domain.hpp): the pool, the handles'
// construct/dispose, limbo_nodes() (always 0: nothing is retired) and
// blast_stats() (all-zero: nothing is ever parked or attributed).
#pragma once

#include <cstddef>

#include "src/core/list_base.hpp"
#include "src/reclaim/domain.hpp"

namespace pragmalist::reclaim {

template <typename Node>
class Arena : public Domain<Node> {
 public:
  static constexpr bool kStableAddresses = true;
  static constexpr bool kHazards = false;
  static constexpr bool kReclaims = false;

  /// Fault injection is the core's kind check and nothing else: there
  /// is no guard to leak, no departure protocol to skip, and retires
  /// already do nothing. The arena is fault-oblivious by construction
  /// -- crashed workers cost exactly what well-behaved ones do (the
  /// fault tier asserts its blast stats stay all-zero). The slot cache
  /// still drains on destruction: cached slots are clean memory, not
  /// protected state.
  class Handle : public HandleBase<Arena, Node> {
   public:
    static constexpr bool kHazards = Arena::kHazards;
    static constexpr bool kReclaims = Arena::kReclaims;

    struct Guard {};
    Guard guard() { return {}; }
    void retire(Node*) {}  // the registry frees everything at teardown

    /// A skipped retire is an ordinary remove here: the registry owns
    /// and frees every published node, so nothing may be attributed
    /// (the core would free it a second time).
    void leak(Node*) = delete;

   private:
    friend class Arena;
    explicit Handle(Arena* d) : HandleBase<Arena, Node>(d, -1) {}
  };

  explicit Arena(alloc::Mode mode = alloc::Mode::kHeap)
      : Domain<Node>(mode) {}

  /// Free every tracked node through the pool *before* the members
  /// destruct (the registry's own destructor would `delete` them).
  ~Arena() {
    registry_.free_all([this](Node* n) { this->destroy(n); });
  }

  Handle make_handle() { return Handle(this); }

  void track(Node* n) { registry_.track(n); }

  std::size_t live_nodes() const { return registry_.count(); }

  /// Nothing to reap: nothing is ever retired into limbo, and a
  /// crashed handle holds no state (see Handle).
  std::size_t reap_crashed() { return 0; }

 private:
  core::AllocRegistry<Node> registry_;
};

}  // namespace pragmalist::reclaim
