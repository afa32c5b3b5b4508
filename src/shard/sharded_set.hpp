// Hash-sharded set: N independent lists of one engine type behind a
// single set interface. The key space is partitioned by
// shard::shard_of, so each shard is a shorter, less contended list and
// aggregate throughput scales past the single-list ceiling.
//
// The part that is *not* a trivial fan-out is reclamation. All shards
// share ONE reclamation domain (the engines' shared_ptr<Reclaim>
// constructor parameter exists for this), and every worker leases ONE
// per-thread reclaim handle which all of its per-shard engine handles
// borrow (Engine::make_handle(ReclaimHandle&)). Consequences:
//
//   * one epoch clock / hazard-slot table / registry for the whole
//     sharded set -- reclamation state is O(threads), never
//     O(threads x shards), and a 200-thread 8-shard service fits the
//     same 256-slot domain a single list does;
//   * retire ordering between shards is free: a thread's epoch pin or
//     hazard cells cover whichever shard it is currently operating on;
//   * the set exposes that one domain (domain()), and the catalog
//     adapter reads the footprint, limbo and blast-radius stats off it
//     exactly as for a single list: they already aggregate across
//     shards, so the footprint/limbo bounds of the churn and soak tiers
//     apply to the sharded set verbatim, and one reap_crashed() covers
//     every shard;
//   * under HP, the persistent cursor cell is a per-thread resource
//     shared by all shards; the engines' cursor_owner protocol
//     (reclaim/hp.hpp) keeps exactly one shard's cursor protected --
//     the hot shard keeps its locality win, the others fall back to
//     head starts.
//
// Quiescent calls (validate/size/snapshot/shard_sizes) follow the same
// contract as every engine: all worker handles closed. Per-shard op
// counts are accumulated handle-locally and folded into the set's
// atomics at handle close, so shard_ops() is also quiescent-only.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/alloc/slab.hpp"
#include "src/common/debug.hpp"
#include "src/core/iset.hpp"
#include "src/faults/faults.hpp"
#include "src/shard/shard_map.hpp"

namespace pragmalist::shard {

namespace detail {
// Engines that allocate nodes through the domain (construct/dispose)
// advertise kPoolAllocates; only those may run the shared domain in
// slab mode. Baselines that `new` their own nodes must clamp to heap,
// or the domain would try to return foreign pointers to a slab.
template <typename T, typename = void>
struct PoolAllocates : std::false_type {};
template <typename T>
struct PoolAllocates<T, std::enable_if_t<T::kPoolAllocates>>
    : std::true_type {};
}  // namespace detail

template <typename Engine>
class ShardedSet {
 public:
  using Reclaim = typename Engine::Reclaim;
  using ReclaimHandle = typename Engine::ReclaimHandle;

  class Handle {
   public:
    bool add(long key) { return handles_[set_->shard_of(key)].add(key); }
    bool remove(long key) {
      return handles_[set_->shard_of(key)].remove(key);
    }
    bool contains(long key) {
      return handles_[set_->shard_of(key)].contains(key);
    }

    // A global ordered scan over a hash partition is a k-way merge:
    // every shard holds an arbitrary subset of [lo, hi], so each shard
    // contributes an ascending cursor (paged through the engines'
    // uncounted scan_raw primitive) and the merge emits the minimum
    // across cursors. All per-shard pages run under this worker's ONE
    // borrowed reclaim handle, one page at a time -- under EBR each
    // page is one epoch pin (the merge never holds a pin across the
    // whole scan), under HP each page re-anchors per step as usual.
    // Keys are unique across shards (the partition routes each key to
    // exactly one shard), so the merge needs no duplicate handling.
    long range_scan(long lo, long hi, const core::KeySink& sink) {
      return core::counted_range_scan(*this, scan_ctr_, lo, hi, sink);
    }
    std::vector<long> ascend(long from, std::size_t limit) {
      return core::counted_ascend(*this, scan_ctr_, from, limit);
    }
    /// Uncounted merge primitive (the counted forms above delegate
    /// here, like every engine handle's scan_raw).
    long scan_raw(long from, long hi, long limit,
                  const core::KeySink& sink) {
      return merge_scan(from, hi, limit, sink);
    }

    core::OpCounters counters() const {
      // Point ops live in the per-shard engine ledgers; scans are
      // whole-set operations counted here (never per shard, which
      // would inflate scan_calls by the page fan-out).
      core::OpCounters agg = scan_ctr_;
      for (const auto& h : handles_) agg += h.counters();
      return agg;
    }

    /// Fault injection: op-level kinds route to `key`'s shard like any
    /// other op; lease-level kinds crash the ONE reclaim handle this
    /// worker leased for the whole set -- which is the point: a single
    /// crashed worker's blast radius covers every shard at once,
    /// because reclamation state is per thread, not per shard.
    void abandon(faults::FaultKind k, long key) {
      if (faults::is_op_fault(k)) {
        // The Michael list has no op-level fault path: for it an
        // op-level "crash" degrades to a clean no-op.
        if constexpr (core::HasAbandon<typename Engine::Handle>::value)
          handles_[set_->shard_of(key)].abandon(k, key);
      } else {
        rh_->abandon(k);
      }
    }

    // Default move is safe: the engine handles point at *rh_, whose
    // heap address survives the move (a moved-from handles_ is empty,
    // so the moved-from destructor folds nothing).
    Handle(Handle&&) = default;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    ~Handle() {
      // Fold the per-shard ledgers (each engine handle's own counters)
      // into the set's quiescent totals.
      for (std::size_t s = 0; s < handles_.size(); ++s)
        set_->shard_ops_[s].fetch_add(handles_[s].counters().total_ops(),
                                      std::memory_order_relaxed);
      // Members die in reverse order: the borrowing engine handles
      // first, the owned reclaim handle (departure protocol: final
      // scan/collect, orphan hand-off, slot release) last.
    }

   private:
    friend class ShardedSet;
    explicit Handle(ShardedSet* set)
        : set_(set),
          rh_(std::make_unique<ReclaimHandle>(set->domain_->make_handle())) {
      handles_.reserve(set->shards_.size());
      for (auto& engine : set->shards_)
        handles_.push_back(engine->make_handle(*rh_));
    }

    /// Keys per scan_raw page. Large enough that refills are rare on
    /// realistic widths, small enough that a page (one EBR pin) never
    /// pins the epoch for long.
    static constexpr long kScanPage = 64;

    struct ShardCursor {
      std::vector<long> page;
      std::size_t idx = 0;
      long next_from = 0;
      bool drained = false;  // shard has nothing further in range
    };

    void refill(std::size_t s, ShardCursor& c, long hi) {
      c.page.clear();
      c.idx = 0;
      handles_[s].scan_raw(c.next_from, hi, kScanPage,
                           [&](long k) { c.page.push_back(k); });
      // A short page means the shard's range is exhausted; a full page
      // ending on hi must not advance past it (hi may be LONG_MAX).
      if (c.page.size() < static_cast<std::size_t>(kScanPage) ||
          c.page.back() >= hi)
        c.drained = true;
      else
        c.next_from = c.page.back() + 1;
    }

    long merge_scan(long from, long hi, long limit,
                    const core::KeySink& sink) {
      const std::size_t n = handles_.size();
      std::vector<ShardCursor> cursors(n);
      for (std::size_t s = 0; s < n; ++s) {
        cursors[s].next_from = from;
        refill(s, cursors[s], hi);
      }
      long emitted = 0;
      while (limit < 0 || emitted < limit) {
        // Linear min across the cursor heads: shard counts are small
        // (typically <= 16), so a heap would cost more than it saves.
        std::size_t best = n;
        for (std::size_t s = 0; s < n; ++s) {
          const ShardCursor& c = cursors[s];
          if (c.idx >= c.page.size()) continue;
          if (best == n ||
              c.page[c.idx] < cursors[best].page[cursors[best].idx])
            best = s;
        }
        if (best == n) break;  // every cursor drained
        ShardCursor& c = cursors[best];
        sink(c.page[c.idx]);
        ++emitted;
        // Refill only if more output is still wanted: when the
        // limit-th key was a page's last entry, a fresh page (a whole
        // scan_raw walk, one EBR pin) would be fetched and discarded.
        if (++c.idx >= c.page.size() && !c.drained &&
            (limit < 0 || emitted < limit))
          refill(best, c, hi);
      }
      return emitted;
    }

    ShardedSet* set_;
    // Heap-held so the borrowed pointers inside the engine handles
    // survive moves of this Handle. Declared before handles_: borrowers
    // are destroyed before the handle they borrow.
    std::unique_ptr<ReclaimHandle> rh_;
    std::vector<typename Engine::Handle> handles_;
    core::OpCounters scan_ctr_;  // whole-set scan ledger (see counters)
  };

  explicit ShardedSet(int shards,
                      alloc::Mode mode = alloc::Mode::kHeap,
                      bool hints = true)
      : domain_(std::make_shared<Reclaim>(
            detail::PoolAllocates<Engine>::value ? mode
                                                 : alloc::Mode::kHeap)) {
    PRAGMALIST_CHECK(shards >= 1, "ShardedSet needs at least one shard");
    shards_.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i) {
      // Engines take a per-shard hint-index switch; baselines without
      // one (the Michael lists) only accept the shared domain. The
      // catalog rejects `/nohint` for those before we get here.
      if constexpr (std::is_constructible_v<Engine, std::shared_ptr<Reclaim>,
                                            bool>) {
        shards_.push_back(std::make_unique<Engine>(domain_, hints));
      } else {
        PRAGMALIST_CHECK(hints,
                         "this engine has no hint index to disable");
        shards_.push_back(std::make_unique<Engine>(domain_));
      }
    }
    shard_ops_ =
        std::make_unique<std::atomic<long>[]>(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i)
      shard_ops_[static_cast<std::size_t>(i)].store(
          0, std::memory_order_relaxed);
  }
  ShardedSet(const ShardedSet&) = delete;
  ShardedSet& operator=(const ShardedSet&) = delete;

  /// Safe to call concurrently from worker threads (leases a reclaim
  /// handle from the shared domain, then only reads shards_).
  Handle make_handle() { return Handle(this); }

  std::size_t shard_of(long key) const {
    return shard::shard_of(key, shards_.size());
  }

  // --- quiescent API ------------------------------------------------

  bool validate(std::string* err) const {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s]->validate(err)) {
        if (err != nullptr)
          *err = "shard " + std::to_string(s) + ": " + *err;
        return false;
      }
    }
    return true;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& engine : shards_) total += engine->size();
    return total;
  }

  /// Ascending over the whole key space: per-shard snapshots are
  /// sorted, but the hash partition interleaves them arbitrarily.
  std::vector<long> snapshot() const {
    std::vector<long> all;
    for (const auto& engine : shards_) {
      const auto part = engine->snapshot();
      all.insert(all.end(), part.begin(), part.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  /// The one domain every shard shares: its footprint, limbo,
  /// reap_crashed() and blast-radius stats already cover the whole set.
  Reclaim& domain() const { return *domain_; }

  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Operations routed to each shard (attempts, all op kinds), folded
  /// in as worker handles close.
  std::vector<long> shard_ops() const {
    std::vector<long> ops(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s)
      ops[s] = shard_ops_[s].load(std::memory_order_relaxed);
    return ops;
  }

  /// Live keys per shard.
  std::vector<std::size_t> shard_sizes() const {
    std::vector<std::size_t> sizes(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s)
      sizes[s] = shards_[s]->size();
    return sizes;
  }

 private:
  friend class Handle;

  // Declared before shards_: engines (which may free still-linked
  // nodes through their destructors) die before the domain they share.
  std::shared_ptr<Reclaim> domain_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::unique_ptr<std::atomic<long>[]> shard_ops_;
};

}  // namespace pragmalist::shard
