// Type-erased concurrent ordered-set interface the harness drives. Each
// concrete structure exposes a thread-local Handle (per-thread cursor,
// hazard slots, reclamation bags) with uncounted operations; core::Counted
// wraps it with the op ledger, and the harness creates one counted
// handle per worker thread through ISet::make_handle().
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/faults/faults.hpp"

namespace pragmalist::core {

/// Per-handle operation ledger, written only by core::Counted below.
/// `adds`/`rems`/`cons` count *successful* operations (add inserted,
/// remove deleted, contains hit); the *_calls fields count attempts.
/// The random-mix conservation check (prefill + adds - rems ==
/// population) depends on the success counts. `scan_calls` counts
/// range_scan()/ascend() invocations (one per call, like the other
/// *_calls) and `scans` the keys those calls emitted. An op-level fault
/// (ISetHandle::abandon) counts as one remove attempt where the
/// structure has that path.
///
/// `hint_hits` and `restarts` are read-path progress diagnostics, not
/// operations, and are deliberately excluded from total_ops(); the
/// engines keep them on their own handles (core::ReadPath) and Counted
/// copies them in on read. hint_hits counts traversal starts taken from
/// a validated shortcut (hint index or cursor composed via
/// core::start::tighter), restarts counts lost anchors -- a traversal
/// pass abandoned and resumed (plain search sweep-CAS losses, HP anchor
/// revalidation failures). The starvation tier asserts restarts stays
/// proportional to ops -- bounded retries -- and bench_grid prints both
/// per cell.
struct OpCounters {
  long adds = 0;
  long rems = 0;
  long cons = 0;
  long scans = 0;
  long add_calls = 0;
  long rem_calls = 0;
  long con_calls = 0;
  long scan_calls = 0;
  long hint_hits = 0;
  long restarts = 0;

  long total_ops() const {
    return add_calls + rem_calls + con_calls + scan_calls;
  }

  OpCounters& operator+=(const OpCounters& o) {
    adds += o.adds;
    rems += o.rems;
    cons += o.cons;
    scans += o.scans;
    add_calls += o.add_calls;
    rem_calls += o.rem_calls;
    con_calls += o.con_calls;
    scan_calls += o.scan_calls;
    hint_hits += o.hint_hits;
    restarts += o.restarts;
    return *this;
  }
};

// --- Progress-guarantee matrix (engine x reclaimer x op) -------------
//
// What each read/write path guarantees, by construction. "CAS-free"
// means the op never issues a compare-and-swap (it can still be made
// to wait by cache traffic); "restart-free" means one forward pass,
// never abandoned; "bounded-restart" means a lost pass resumes from
// the last validated anchor (kept protected across the restart), so
// the validated key-space prefix is never re-walked; "wait-free
// lookup" refers to the hint index's candidate selection (one
// downward pass over its H buckets, <= H validations), independent of
// writers.
//
//                     arena / EBR              HP
//   contains (mild,
//     singly/doubly)  CAS-free, restart-free   CAS-free, bounded-restart
//   contains
//     (draconic)      helps unlink: CAS +      same, anchored walk
//                     restart on lost CAS
//   contains
//     (unrolled)      CAS-free; miss confirm   CAS-free walks; same
//                     may re-route (version    version re-route loop
//                     check), unbounded only
//                     under continuous resize
//   range_scan/ascend CAS-free, restart-free   CAS-free, bounded-restart
//     (singly/doubly) (one pass)               (resume past last emitted)
//   add/remove        lock-free (CAS retry); hint/cursor starts shorten
//     (all engines)   the reattempt walk, sweep losses resume from prev
//
// The arena/EBR mild `contains` column is the paper's claim made
// enforceable: the walk in ListFamily::do_contains issues no CAS and
// never loops back -- the engine exports kContainsCasFree /
// kContainsRestartFree and variants.hpp static_asserts the whole grid,
// so a regression that adds a CAS or a restart to that path fails to
// compile, not to benchmark. Hint-index lookups keep every guarantee
// above: a stale hint costs one failed validation and decays (next
// candidate, then head) -- never a retry loop.

/// Receives the keys a range scan emits, in ascending order.
using KeySink = std::function<void(long)>;

/// A thread's view of a set. Not thread-safe: exactly one thread uses a
/// given handle. Handles must not outlive their set.
///
/// Scan contract (range_scan/ascend): keys are emitted in strictly
/// ascending order while other workers mutate the set; every emitted
/// key was present, and every in-range omitted key absent, at some
/// instant during the call (per-key atomicity -- each key of the range
/// linearizes as its own atomic membership read inside the scan's
/// window; the scan linearizability tier checks exactly this). A scan
/// is *not* an atomic snapshot of the whole range: keys mutated while
/// the scan is in flight may or may not appear. Quiescently (no
/// concurrent writers) a full-range scan equals ISet::snapshot().
class ISetHandle {
 public:
  virtual ~ISetHandle() = default;
  virtual bool add(long key) = 0;
  virtual bool remove(long key) = 0;
  virtual bool contains(long key) = 0;

  /// Emit every live key in [lo, hi] (inclusive) into `sink`, ascending.
  /// Returns the number of keys emitted (0 when lo > hi).
  virtual long range_scan(long lo, long hi, const KeySink& sink) = 0;

  /// Paging form: up to `limit` live keys >= `from`, ascending (a limit
  /// past LONG_MAX is unbounded). An ascending pager resumes with from
  /// = last returned key + 1; a result shorter than `limit` means the
  /// key space is exhausted.
  virtual std::vector<long> ascend(long from, std::size_t limit) = 0;

  virtual OpCounters counters() const = 0;

  /// Fault injection: simulate this handle's worker crashing with the
  /// given fault (src/faults/faults.hpp). The op-level kinds
  /// (kMidOpAbandon, kRetireSkipped) perform a deliberately botched
  /// remove of `key` first; the lease-level kinds crash the reclaim
  /// handle itself. After this call the handle must only be destroyed
  /// (its destructor performs a *clean* departure of whatever the
  /// fault left alive, which for the lease-level kinds is nothing).
  /// Default: no-op -- baselines without an abandon path are
  /// fault-oblivious and just depart cleanly.
  virtual void abandon(faults::FaultKind, long /*key*/) {}
};

/// Whether a concrete handle has the fault path above (`abandon(kind,
/// key)`, returning whether the remove attempt an op-level kind made
/// took effect, or nullopt when it made none): the engines and the
/// sharded set do; the locked baselines, the Michael list and the
/// skiplists do not, and keep ISetHandle::abandon's no-op.
template <typename T, typename = void>
struct HasAbandon : std::false_type {};
template <typename T>
struct HasAbandon<T, std::void_t<decltype(std::declval<T&>().abandon(
                         faults::FaultKind::kMidOpAbandon, 0L))>>
    : std::true_type {};

/// A concrete handle's read-path diagnostics (OpCounters::hint_hits /
/// restarts). The engines keep one per handle and overload read_path()
/// for it (the sharded set sums its shards'); every other handle reads
/// the zeros of this default.
struct ReadPath {
  long hint_hits = 0;
  long restarts = 0;
};

template <typename H>
ReadPath read_path(const H&) {
  return {};
}

/// The counted handle: the one place the op ledger is written. Wraps
/// any concrete handle with uncounted add/remove/contains and the
/// paging primitive `scan_raw(from, hi, limit, sink)` (emit live keys
/// in [from, hi] ascending, at most `limit`, < 0 = unbounded; return
/// the number emitted), and implements both public scan forms over it.
/// The catalog hands these out; the typed tests and the thread-private
/// bench wrap their concrete handles in one too.
template <typename H>
class Counted final : public ISetHandle {
 public:
  explicit Counted(H h) : h_(std::move(h)) {}

  bool add(long key) override {
    ++ctr_.add_calls;
    const bool ok = h_.add(key);
    ctr_.adds += ok;
    return ok;
  }
  bool remove(long key) override {
    ++ctr_.rem_calls;
    const bool ok = h_.remove(key);
    ctr_.rems += ok;
    return ok;
  }
  bool contains(long key) override {
    ++ctr_.con_calls;
    const bool ok = h_.contains(key);
    ctr_.cons += ok;
    return ok;
  }

  long range_scan(long lo, long hi, const KeySink& sink) override {
    ++ctr_.scan_calls;
    const long n = h_.scan_raw(lo, hi, /*limit=*/-1, sink);
    ctr_.scans += n;
    return n;
  }

  /// A limit past LONG_MAX is unbounded; the up-front reserve stops at
  /// kAscendReserve (the wire's SCAN clamp), so a "rest of the set"
  /// limit allocates as the keys arrive rather than all at once.
  std::vector<long> ascend(long from, std::size_t limit) override {
    constexpr long kMax = std::numeric_limits<long>::max();
    ++ctr_.scan_calls;
    std::vector<long> out;
    out.reserve(std::min(limit, kAscendReserve));
    h_.scan_raw(from, kMax,
                limit > static_cast<std::size_t>(kMax)
                    ? -1
                    : static_cast<long>(limit),
                [&](long k) { out.push_back(k); });
    ctr_.scans += static_cast<long>(out.size());
    return out;
  }

  OpCounters counters() const override {
    OpCounters c = ctr_;
    const ReadPath rp = read_path(h_);
    c.hint_hits = rp.hint_hits;
    c.restarts = rp.restarts;
    return c;
  }

  void abandon(faults::FaultKind k, long key) override {
    if constexpr (HasAbandon<H>::value) {
      if (const std::optional<bool> removed = h_.abandon(k, key)) {
        ++ctr_.rem_calls;
        ctr_.rems += *removed;
      }
    }
  }

  /// The wrapped handle (the sequential lists are their own handle and
  /// answer the quiescent calls too).
  const H& inner() const { return h_; }

 private:
  static constexpr std::size_t kAscendReserve = 4096;

  H h_;
  OpCounters ctr_;
};

/// The shared structure. make_handle() may be called concurrently from
/// worker threads; validate()/size()/snapshot() are quiescent-only
/// (call after all workers joined).
class ISet {
 public:
  virtual ~ISet() = default;

  virtual std::unique_ptr<ISetHandle> make_handle() = 0;

  /// Structural self-check. Returns false and fills *err (if non-null)
  /// on a broken invariant (unsorted chain, duplicate live key, ...).
  virtual bool validate(std::string* err) const = 0;

  /// Number of live (logically present) keys.
  virtual std::size_t size() const = 0;

  /// Live keys in ascending order.
  virtual std::vector<long> snapshot() const = 0;

  // --- stats -------------------------------------------------------
  //
  // Read off the structure's reclaim domain (src/reclaim/) by the
  // catalog adapter. The rows without one -- coarse_lock, lazy_lock,
  // skiplist and skiplist_draconic -- answer 0 / all-zero for the four
  // reclaim stats, and the arena rows (the bare paper ids and
  // unrolled_k8) for all but allocated_nodes. Every unsharded row
  // answers 1 / empty for the three shard stats.

  /// Nodes currently allocated and not yet freed. Under the arena this
  /// grows with every successful insert; under a reclaiming policy the
  /// churn tests assert it stays bounded.
  virtual std::size_t allocated_nodes() const = 0;

  /// Nodes retired but not yet freed -- the reclaimer's limbo depth (0
  /// under the arena). Safe to sample while workers run; the soak
  /// harness records it as a time series and the soak tests assert it
  /// stays bounded.
  virtual std::size_t limbo_nodes() const = 0;

  /// Hash shards behind this set.
  virtual int shard_count() const = 0;

  /// Operations routed to each shard (attempts, all op kinds) --
  /// quiescent-only, like validate(). The shard-load reports in
  /// bench_grid/bench_soak use it to show how a skewed key stream
  /// loads the partition.
  virtual std::vector<long> shard_ops() const = 0;

  /// Live keys per shard (quiescent-only).
  virtual std::vector<std::size_t> shard_sizes() const = 0;

  /// Supervisor recovery after worker crashes: release every lease
  /// abandoned via ISetHandle::abandon -- unpin stalled epochs, clear
  /// leaked hazard cells, hand parked limbo to the survivors. Returns
  /// the number of leases reaped. Safe to call while workers run; the
  /// soak driver calls it a configurable delay after each injected
  /// fault.
  virtual std::size_t reap_crashed() = 0;

  /// Blast-radius counters for the faults injected so far. Safe to
  /// sample while workers run; the soak driver records one per tick.
  virtual faults::BlastStats blast_stats() const = 0;

  virtual std::string_view name() const = 0;
};

}  // namespace pragmalist::core
