// Per-operation latency histograms -- the tail-latency yardstick the
// throughput tables cannot provide. Träff & Pöter's pragmatic cursor
// reuse trades occasional long revalidation walks for cheap common-case
// ops; that trade is invisible in a mean and lives entirely in
// p99/p999, so every measurement driver can now record per-op-class
// (add/remove/contains/scan) latencies into a LatHistogram.
//
// Design, HdrHistogram-style:
//   * log-bucketed nanosecond bins -- exact below 64 ns, then 32 linear
//     sub-buckets per power-of-two octave, so the relative quantization
//     error is bounded by 1/32 (~3.1%) at every scale from ns to
//     minutes, with a fixed 1920-bucket footprint (~15 KB);
//   * single-writer wait-free recording -- each worker owns its
//     instance and record() is two relaxed fetch_adds plus a relaxed
//     CAS-max, no locks anywhere;
//   * concurrent readers -- counts are relaxed atomics, so the soak
//     sampler may merge a worker's histogram mid-run and sees a
//     slightly stale but never torn view;
//   * mergeable -- operator+= folds per-thread instances into one;
//     operator-= subtracts an earlier cumulative snapshot, which is how
//     the soak harness turns cumulative histograms into per-tick
//     interval views.
//
// Gating: recording is runtime-optional (drivers take a nullable
// profile; a null pointer costs one predicted branch per op and zero
// clock reads) and compile-out-able (-DPRAGMALIST_LATENCY=OFF defines
// PRAGMALIST_NO_LATENCY, turning record() and lat_now_ns() into
// constant no-ops), so throughput benches stay honest.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

namespace pragmalist::harness {

/// False when the whole recording layer is compiled out
/// (-DPRAGMALIST_LATENCY=OFF); tests that need real recording skip.
#ifdef PRAGMALIST_NO_LATENCY
inline constexpr bool kLatencyCompiled = false;
#else
inline constexpr bool kLatencyCompiled = true;
#endif

/// Nanosecond reading of the steady clock (0 when compiled out). All
/// latency recording uses this clock and no other: it is monotonic,
/// unaffected by NTP, and the same clock run_team/run_soak measure
/// their windows with, so op latencies and window durations are
/// directly comparable.
inline std::uint64_t lat_now_ns() {
  if constexpr (!kLatencyCompiled) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class LatHistogram {
 public:
  // Values < kLinear get an exact bucket each; above, each power-of-two
  // octave splits into kSub linear sub-buckets (quantization error <=
  // 1/kSub). 58 octaves cover the full uint64 ns range.
  static constexpr int kLinear = 64;
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;  // 32
  static constexpr int kOctaves = 58;
  static constexpr int kBuckets = kLinear + kOctaves * kSub;

  LatHistogram() { clear(); }

  LatHistogram(const LatHistogram& o) { copy_from(o); }
  LatHistogram& operator=(const LatHistogram& o) {
    if (this != &o) copy_from(o);
    return *this;
  }

  /// Bucket of a nanosecond value. Exposed (with bucket_min/bucket_max)
  /// so the boundary tests can pin the scheme.
  static int bucket_index(std::uint64_t ns) {
    if (ns < static_cast<std::uint64_t>(kLinear))
      return static_cast<int>(ns);
    const int msb = 63 - __builtin_clzll(ns);
    const int g = msb - kSubBits;  // >= 1 because ns >= kLinear = 2^6
    return kLinear + (g - 1) * kSub +
           static_cast<int>((ns >> g) - static_cast<std::uint64_t>(kSub));
  }

  /// Smallest value mapping to bucket i.
  static std::uint64_t bucket_min(int i) {
    if (i < kLinear) return static_cast<std::uint64_t>(i);
    const int g = (i - kLinear) / kSub + 1;
    const auto sub = static_cast<std::uint64_t>((i - kLinear) % kSub);
    return (static_cast<std::uint64_t>(kSub) + sub) << g;
  }

  /// Largest value mapping to bucket i (inclusive). Percentiles report
  /// this bound, so they overestimate by at most one bucket width.
  static std::uint64_t bucket_max(int i) {
    if (i < kLinear) return static_cast<std::uint64_t>(i);
    const int g = (i - kLinear) / kSub + 1;
    return bucket_min(i) + ((1ull << g) - 1);
  }

  /// Record one latency. Wait-free; single writer per instance, any
  /// number of concurrent readers.
  void record(std::uint64_t ns) {
    if constexpr (!kLatencyCompiled) {
      (void)ns;
      return;
    }
    counts_[static_cast<std::size_t>(bucket_index(ns))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t m = max_.load(std::memory_order_relaxed);
    while (ns > m &&
           !max_.compare_exchange_weak(m, ns, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Largest recorded value (exact for cumulative histograms; after
  /// operator-= it is clamped to the interval's highest non-empty
  /// bucket bound, i.e. bucket resolution).
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  std::uint64_t bucket_count(int i) const {
    return counts_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

  /// Value at quantile q in [0, 1]: the inclusive upper bound of the
  /// bucket holding the ceil(q*count)-th smallest sample, clamped to
  /// max() so percentile(q) <= max() always holds. 0 when empty.
  std::uint64_t percentile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    if (q >= 1.0) return max();
    if (q < 0.0) q = 0.0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    std::uint64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      cum += bucket_count(i);
      if (cum >= rank) return std::min(bucket_max(i), max());
    }
    // A concurrent reader can see count_ ahead of the bucket counts;
    // the highest bound we know is the running max.
    return max();
  }

  /// Fold another histogram in (cross-thread merge). Safe against a
  /// concurrent writer on `o` (relaxed snapshot), single-threaded on
  /// *this.
  LatHistogram& operator+=(const LatHistogram& o) {
    for (int i = 0; i < kBuckets; ++i) {
      const std::uint64_t theirs = o.bucket_count(i);
      if (theirs)
        counts_[static_cast<std::size_t>(i)].store(
            bucket_count(i) + theirs, std::memory_order_relaxed);
    }
    count_.store(count() + o.count(), std::memory_order_relaxed);
    if (o.max() > max()) max_.store(o.max(), std::memory_order_relaxed);
    return *this;
  }

  /// Subtract an earlier cumulative snapshot of the same stream(s),
  /// leaving the interval histogram. Counts saturate at 0; max() is
  /// re-derived as the interval's highest non-empty bucket bound
  /// (clamped by the cumulative max), since the true interval max is
  /// not recoverable from two cumulative views.
  LatHistogram& operator-=(const LatHistogram& o) {
    std::uint64_t total = 0;
    int highest = -1;
    for (int i = 0; i < kBuckets; ++i) {
      const std::uint64_t mine = bucket_count(i);
      const std::uint64_t theirs = o.bucket_count(i);
      const std::uint64_t left = mine > theirs ? mine - theirs : 0;
      counts_[static_cast<std::size_t>(i)].store(left,
                                                 std::memory_order_relaxed);
      total += left;
      if (left) highest = i;
    }
    count_.store(total, std::memory_order_relaxed);
    max_.store(highest < 0 ? 0 : std::min(bucket_max(highest), max()),
               std::memory_order_relaxed);
    return *this;
  }

  void clear() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void copy_from(const LatHistogram& o) {
    for (int i = 0; i < kBuckets; ++i)
      counts_[static_cast<std::size_t>(i)].store(o.bucket_count(i),
                                                 std::memory_order_relaxed);
    count_.store(o.count(), std::memory_order_relaxed);
    max_.store(o.max(), std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_;
  std::atomic<std::uint64_t> count_;
  std::atomic<std::uint64_t> max_;
};

/// The four op classes every driver distinguishes. Indices are stable
/// (CSV columns and the per-class array depend on them).
enum class OpClass : int { kAdd = 0, kRemove = 1, kContains = 2, kScan = 3 };
inline constexpr int kNumOpClasses = 4;

inline const char* op_class_name(OpClass c) {
  switch (c) {
    case OpClass::kAdd: return "add";
    case OpClass::kRemove: return "remove";
    case OpClass::kContains: return "contains";
    case OpClass::kScan: return "scan";
  }
  return "?";
}

/// One histogram per op class; the unit every driver records into and
/// every bench renders from.
struct LatencyProfile {
  std::array<LatHistogram, kNumOpClasses> per_class;

  LatHistogram& of(OpClass c) { return per_class[static_cast<std::size_t>(c)]; }
  const LatHistogram& of(OpClass c) const {
    return per_class[static_cast<std::size_t>(c)];
  }

  LatencyProfile& operator+=(const LatencyProfile& o) {
    for (int c = 0; c < kNumOpClasses; ++c)
      per_class[static_cast<std::size_t>(c)] +=
          o.per_class[static_cast<std::size_t>(c)];
    return *this;
  }

  LatencyProfile& operator-=(const LatencyProfile& o) {
    for (int c = 0; c < kNumOpClasses; ++c)
      per_class[static_cast<std::size_t>(c)] -=
          o.per_class[static_cast<std::size_t>(c)];
    return *this;
  }

  std::uint64_t total_count() const {
    std::uint64_t n = 0;
    for (const auto& h : per_class) n += h.count();
    return n;
  }

  /// All classes folded into one histogram (the "any op" tail view the
  /// soak tick columns report).
  LatHistogram merged() const {
    LatHistogram m;
    for (const auto& h : per_class) m += h;
    return m;
  }
};

/// Fixed-rate pacing core, the coordinated-omission-aware loop under
/// bench_grid's --rate mode. Op i's *intended* start is
/// t0 + i*period: the loop sleeps until the intended start when ahead
/// but never shifts the schedule when behind, and hands `op` the
/// intended start so the caller records completion - intended. A stall
/// inside op k therefore charges its full duration to op k *and* the
/// queueing delay to every op whose intended start passed while k ran
/// -- exactly the samples a free-running (observed-start) loop omits.
/// Returns the number of ops that began a full period or more after
/// their intended start (the visible backlog).
template <typename Op>
long run_paced(long n, std::uint64_t period_ns, Op&& op) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const auto period = std::chrono::nanoseconds(period_ns);
  long behind = 0;
  for (long i = 0; i < n; ++i) {
    const auto intended =
        t0 + std::chrono::nanoseconds(
                 period_ns * static_cast<std::uint64_t>(i));
    const auto now = Clock::now();
    if (now < intended)
      std::this_thread::sleep_until(intended);
    else if (now - intended >= period)
      ++behind;
    op(i, intended);
  }
  return behind;
}

/// completion - intended in ns, the CO-aware latency sample (0 if the
/// clock reads out of order, which relaxed platforms permit only across
/// threads -- both reads here are same-thread, so this is belt and
/// braces).
inline std::uint64_t co_latency_ns(
    std::chrono::steady_clock::time_point intended,
    std::chrono::steady_clock::time_point completion) {
  if (completion <= intended) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(completion -
                                                           intended)
          .count());
}

}  // namespace pragmalist::harness
