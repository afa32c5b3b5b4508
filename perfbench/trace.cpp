#include "perfbench/trace.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

using pl::harness::LatHistogram;
using pl::harness::OpClass;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double percentile_ns(const LatHistogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const double rank = q * static_cast<double>(n);
  double below = 0.0;
  for (int i = 0; i < LatHistogram::kBuckets; ++i) {
    const auto c = static_cast<double>(h.bucket_count(i));
    if (c == 0.0) continue;
    if (below + c >= rank) {
      const auto lo = static_cast<double>(LatHistogram::bucket_min(i));
      const auto hi = static_cast<double>(LatHistogram::bucket_max(i)) + 1.0;
      const double v = lo + (rank - below) / c * (hi - lo);
      return std::min(v, static_cast<double>(h.max()));
    }
    below += c;
  }
  return static_cast<double>(h.max());
}

double mean_ns(const LatHistogram& h) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (int i = 0; i < LatHistogram::kBuckets; ++i) {
    const auto c = h.bucket_count(i);
    if (c == 0) continue;
    const double mid = (static_cast<double>(LatHistogram::bucket_min(i)) +
                        static_cast<double>(LatHistogram::bucket_max(i))) /
                       2.0;
    sum += static_cast<double>(c) * mid;
  }
  return sum / static_cast<double>(n);
}

bool TimedHandle::add(long key) {
  const std::uint64_t t0 = now_ns();
  const bool r = inner_.add(key);
  record(OpClass::kAdd, t0);
  return r;
}

bool TimedHandle::remove(long key) {
  const std::uint64_t t0 = now_ns();
  const bool r = inner_.remove(key);
  record(OpClass::kRemove, t0);
  return r;
}

bool TimedHandle::contains(long key) {
  const std::uint64_t t0 = now_ns();
  const bool r = inner_.contains(key);
  record(OpClass::kContains, t0);
  return r;
}

long TimedHandle::range_scan(long lo, long hi,
                             const pl::core::KeySink& sink) {
  const std::uint64_t t0 = now_ns();
  const long r = inner_.range_scan(lo, hi, sink);
  record(OpClass::kScan, t0);
  return r;
}

std::vector<long> TimedHandle::ascend(long from, std::size_t limit) {
  const std::uint64_t t0 = now_ns();
  std::vector<long> r = inner_.ascend(from, limit);
  record(OpClass::kScan, t0);
  return r;
}

}  // namespace perfbench
