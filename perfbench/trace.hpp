// Per-layer instruments that live in the benchmark, outside src/: a
// timing decorator around ISetHandle and readings of LatHistogram that
// are not quantized to its buckets.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/streams.hpp"

namespace perfbench {

/// Steady-clock nanoseconds (the clock LatHistogram samples are in).
std::uint64_t now_ns();

/// Quantile q of h in ns, interpolated linearly inside the bucket that
/// holds it. Bucket bounds alone would step by 1/32 of the value, so a
/// steady figure would read identically run after run.
double percentile_ns(const pl::harness::LatHistogram& h, double q);

/// Mean of h in ns, from bucket midpoints (within 1/64 of the true mean).
double mean_ns(const pl::harness::LatHistogram& h);

/// Times every call into the wrapped handle (the core layer) into a
/// per-class profile. Owned by one thread, like the handle it wraps.
class TimedHandle final : public pl::core::ISetHandle {
 public:
  TimedHandle(pl::core::ISetHandle& inner,
              pl::harness::LatencyProfile& profile)
      : inner_(inner), profile_(profile) {}

  bool add(long key) override;
  bool remove(long key) override;
  bool contains(long key) override;
  long range_scan(long lo, long hi,
                  const pl::core::KeySink& sink) override;
  std::vector<long> ascend(long from, std::size_t limit) override;
  pl::core::OpCounters counters() const override {
    return inner_.counters();
  }

 private:
  void record(pl::harness::OpClass cls, std::uint64_t t0) {
    profile_.of(cls).record(now_ns() - t0);
  }

  pl::core::ISetHandle& inner_;
  pl::harness::LatencyProfile& profile_;
};

}  // namespace perfbench
