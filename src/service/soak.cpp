#include "src/service/soak.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "src/common/debug.hpp"
#include "src/harness/drivers.hpp"
#include "src/harness/thread_team.hpp"
#include "src/workload/distributions.hpp"
#include "src/workload/rng.hpp"

namespace pragmalist::service {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

std::size_t SoakResult::peak_footprint() const {
  std::size_t peak = 0;
  for (const auto& s : series)
    if (s.footprint > peak) peak = s.footprint;
  return peak;
}

std::size_t SoakResult::peak_limbo() const {
  std::size_t peak = 0;
  for (const auto& s : series)
    if (s.limbo > peak) peak = s.limbo;
  return peak;
}

double SoakResult::last_fault_ms() const {
  double last = -1.0;
  for (const auto& ev : fault_events)
    if (ev.t_ms > last) last = ev.t_ms;
  return last;
}

double SoakResult::recovery_ms() const {
  const double last = last_fault_ms();
  if (last < 0.0) return -1.0;
  for (const auto& s : series)
    if (s.t_ms >= last && s.blast.clean()) return s.t_ms - last;
  return -1.0;
}

SoakResult run_soak(core::ISet& set, const SoakConfig& cfg) {
  PRAGMALIST_CHECK(cfg.max_threads >= 1 && cfg.ticks >= 1,
                   "soak needs at least one worker and one tick");
  PRAGMALIST_CHECK(cfg.tick_ms >= 1, "soak tick must be at least 1 ms");
  PRAGMALIST_CHECK(cfg.prefill <= cfg.universe,
                   "cannot prefill more distinct keys than the universe");

  // Prefill outside the clock and the ledger, as run_random_mix does.
  harness::prefill_set(set, cfg.prefill, cfg.universe, cfg.seed);

  // The zipf generator's O(universe) setup runs once, outside any
  // worker; draws are const and stateless, so one instance is shared
  // (run_random_mix does the same).
  std::unique_ptr<const workload::ZipfKeys> zipf;
  if (cfg.zipf_theta > 0.0)
    zipf = std::make_unique<workload::ZipfKeys>(
        static_cast<std::uint64_t>(cfg.universe), cfg.zipf_theta);

  // Workers hammer ops until told to stop, bumping a shared window
  // counter the sampler reads and resets each tick. On departure a
  // worker folds its counters into the aggregate under a mutex --
  // departures are rare (schedule edges), so this is off every hot
  // path. When record_latency is on, each worker also owns a latency
  // profile it registers at arrival; profiles outlive departures (the
  // registry holds them) so the sampler can keep merging cumulative
  // views and the final per-class profile misses no one.
  std::atomic<long> window_ops{0};
  std::mutex agg_mu;
  core::OpCounters agg;
  std::vector<std::unique_ptr<harness::LatencyProfile>> profiles;
  // Injected crashes, appended as they fire (rare; never on the
  // fault-free hot path). The sampler reads them to schedule reaps.
  std::mutex fault_mu;
  std::vector<SoakResult::FaultEvent> fault_events;
  Clock::time_point start;  // set just before the first resize below
  auto body = [&](int worker_id, const std::atomic<bool>& stop) {
    auto handle = set.make_handle();
    workload::Rng rng(workload::thread_seed(cfg.seed, worker_id));
    const faults::FaultSpec* fault = cfg.faults.find(worker_id);
    harness::LatencyProfile* lp = nullptr;
    if (cfg.record_latency) {
      auto owned = std::make_unique<harness::LatencyProfile>();
      lp = owned.get();
      std::lock_guard<std::mutex> lock(agg_mu);
      profiles.push_back(std::move(owned));
    }
    long local_ops = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const long key =
          zipf ? (*zipf)(rng)
               : static_cast<long>(
                     rng.below(static_cast<std::uint64_t>(cfg.universe)));
      if (fault != nullptr && local_ops >= fault->op_ordinal) {
        // Crash now: the op this key was drawn for becomes the fault.
        // The worker stops operating but its thread stays in the team
        // until the schedule departs it -- a dead request handler
        // nobody has joined yet. Counters still fold below: the
        // op-level kinds count as removes, so the population ledger
        // balances across crashes.
        handle->abandon(fault->kind, key);
        std::lock_guard<std::mutex> lock(fault_mu);
        fault_events.push_back(
            SoakResult::FaultEvent{worker_id, ms_since(start), fault->kind});
        break;
      }
      const workload::OpKind kind = cfg.mix.pick(rng);
      const long width =
          kind == workload::OpKind::kScan ? cfg.scan_widths.pick(rng) : 1;
      if (lp) {
        const std::uint64_t t0 = harness::lat_now_ns();
        const harness::OpClass cls =
            harness::execute_op(*handle, kind, key, width);
        lp->of(cls).record(harness::lat_now_ns() - t0);
      } else {
        harness::execute_op(*handle, kind, key, width);
      }
      // Batch the shared-counter bump so sampling does not serialize
      // the workers on one cache line.
      if (++local_ops % 64 == 0)
        window_ops.fetch_add(64, std::memory_order_relaxed);
    }
    window_ops.fetch_add(local_ops % 64, std::memory_order_relaxed);
    const core::OpCounters ctr = handle->counters();
    handle.reset();  // close the handle *before* reporting: departure
                     // means the reclaimer slot is released
    std::lock_guard<std::mutex> lock(agg_mu);
    agg += ctr;
  };

  // Cumulative merge of every registered profile as of now. Workers
  // keep recording while this reads (relaxed atomics: slightly stale,
  // never torn), which is exactly what a per-tick sampler wants.
  auto merge_profiles = [&] {
    harness::LatencyProfile cum;
    std::lock_guard<std::mutex> lock(agg_mu);
    for (const auto& p : profiles) cum += *p;
    return cum;
  };

  SoakResult result;
  result.series.reserve(static_cast<std::size_t>(cfg.ticks));
  start = Clock::now();
  {
    harness::DynamicTeam team(body, cfg.pin);
    harness::LatencyProfile prev_cum;
    auto window_start = start;
    // Reap bookkeeping: events whose reap deadline has passed, so one
    // crash triggers exactly one supervisor pass.
    std::size_t reaped_events = 0;
    for (int tick = 0; tick < cfg.ticks; ++tick) {
      const int target =
          thread_target(cfg.schedule, tick, cfg.ticks, cfg.max_threads);
      team.resize(target);
      if (target > result.peak_threads) result.peak_threads = target;
      // Absolute deadline off the soak start: a tick that oversleeps
      // (scheduler delay, slow resize) stretches its own measured
      // window and the next sleep_until simply sleeps less -- the old
      // relative sleep_for accumulated every delay into drift, while
      // per-tick throughput was still normalized by the nominal
      // tick_ms.
      std::this_thread::sleep_until(
          start + std::chrono::milliseconds(
                      static_cast<long long>(cfg.tick_ms) * (tick + 1)));
      const auto now = Clock::now();
      SoakSample s;
      s.tick = tick;
      s.t_ms = std::chrono::duration<double, std::milli>(now - start).count();
      s.dur_ms =
          std::chrono::duration<double, std::milli>(now - window_start)
              .count();
      window_start = now;
      s.threads = target;
      s.ops = window_ops.exchange(0, std::memory_order_relaxed);
      s.footprint = set.allocated_nodes();
      s.limbo = set.limbo_nodes();
      s.blast = set.blast_stats();
      // Supervisor pass: reap every crashed lease whose fault fired at
      // least reap_delay_ticks ago (the detection latency a real
      // supervisor would have). reap_crashed releases *all* crashed
      // leases, so one pass may cover several due events.
      if (!cfg.faults.empty()) {
        std::size_t due = 0;
        {
          std::lock_guard<std::mutex> lock(fault_mu);
          for (const auto& ev : fault_events)
            if (s.t_ms - ev.t_ms >=
                static_cast<double>(cfg.reap_delay_ticks * cfg.tick_ms))
              ++due;
        }
        if (due > reaped_events) {
          result.reaps += static_cast<int>(set.reap_crashed());
          reaped_events = due;
        }
      }
      if (cfg.record_latency) {
        harness::LatencyProfile cum = merge_profiles();
        harness::LatencyProfile interval = cum;
        interval -= prev_cum;
        prev_cum = cum;
        const harness::LatHistogram all = interval.merged();
        if (all.count() > 0) {
          s.p50_us = static_cast<double>(all.percentile(0.50)) / 1e3;
          s.p99_us = static_cast<double>(all.percentile(0.99)) / 1e3;
          s.p999_us = static_cast<double>(all.percentile(0.999)) / 1e3;
          s.max_us = static_cast<double>(all.max()) / 1e3;
        }
      }
      result.series.push_back(s);
    }
    team.resize(0);  // join everyone before the clock stops
    result.arrivals = team.arrivals();
  }
  // Final supervisor pass: whatever the per-tick reaper did not get to
  // (a fault in the last reap_delay_ticks window) is recovered before
  // the quiescent checks, like a service draining before shutdown.
  if (!cfg.faults.empty())
    result.reaps += static_cast<int>(set.reap_crashed());
  result.ms = ms_since(start);
  result.agg = agg;
  result.fault_events = std::move(fault_events);
  if (cfg.record_latency) result.latency = merge_profiles();
  // All handles are closed, so the per-shard ledgers are complete.
  result.shard_ops = set.shard_ops();
  return result;
}

}  // namespace pragmalist::service
