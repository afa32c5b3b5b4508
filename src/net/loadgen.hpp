// The pragmalistd load generator: an epoll client engine able to hold
// thousands of concurrent connections per event-loop thread, drive a
// configurable op mix over zipfian (or uniform) keys, churn
// connections on the soak schedules, and report per-op-class
// coordinated-omission-aware latency.
//
// Each connection is depth-1 (one request in flight), so the
// client-side count of acknowledged data ops and the server's
// dispatched-op ledger (INFO total_ops) must match exactly once the
// drain phase retires every in-flight request -- the end-to-end "no op
// lost, none double-counted" check the CI gate enforces.
//
// Latency discipline (the run_paced contract from the latency PR): in
// paced mode a connection's op i has *intended* send time
// t0 + phase + i*period (phase: the slot's index / slots per thread of
// one period, so a thread's slots do not come due together); its
// latency sample is completion - intended, so a
// server stall charges queueing delay to every op whose slot passed
// while it lasted. Closed-loop mode (rate 0) records
// completion - actual_send instead.
#pragma once

#include <cstdint>
#include <string>

#include "src/harness/latency.hpp"
#include "src/service/schedule.hpp"
#include "src/workload/op_mix.hpp"

namespace pragmalist::net {

struct LoadGenConfig {
  std::string host = "127.0.0.1";
  int port = 7111;
  int threads = 2;       // event-loop threads
  int connections = 64;  // total connection slots, split across threads

  // Stop condition: whichever of these is nonzero (duration wins when
  // both are set; at least one must be).
  long duration_ms = 0;
  long total_ops = 0;  // stop once this many data ops completed

  workload::OpMix mix{10, 10, 70, 10};
  std::uint64_t universe = 1 << 16;
  double zipf_theta = 0.99;  // <= 0 selects uniform keys
  long scan_count = 64;      // SCAN page size
  std::uint64_t seed = 1;

  // Paced sends per second per connection; 0 = closed loop.
  long rate_per_conn = 0;

  // Reconnect churn: when churn_ticks > 0, the per-thread target
  // connection count follows service::thread_target(schedule, ...)
  // across churn_ticks ticks; surplus connections drain (finish their
  // in-flight op) and close, deficits reconnect fresh.
  service::SoakSchedule schedule = service::SoakSchedule::kSteady;
  int churn_ticks = 0;

  // After the run, open a control connection, send INFO and compare
  // the server's total_ops ledger with our acknowledged-op count.
  bool check_ledger = true;
};

struct LoadGenResult {
  bool ok = false;    // engine ran (connected at least once)
  std::string error;  // why not, when !ok

  long sent[harness::kNumOpClasses] = {};       // requests written
  long completed[harness::kNumOpClasses] = {};  // acknowledged (non-error)
  long errors = 0;        // -ERR replies (incl. injected faults)
  long conn_failures = 0; // connect attempts that failed
  long reconnects = 0;    // churn-driven re-opens after the initial fill
  long abandoned = 0;     // in flight when the drain phase timed out
  int peak_conns = 0;     // max concurrently-established connections
  double ms = 0;          // measured window

  harness::LatencyProfile profile;  // CO-aware per-class latency

  long server_total_ops = -1;  // from INFO; -1 when unchecked/unreachable
  bool ledger_match = false;

  long total_completed() const {
    long n = 0;
    for (const long c : completed) n += c;
    return n;
  }
  long total_sent() const {
    long n = 0;
    for (const long c : sent) n += c;
    return n;
  }
};

/// Run the load against host:port until the stop condition, drain, and
/// (optionally) verify the server ledger. Synchronous; spawns
/// cfg.threads event loops internally.
LoadGenResult run_loadgen(const LoadGenConfig& cfg);

}  // namespace pragmalist::net
