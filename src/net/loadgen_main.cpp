// loadgen main: drive a pragmalistd with thousands of concurrent
// connections and report CO-aware per-op-class tail latency plus the
// client/server ledger comparison.
//
//   loadgen --connect 127.0.0.1:7111 --conns 1024 --threads 4
//           --duration 10s --rate 50 --schedule waves --churn-ticks 20
//
// Flags:
//   --connect host:port  server address          (127.0.0.1:7111)
//   --conns n            concurrent connections  (64)
//   --threads n          event-loop threads      (2)
//   --duration d         run length (500ms/5s/2m; bare = seconds)
//   --ops n              alternative stop: n completed data ops
//   --mix a,r,c,s        op percentages          (10,10,70,10)
//   --universe n         key universe            (65536)
//   --theta x            zipf skew, <= 0 uniform (0.99)
//   --scan-count n       SCAN page size          (64)
//   --rate n             paced sends/s per conn; 0 = closed loop
//   --schedule s         churn shape (steady ramp burst waves stragglers)
//   --churn-ticks n      reconnect-churn ticks; 0 = no churn
//   --seed s             workload seed           (1)
//   --no-check-ledger    skip the final INFO ledger comparison
//
// Exit: 0 on success, 1 when the server was unreachable, 2 on a flag
// this binary does not know (before any load) or when the ledger check
// ran and MISMATCHed (the CI gate).
#include <cstdio>
#include <iostream>

#include "src/harness/options.hpp"
#include "src/harness/table.hpp"
#include "src/net/loadgen.hpp"

int main(int argc, char** argv) {
  using namespace pragmalist;

  const harness::Options opt = harness::Options::parse(argc, argv);
  net::LoadGenConfig cfg;
  const auto addr =
      opt.get_host_port("connect", {.host = cfg.host, .port = cfg.port});
  cfg.host = addr.host;
  cfg.port = addr.port;
  cfg.connections = opt.get_int("conns", cfg.connections);
  cfg.threads = opt.get_int("threads", cfg.threads);
  cfg.duration_ms = opt.get_duration_ms("duration", 0);
  cfg.total_ops = opt.get_long("ops", 0);
  if (cfg.duration_ms <= 0 && cfg.total_ops <= 0) cfg.duration_ms = 5000;
  const auto mix = opt.get_longs("mix", {10, 10, 70, 10});
  if (mix.size() == 4) {
    cfg.mix.add_pct = static_cast<int>(mix[0]);
    cfg.mix.rem_pct = static_cast<int>(mix[1]);
    cfg.mix.con_pct = static_cast<int>(mix[2]);
    cfg.mix.scan_pct = static_cast<int>(mix[3]);
  } else {
    std::fprintf(stderr, "loadgen: --mix wants add,rem,con,scan; using "
                         "10,10,70,10\n");
  }
  cfg.universe =
      static_cast<std::uint64_t>(opt.get_long("universe", 1 << 16));
  cfg.zipf_theta = opt.get_double("theta", cfg.zipf_theta);
  cfg.scan_count = opt.get_long("scan-count", cfg.scan_count);
  cfg.rate_per_conn = opt.get_long("rate", 0);
  cfg.schedule = service::parse_soak_schedule(
      opt.get_string("schedule", "steady"));
  cfg.churn_ticks = opt.get_int("churn-ticks", 0);
  cfg.seed = static_cast<std::uint64_t>(opt.get_long("seed", 1));
  cfg.check_ledger = !opt.get_bool("no-check-ledger");
  if (!harness::all_flags_read(opt)) return 2;

  std::printf(
      "loadgen: %s:%d conns=%d threads=%d %s=%ld mix=%d/%d/%d/%d "
      "theta=%.2f rate=%ld schedule=%s churn_ticks=%d\n",
      cfg.host.c_str(), cfg.port, cfg.connections, cfg.threads,
      cfg.duration_ms > 0 ? "duration_ms" : "ops",
      cfg.duration_ms > 0 ? cfg.duration_ms : cfg.total_ops,
      cfg.mix.add_pct, cfg.mix.rem_pct, cfg.mix.con_pct, cfg.mix.scan_pct,
      cfg.zipf_theta, cfg.rate_per_conn,
      std::string(service::soak_schedule_name(cfg.schedule)).c_str(),
      cfg.churn_ticks);
  std::fflush(stdout);

  const net::LoadGenResult res = net::run_loadgen(cfg);
  if (!res.ok) {
    std::fprintf(stderr, "loadgen: %s\n", res.error.c_str());
    return 1;
  }

  const double secs = res.ms / 1000.0;
  const long completed = res.total_completed();
  std::printf(
      "loadgen: sent=%ld completed=%ld errors=%ld kops=%.1f ms=%.0f\n",
      res.total_sent(), completed, res.errors,
      secs > 0 ? static_cast<double>(completed) / secs / 1000.0 : 0.0,
      res.ms);
  std::printf(
      "loadgen: peak_conns=%d reconnects=%ld conn_failures=%ld "
      "abandoned=%ld\n",
      res.peak_conns, res.reconnects, res.conn_failures, res.abandoned);

  // Per-class tail lines; the CI smoke awk-gates completed > 0 and a
  // finite p99 off these.
  for (int c = 0; c < harness::kNumOpClasses; ++c) {
    const auto& h =
        res.profile.of(static_cast<harness::OpClass>(c));
    if (h.count() == 0) continue;
    std::printf(
        "loadgen: class=%s count=%lu p50_us=%.1f p99_us=%.1f "
        "p999_us=%.1f max_us=%.1f\n",
        harness::op_class_name(static_cast<harness::OpClass>(c)),
        static_cast<unsigned long>(h.count()),
        static_cast<double>(h.percentile(0.50)) / 1000.0,
        static_cast<double>(h.percentile(0.99)) / 1000.0,
        static_cast<double>(h.percentile(0.999)) / 1000.0,
        static_cast<double>(h.max()) / 1000.0);
  }
  if (res.profile.total_count() > 0) {
    std::vector<harness::LatencyRow> rows;
    rows.push_back({"loadgen", res.profile,
                    secs > 0 ? static_cast<double>(completed) / secs / 1000.0
                             : 0.0,
                    0, 0});
    harness::print_latency_table(std::cout, "Client-observed latency", rows);
  }

  if (cfg.check_ledger) {
    const bool match = res.ledger_match;
    std::printf("loadgen: server_total_ops=%ld client_completed=%ld "
                "ledger=%s\n",
                res.server_total_ops, completed,
                match ? "MATCH" : "MISMATCH");
    std::fflush(stdout);
    if (!match) return 2;
  }
  std::fflush(stdout);
  return 0;
}
