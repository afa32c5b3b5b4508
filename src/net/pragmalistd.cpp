// pragmalistd main: serve any catalog set over TCP until SIGTERM /
// SIGINT, then shut down gracefully and print the quiescent report
// (ledger, latency, limbo, validate) the CI smoke gates on.
//
//   pragmalistd --listen 0.0.0.0:7111 --workers 8
//       --set singly_fetch_or/ebr/sh8
//
// Flags:
//   --listen host:port   bind address            (127.0.0.1:7111)
//   --set id             catalog id to serve     (singly/ebr/sh8)
//   --workers n          event-loop workers      (4)
//   --fault-plan n       inject n request-handler crashes (PR 7
//                        taxonomy, cycling kinds across workers)
//   --fault-seed s       plan seed               (42)
//   --fault-ordinal n    ops a faulty worker serves before crashing (200)
//   --reap-delay d       crash detection delay   (50ms; suffix units)
//   --no-latency         skip service-time histograms
#include <csignal>
#include <cstdio>
#include <iostream>

#include "src/faults/faults.hpp"
#include "src/harness/options.hpp"
#include "src/harness/table.hpp"
#include "src/net/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace pragmalist;

  const harness::Options opt = harness::Options::parse(argc, argv);
  const auto listen =
      opt.get_host_port("listen", {.host = "127.0.0.1", .port = 7111});

  net::ServerConfig cfg;
  cfg.host = listen.host;
  cfg.port = listen.port;
  cfg.set_id = opt.get_string("set", cfg.set_id);
  cfg.workers = opt.get_int("workers", cfg.workers);
  cfg.reap_delay_ms =
      static_cast<int>(opt.get_duration_ms("reap-delay", 50));
  cfg.record_latency = !opt.get_bool("no-latency");
  const int n_faults = opt.get_int("fault-plan", 0);
  if (n_faults > 0) {
    const auto seed =
        static_cast<std::uint64_t>(opt.get_long("fault-seed", 42));
    const long ordinal = opt.get_long("fault-ordinal", 200);
    cfg.faults = faults::FaultPlan::mix(seed, n_faults, cfg.workers,
                                        ordinal, ordinal * 2);
  }

  net::Server server(cfg);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "pragmalistd: %s\n", err.c_str());
    return 1;
  }
  std::printf("pragmalistd: serving %s with %d workers, listening on %s:%d\n",
              cfg.set_id.c_str(), cfg.workers, cfg.host.c_str(),
              server.port());
  if (!cfg.faults.empty())
    std::printf("pragmalistd: fault plan armed (%zu injected crashes)\n",
                cfg.faults.size());
  std::fflush(stdout);

  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  while (g_stop == 0) {
    timespec ts{0, 50'000'000};  // 50 ms
    ::nanosleep(&ts, nullptr);
  }

  std::printf("pragmalistd: shutting down\n");
  server.stop();

  const net::ServerStats stats = server.stats();
  const core::OpCounters ledger = server.ledger();
  std::printf(
      "pragmalistd: accepted=%ld closed=%ld frames=%ld protocol_errors=%ld "
      "faults=%d reaps=%d\n",
      stats.accepted, stats.closed, stats.frames, stats.protocol_errors,
      stats.faults_fired, stats.reaps);
  std::printf(
      "pragmalistd: ledger total_ops=%ld add_calls=%ld rem_calls=%ld "
      "con_calls=%ld scan_calls=%ld\n",
      ledger.total_ops(), ledger.add_calls, ledger.rem_calls,
      ledger.con_calls, ledger.scan_calls);

  if (cfg.record_latency && server.latency().total_count() > 0) {
    std::vector<harness::LatencyRow> rows;
    rows.push_back({cfg.set_id, server.latency(), 0.0, 0, 0});
    harness::print_latency_table(std::cout, "Service time", rows);
  }

  core::ISet& set = server.set();
  const faults::BlastStats blast = set.blast_stats();
  std::printf(
      "pragmalistd: limbo=%zu crashed_slots=%zu leaked_cells=%zu "
      "parked_limbo=%zu\n",
      set.limbo_nodes(), blast.crashed_slots, blast.leaked_cells,
      blast.parked_limbo);

  std::string why;
  const bool valid = set.validate(&why);
  if (valid)
    std::printf("pragmalistd: validate: ok (size=%zu)\n", set.size());
  else
    std::printf("pragmalistd: validate: FAILED: %s\n", why.c_str());
  // After stop() every lease departed or was reaped: a crashed slot,
  // quarantined cell or parked limbo still standing would leak for the
  // process lifetime, so it fails the shutdown the same as a broken
  // list.
  const bool clean = blast.clean();
  if (!clean)
    std::printf("pragmalistd: reclaim state not quiescent at exit\n");
  std::printf("pragmalistd: %s\n",
              valid && clean ? "clean shutdown" : "UNCLEAN shutdown");
  std::fflush(stdout);
  return valid && clean ? 0 : 1;
}
