// Crash-fault soak across the variant x reclaimer x shard grid: a
// deterministic FaultPlan kills workers mid-run (one fault of each
// kind by default -- guard-held abort, retire-skipped, depart-without-
// release, mid-op abandon) while the soak sampler records the blast
// radius, and a supervisor pass reaps the crashed leases after a fixed
// detection delay. Every faulted cell runs next to a fault-free twin
// (same config, empty plan) so the peak footprint / limbo columns show
// what the crashes *cost* rather than what the workload costs anyway.
//
// The headline number is recovery_ms: wall time from the last injected
// fault to the first sample where no crashed lease, parked limbo, or
// leaked hazard cell remains. Arena rows recover instantly by
// construction (no reclamation protocol to crash out of); EBR pays for
// the stalled horizon until the reap; HP pays per leaked cell.
//
//   bench_faults [--ids ID,ID,...] [--reclaim arena,ebr,hp]
//                [--shards N,N,...] [--faults N] [--reps R]
//                [--duration PER-RUN (5s/500ms/2m; bare = s)] [--tick-ms MS]
//                [--max-threads P] [--u UNIVERSE] [--prefill F]
//                [--seed S] [--reap-delay TICKS] [--no-pin]
//
// --ids names *bases* (default: the six paper variants); --reclaim
// picks the domains (arena = the bare id). Faults cycle through the
// four kinds on workers 0..N-1 under a steady schedule, so "worker 3"
// is the same lease every run and the plan is reproducible. --reps
// repeats the faulted run and summarizes kops and recovery_ms as
// mean +- stddev (a lone rep renders the em dash, never "nan").
//
// Every faulted run still passes the quiescent checks: validate() and
// the population ledger (prefill + adds - rems == size; op-level
// faults count as removes). CSV: bench_faults.csv, one row per cell,
// with per-kind injected counts -- CI's fault-smoke asserts each kind
// fired and each ebr/hp row recovered.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/faults/faults.hpp"
#include "src/service/soak.hpp"

namespace {

using namespace pragmalist;

// Wall time from the last injected fault to the first sample showing a
// clean blast surface; -1 when no fault fired or the series never
// showed recovery (a fault inside the final reap window is recovered
// by the end-of-run pass, after the last sample).
double recovery_ms(const service::SoakResult& r) {
  const double last = r.last_fault_ms();
  if (last < 0.0) return -1.0;
  for (const auto& s : r.series)
    if (s.t_ms >= last && s.blast.clean()) return s.t_ms - last;
  return -1.0;
}

struct CellResult {
  harness::Summary kops;
  harness::Summary recovery;     // over reps that recovered
  int injected[faults::kNumFaultKinds] = {0, 0, 0, 0};  // min over reps
  int reaps = 0;                 // min over reps
  std::size_t leaked = 0;        // max end-of-run attributed leak
  std::size_t leaked_slabs = 0;  // max slabs pinned by those leaks
  std::size_t fp_peak = 0;       // max over reps
  std::size_t limbo_peak = 0;    // max over reps
  bool recovered = true;         // every rep: all faults fired + clean
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = harness::Options::parse(argc, argv);

  service::SoakConfig cfg;
  cfg.schedule = service::SoakSchedule::kSteady;
  cfg.tick_ms = opt.get_int("tick-ms", 100);
  if (cfg.tick_ms < 1) cfg.tick_ms = 1;
  const long duration_ms = opt.get_duration_ms("duration", 2000);
  cfg.ticks = std::max(static_cast<int>(duration_ms / cfg.tick_ms), 1);
  cfg.max_threads =
      opt.get_int("max-threads", bench::default_threads(opt, 16));
  cfg.universe = opt.get_long("u", 1024);
  cfg.prefill = opt.get_long("prefill", cfg.universe / 4);
  cfg.seed = static_cast<std::uint64_t>(opt.get_long("seed", 42));
  cfg.pin = !opt.get_bool("no-pin");
  cfg.record_latency = false;  // blast radius, not tails
  cfg.reap_delay_ticks = opt.get_int("reap-delay", 1);
  const int reps = std::max(opt.get_int("reps", 1), 1);

  // The plan: n faults cycling through the four kinds on workers
  // 0..n-1 (all alive under kSteady), at early staggered ordinals so
  // every fault fires within the first ticks and the recovery window
  // fits inside the run. Clamped to the worker pool -- fewer than four
  // workers cannot host every kind.
  int n_faults = opt.get_int("faults", faults::kNumFaultKinds);
  n_faults = std::max(std::min(n_faults, cfg.max_threads), 0);
  faults::FaultPlan plan;
  for (int i = 0; i < n_faults; ++i)
    plan.at(i, 1000 * (i + 1),
            faults::kAllFaultKinds[i % faults::kNumFaultKinds]);

  std::vector<std::string> bases = opt.get_string_list("ids", {});
  if (bases.empty() || (bases.size() == 1 && bases.front() == "all"))
    bases = {"draconic",      "singly",          "doubly",      "singly_cursor",
             "singly_fetch_or", "doubly_cursor", "unrolled_k8"};
  std::vector<std::string> domains = opt.get_string_list("reclaim", {});
  if (domains.empty()) domains = {"arena", "ebr", "hp"};

  const std::vector<bench::GridCell> cells = bench::expand_grid(
      bases, domains, opt.get_longs("shards", {1, 8}));

  std::cout << "Fault-injection soak, steady p=" << cfg.max_threads << ", "
            << duration_ms / 1000.0 << " s/run (" << cfg.ticks << " ticks x "
            << cfg.tick_ms << " ms), u=" << cfg.universe << ", " << n_faults
            << " faults (";
  for (int i = 0; i < faults::kNumFaultKinds; ++i)
    std::cout << (i ? " " : "")
              << faults::fault_kind_name(faults::kAllFaultKinds[i]) << "="
              << plan.count(faults::kAllFaultKinds[i]);
  std::cout << "), reap delay " << cfg.reap_delay_ticks << " tick(s), "
            << reps << " rep(s)\n"
            << "(recovery = last fault -> first clean blast sample; fp/limbo"
            << " peaks vs the fault-free twin)\n\n";
  std::cout << std::left << std::setw(26) << "variant" << std::right
            << std::setw(14) << "kops/s" << "  " << std::setw(14)
            << "recovery ms" << "  " << std::setw(9) << "faults"
            << std::setw(8) << "leaked" << std::setw(7) << "reaps"
            << std::setw(14) << "fp pk/twin" << std::setw(16)
            << "limbo pk/twin" << std::setw(7) << "ok" << "\n";

  std::ofstream csv("bench_faults.csv");
  if (csv)
    // The CI fault-smoke gate reads these columns by header name.
    csv << "id,base,reclaim,shards,reps,kops_mean,kops_sd,recovery_ms_mean,"
           "recovery_ms_sd,inj_guard_held,inj_retire_skipped,inj_depart,"
           "inj_midop,leaked,reaps,fp_peak,twin_fp_peak,limbo_peak,"
           "twin_limbo_peak,recovered,leaked_slabs\n";

  for (const auto& cell : cells) {
    // Fault-free twin first: same everything, empty plan. Its peaks
    // are the workload's own cost.
    std::size_t twin_fp = 0, twin_limbo = 0;
    {
      auto set = harness::make_set(cell.id);
      service::SoakConfig twin_cfg = cfg;
      twin_cfg.faults = faults::FaultPlan{};
      const auto r = service::run_soak(*set, twin_cfg);
      bench::check_valid(*set);
      twin_fp = r.peak_footprint();
      twin_limbo = r.peak_limbo();
    }

    CellResult res;
    res.reaps = INT32_MAX;
    for (int i = 0; i < faults::kNumFaultKinds; ++i)
      res.injected[i] = INT32_MAX;
    std::vector<double> kops, rec;
    for (int rep = 0; rep < reps; ++rep) {
      auto set = harness::make_set(cell.id);
      service::SoakConfig run_cfg = cfg;
      run_cfg.faults = plan;
      run_cfg.seed = cfg.seed + static_cast<std::uint64_t>(rep);
      const auto r = service::run_soak(*set, run_cfg);

      // Quiescent integrity survives the crashes: helping has swept
      // what mid-op abandons left marked, and op-level faults were
      // counted as removes, so the ledger balances.
      bench::check_valid(*set);
      PRAGMALIST_CHECK(
          static_cast<long>(set->size()) ==
              run_cfg.prefill + r.agg.adds - r.agg.rems,
          "population ledger does not balance across injected crashes");

      kops.push_back(r.kops_per_sec());
      int fired[faults::kNumFaultKinds] = {0, 0, 0, 0};
      for (const auto& ev : r.fault_events)
        ++fired[static_cast<int>(ev.kind)];
      for (int i = 0; i < faults::kNumFaultKinds; ++i)
        res.injected[i] = std::min(res.injected[i], fired[i]);
      const bool all_fired =
          static_cast<int>(r.fault_events.size()) == n_faults;
      const double rms = recovery_ms(r);
      if (rms >= 0.0) rec.push_back(rms);
      res.recovered = res.recovered && all_fired && rms >= 0.0;
      res.reaps = std::min(res.reaps, r.reaps);
      const faults::BlastStats end = set->blast_stats();
      res.leaked = std::max(res.leaked, end.leaked_nodes);
      res.leaked_slabs = std::max(res.leaked_slabs, end.leaked_slabs);
      res.fp_peak = std::max(res.fp_peak, r.peak_footprint());
      res.limbo_peak = std::max(res.limbo_peak, r.peak_limbo());
    }
    res.kops = harness::summarize(kops);
    res.recovery = harness::summarize(rec);

    std::ostringstream inj, fp, limbo;
    inj << n_faults << " ";
    for (int i = 0; i < faults::kNumFaultKinds; ++i)
      inj << (i ? "/" : "") << res.injected[i];
    fp << res.fp_peak << "/" << twin_fp;
    limbo << res.limbo_peak << "/" << twin_limbo;
    // setw counts bytes, and the summary cells may carry multibyte
    // glyphs (em dash / plus-minus) -- separate columns explicitly
    // instead of relying on width alone.
    std::cout << std::left << std::setw(26) << cell.id << std::right
              << std::setw(14) << harness::summary_cell(res.kops, 0) << "  "
              << std::setw(14) << harness::summary_cell(res.recovery, 1)
              << "  " << std::setw(9) << inj.str() << std::setw(8)
              << res.leaked << std::setw(7) << res.reaps << std::setw(14)
              << fp.str() << std::setw(16) << limbo.str() << std::setw(7)
              << (res.recovered ? "yes" : "NO") << "\n";

    if (csv) {
      csv << cell.id << "," << cell.variant << "," << cell.reclaimer << ","
          << cell.shards << "," << reps << ","
          << harness::summary_csv_fields(res.kops, 1) << ","
          << harness::summary_csv_fields(res.recovery, 2) << ",";
      for (int i = 0; i < faults::kNumFaultKinds; ++i)
        csv << res.injected[i] << ",";
      csv << res.leaked << "," << res.reaps << "," << res.fp_peak << ","
          << twin_fp << "," << res.limbo_peak << "," << twin_limbo << ","
          << (res.recovered ? 1 : 0) << "," << res.leaked_slabs << "\n";
    }
  }
  if (csv) std::cout << "\ncsv: bench_faults.csv\n";
  return 0;
}
