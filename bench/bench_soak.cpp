// The soak runner: long-running service soaks swept over
//
//   variant x reclaimer x shard count    (bench::expand_grid)
//   plus any explicit catalog ids        (--ids)
//
// Worker threads arrive and depart mid-run on a deterministic schedule
// while the harness samples throughput, node footprint, reclaimer limbo
// depth and the blast surface once per tick: does memory stay bounded
// when threads come and go for as long as the service runs? The default
// grid is every variant under ebr,hp at one shard; arena rows are
// opt-in (--reclaim arena), since the paper's scheme grows without
// bound by design.
//
// --faults N crashes workers 0..N-1 mid-run, one fault each, cycling
// guard-held abort, retire-skipped, depart-without-release and mid-op
// abandon (N is clamped to --max-threads); a supervisor pass reaps the
// crashed leases --reap-delay ticks after each fault. Only the steady
// schedule keeps those workers alive from tick 0, so --faults needs
// --threads-schedule steady. Each faulted cell first runs its
// fault-free twin (same config, empty plan), whose peaks are what the
// workload costs anyway. recovery_ms runs from the last fault to the
// first sample with a clean blast surface (SoakResult::recovery_ms).
//
// --reps R runs each cell at seeds S..S+R-1: kops and recovery_ms are
// mean +- stddev (a lone rep renders the em dash, never "nan"), peaks
// and end values the maximum over reps, injected and reap counts the
// minimum, hint_hits and restarts the mean per run.
//
// No number is reported from a broken run: every run, the twin
// included, must validate() and balance the population ledger (size ==
// prefill + adds - rems; op-level faults count as removes). A flag this
// binary does not read aborts the run.
//
// Output: one human row per cell (the tick series under --series) and
// a per-op-class latency table, plus bench_soak.csv, one row per cell:
//
//   id,schedule,reclaim,shards,reps,kops,kops_sd,footprint,limbo,
//   fp_peak,limbo_peak,hint_hits,restarts,faults,inj_guard_held,
//   inj_retire_skipped,inj_depart,inj_midop,reaps,recovered,
//   recovery_ms,recovery_ms_sd,leaked,leaked_slabs,twin_fp_peak,
//   twin_limbo_peak, then bench_grid's per-class latency columns
//
// footprint and limbo are read after the run, as in bench_grid. reclaim
// is empty for --ids cells; recovered is 1 when every rep fired every
// planned fault and, with faults, recovered on-series. Fields that do
// not apply (recovery, twin, latency under --no-latency) are empty.
//
//   bench_soak [--variants b,f | ids | all] [--reclaim arena,ebr,hp]
//              [--shards 1,8] [--ids ID,ID,...]
//              [--threads-schedule ramp|steady|burst|waves|stragglers]
//              [--duration PER-RUN (5s/500ms/2m; bare = s)] [--tick-ms MS]
//              [--max-threads P] [--u UNIVERSE] [--prefill F] [--seed S]
//              [--zipf-theta T] [--scan-frac PCT] [--scan-width W]
//              [--faults N] [--reap-delay TICKS] [--reps R]
//              [--series] [--no-latency] [--no-pin]
//
// --variants defaults to all, or to no grid at all when --ids is given
// alone. --scan-frac carves PCT of the contains share into range scans
// of width uniform in [1, W]; long scans pin EBR's epoch for their
// whole duration, which is what the limbo series is for.
#include <algorithm>
#include <cstdint>
#include <fstream>
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

void print_series(const std::string& id, const service::SoakConfig& cfg,
                  const service::SoakResult& r) {
  std::cout << "  " << id << " seed " << cfg.seed << ":\n";
  std::cout << "    tick    t_ms  dur_ms  thr      ops    kops  footprint"
               "  limbo";
  if (cfg.record_latency) std::cout << "   p50us   p99us  p999us   maxus";
  std::cout << "\n";
  for (const auto& s : r.series) {
    std::cout << std::setw(8) << s.tick << std::setw(8) << std::fixed
              << std::setprecision(0) << s.t_ms << std::setw(8)
              << std::setprecision(1) << s.dur_ms << std::setw(5)
              << s.threads << std::setw(9) << s.ops << std::setw(8)
              << std::setprecision(0) << s.kops_per_sec() << std::setw(11)
              << s.footprint << std::setw(7) << s.limbo;
    if (cfg.record_latency)
      std::cout << std::setprecision(1) << std::setw(8) << s.p50_us
                << std::setw(8) << s.p99_us << std::setw(8) << s.p999_us
                << std::setw(8) << s.max_us;
    std::cout << "\n";
  }
}

/// The reps of one cell folded into its reported row.
struct CellResult {
  int shards = 1;
  std::vector<double> kops, recovery;  // recovery: reps that recovered
  std::size_t footprint = 0, limbo = 0, fp_peak = 0, limbo_peak = 0;
  std::size_t leaked = 0, leaked_slabs = 0;
  long hint_hits = 0, restarts = 0;  // summed over reps
  int arrivals = 0;
  int injected[faults::kNumFaultKinds] = {INT32_MAX, INT32_MAX, INT32_MAX,
                                          INT32_MAX};
  int reaps = INT32_MAX;
  bool recovered = true;
  harness::LatencyProfile latency;
  std::string load;  // shard_load_line, empty when unsharded
};

/// Soak a fresh `id` under `cfg`, refuse a broken result, and fold the
/// run into `res`.
void run_into(CellResult& res, const std::string& id,
              const service::SoakConfig& cfg, bool series) {
  auto set = harness::make_set(id);
  const service::SoakResult r = service::run_soak(*set, cfg);
  // Quiescent integrity survives churn and crashes: helping has swept
  // what mid-op abandons left marked, and op-level faults were counted
  // as removes, so the ledger balances.
  bench::check_valid(*set);
  PRAGMALIST_CHECK(
      static_cast<long>(set->size()) == cfg.prefill + r.agg.adds - r.agg.rems,
      "population ledger does not balance after the soak");
  if (series) print_series(id, cfg, r);

  const faults::BlastStats end = set->blast_stats();
  res.shards = set->shard_count();
  res.kops.push_back(r.kops_per_sec());
  res.footprint = std::max(res.footprint, set->allocated_nodes());
  res.limbo = std::max(res.limbo, set->limbo_nodes());
  res.fp_peak = std::max(res.fp_peak, r.peak_footprint());
  res.limbo_peak = std::max(res.limbo_peak, r.peak_limbo());
  res.leaked = std::max(res.leaked, end.leaked_nodes);
  res.leaked_slabs = std::max(res.leaked_slabs, end.leaked_slabs);
  res.hint_hits += r.agg.hint_hits;
  res.restarts += r.agg.restarts;
  res.arrivals = std::max(res.arrivals, r.arrivals);
  int fired[faults::kNumFaultKinds] = {0, 0, 0, 0};
  for (const auto& ev : r.fault_events) ++fired[static_cast<int>(ev.kind)];
  for (int i = 0; i < faults::kNumFaultKinds; ++i)
    res.injected[i] = std::min(res.injected[i], fired[i]);
  res.reaps = std::min(res.reaps, r.reaps);
  const double rms = r.recovery_ms();
  if (rms >= 0.0) res.recovery.push_back(rms);
  res.recovered = res.recovered &&
                  r.fault_events.size() == cfg.faults.size() &&
                  (cfg.faults.empty() || rms >= 0.0);
  res.latency += r.latency;
  res.load = harness::shard_load_line(*set);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = harness::Options::parse(argc, argv);

  service::SoakConfig cfg;
  cfg.schedule = service::parse_soak_schedule(
      opt.get_string("threads-schedule", "ramp"));
  cfg.tick_ms = std::max(opt.get_int("tick-ms", 100), 1);
  const long duration_ms = opt.get_duration_ms("duration", 5000);
  cfg.ticks = std::max(static_cast<int>(duration_ms / cfg.tick_ms), 1);
  cfg.max_threads =
      opt.get_int("max-threads", bench::default_threads(opt, 16));
  cfg.universe = opt.get_long("u", 1024);
  cfg.prefill = opt.get_long("prefill", cfg.universe / 4);
  cfg.seed = static_cast<std::uint64_t>(opt.get_long("seed", 42));
  cfg.pin = !opt.get_bool("no-pin");
  cfg.zipf_theta = opt.get_double("zipf-theta", 0.0);
  cfg.mix = bench::with_scans(cfg.mix, opt.get_int("scan-frac", 0));
  cfg.scan_widths = bench::scan_widths(opt);
  cfg.record_latency = bench::latency_enabled(opt);
  cfg.reap_delay_ticks = opt.get_int("reap-delay", 1);
  const int reps = std::max(opt.get_int("reps", 1), 1);
  const bool series = opt.get_bool("series");

  // The plan: n faults cycling through the four kinds on workers
  // 0..n-1, at early staggered ordinals so every fault fires within the
  // first ticks and the recovery window fits inside the run. Clamped to
  // the worker pool -- fewer than four workers cannot host every kind.
  const int requested_faults = opt.get_int("faults", 0);
  PRAGMALIST_CHECK(requested_faults <= 0 ||
                       cfg.schedule == service::SoakSchedule::kSteady,
                   "--faults needs --threads-schedule steady");
  const int n_faults =
      std::max(std::min(requested_faults, cfg.max_threads), 0);
  faults::FaultPlan plan;
  for (int i = 0; i < n_faults; ++i)
    plan.at(i, 1000 * (i + 1),
            faults::kAllFaultKinds[i % faults::kNumFaultKinds]);

  const std::vector<std::string> ids = opt.get_string_list("ids", {});
  std::vector<std::string> variants;
  if (ids.empty() || !opt.get_string_list("variants", {}).empty())
    variants = bench::select_variants(opt, {"all"});
  std::vector<bench::GridCell> cells = bench::expand_grid(
      variants, opt.get_string_list("reclaim", {"ebr", "hp"}),
      opt.get_longs("shards", {1}));
  for (const auto& id : ids) cells.push_back({id, "", "", 0, ""});
  if (!harness::all_flags_read(opt)) return 2;
  PRAGMALIST_CHECK(!cells.empty(), "the grid has no cells");

  const std::string schedule(soak_schedule_name(cfg.schedule));
  std::cout << "Soak grid, schedule=" << schedule << ", "
            << duration_ms / 1000.0 << " s/run (" << cfg.ticks << " ticks x "
            << cfg.tick_ms << " ms), max p=" << cfg.max_threads
            << ", u=" << cfg.universe << ", mix " << cfg.mix.add_pct << "/"
            << cfg.mix.rem_pct << "/" << cfg.mix.con_pct;
  if (cfg.mix.scan_pct > 0)
    std::cout << "/" << cfg.mix.scan_pct << " scans (width 1-"
              << cfg.scan_widths.max_width << ")";
  if (cfg.zipf_theta > 0.0)
    std::cout << ", keys zipf(" << cfg.zipf_theta << ")";
  std::cout << ", " << reps << " rep(s)";
  if (n_faults > 0) {
    std::cout << "\n" << n_faults << " faults (";
    for (int i = 0; i < faults::kNumFaultKinds; ++i)
      std::cout << (i ? " " : "")
                << faults::fault_kind_name(faults::kAllFaultKinds[i]) << "="
                << plan.count(faults::kAllFaultKinds[i]);
    std::cout << "), reap delay " << cfg.reap_delay_ticks
              << " tick(s); recovery = last fault -> first clean blast"
              << " sample, twin = the fault-free run's fp/limbo peaks";
  }
  std::cout << "\n(fp = allocated-not-freed nodes, limbo = retired-not-freed;"
            << " peak over the series / value at the end";
  if (cfg.record_latency)
    std::cout << "; p99/p999 in us over all op classes";
  std::cout << ")\n\n";

  std::size_t id_width = 8;
  for (const auto& cell : cells)
    id_width = std::max(id_width, cell.id.size());
  const int w = static_cast<int>(id_width + 2);
  // setw counts bytes and the kops/recovery cells carry multibyte
  // glyphs (em dash / plus-minus), so columns are separated explicitly.
  std::cout << std::left << std::setw(w) << "variant" << std::right
            << std::setw(14) << "kops/s" << "  ";
  if (cfg.record_latency)
    std::cout << std::setw(9) << "p99us" << std::setw(9) << "p999us";
  std::cout << std::setw(10) << "arrivals" << std::setw(14) << "fp peak/end"
            << std::setw(16) << "limbo peak/end";
  if (n_faults > 0)
    std::cout << std::setw(14) << "recovery ms" << "  " << std::setw(9)
              << "faults" << std::setw(8) << "leaked" << std::setw(7)
              << "reaps" << std::setw(14) << "twin fp/limbo" << std::setw(5)
              << "ok";
  std::cout << "\n";

  // A CSV that cannot be written aborts the run: a gate reading the
  // previous run's file must not pass on stale numbers.
  std::ofstream csv("bench_soak.csv");
  PRAGMALIST_CHECK(csv.good(), "cannot write bench_soak.csv");
  csv << "id,schedule,reclaim,shards,reps,kops,kops_sd,footprint,limbo,"
         "fp_peak,limbo_peak,hint_hits,restarts,faults,"
         "inj_guard_held,inj_retire_skipped,inj_depart,inj_midop,reaps,"
         "recovered,recovery_ms,recovery_ms_sd,leaked,leaked_slabs,"
         "twin_fp_peak,twin_limbo_peak";
  bench::write_latency_header(csv);
  csv << '\n';

  std::vector<harness::LatencyRow> lat_rows;
  for (const auto& cell : cells) {
    CellResult twin, res;
    if (n_faults > 0) run_into(twin, cell.id, cfg, series);
    for (int rep = 0; rep < reps; ++rep) {
      service::SoakConfig run_cfg = cfg;
      run_cfg.faults = plan;
      run_cfg.seed = cfg.seed + static_cast<std::uint64_t>(rep);
      run_into(res, cell.id, run_cfg, series);
    }
    const harness::Summary kops = harness::summarize(res.kops);
    const harness::Summary recovery = harness::summarize(res.recovery);
    const harness::LatencyProfile* lat =
        cfg.record_latency ? &res.latency : nullptr;

    std::ostringstream fp, limbo, inj, twin_peaks;
    fp << res.fp_peak << "/" << res.footprint;
    limbo << res.limbo_peak << "/" << res.limbo;
    twin_peaks << twin.fp_peak << "/" << twin.limbo_peak;
    inj << n_faults << " ";
    for (int i = 0; i < faults::kNumFaultKinds; ++i)
      inj << (i ? "/" : "") << res.injected[i];
    std::cout << std::left << std::setw(w) << cell.id << std::right
              << std::setw(14) << harness::summary_cell(kops, 0) << "  ";
    if (lat) {
      const harness::LatHistogram all = lat->merged();
      std::cout << std::fixed << std::setprecision(1) << std::setw(9)
                << static_cast<double>(all.percentile(0.99)) / 1e3
                << std::setw(9)
                << static_cast<double>(all.percentile(0.999)) / 1e3;
    }
    std::cout << std::setw(10) << res.arrivals << std::setw(14) << fp.str()
              << std::setw(16) << limbo.str();
    if (n_faults > 0)
      std::cout << std::setw(14)
                << (recovery.n > 0 ? harness::summary_cell(recovery, 1) : "—")
                << "  " << std::setw(9) << inj.str() << std::setw(8)
                << res.leaked << std::setw(7) << res.reaps << std::setw(14)
                << twin_peaks.str() << std::setw(5) << (res.recovered ? "yes" : "NO");
    std::cout << "\n";
    if (!res.load.empty()) std::cout << "    " << res.load << "\n";
    if (lat)
      lat_rows.push_back({cell.id, res.latency, kops.mean,
                          res.hint_hits / reps, res.restarts / reps});

    csv << cell.id << ',' << schedule << ',' << cell.reclaimer << ','
        << res.shards << ',' << reps << ','
        << harness::summary_csv_fields(kops, 1) << ',' << res.footprint
        << ',' << res.limbo << ',' << res.fp_peak << ',' << res.limbo_peak
        << ',' << res.hint_hits / reps << ',' << res.restarts / reps << ','
        << n_faults << ',';
    for (int i = 0; i < faults::kNumFaultKinds; ++i)
      csv << res.injected[i] << ',';
    csv << res.reaps << ',' << (res.recovered ? 1 : 0) << ','
        << (recovery.n > 0 ? harness::summary_csv_fields(recovery, 2) : ",")
        << ',' << res.leaked << ',' << res.leaked_slabs << ',';
    if (n_faults > 0) csv << twin.fp_peak << ',' << twin.limbo_peak;
    else csv << ',';
    bench::write_latency_fields(csv, lat);
    csv << '\n';
  }
  if (!lat_rows.empty()) {
    std::cout << "\n";
    harness::print_latency_table(std::cout, "Per-op-class latency (whole run)",
                                 lat_rows);
  }
  std::cout << "\ncsv: bench_soak.csv\n";
  return 0;
}
