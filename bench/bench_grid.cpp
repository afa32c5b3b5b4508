// The beyond-paper grid runner: the paper's randomized mixed-operation
// benchmark swept over
//
//   variant x reclaimer x shard count x twin    (bench::expand_grid)
//   plus any explicit catalog ids               (--ids)
//
// crossed with every requested key distribution and scan share. Every
// cell runs run_random_mix, or run_fixed_rate under --rate (each
// worker issues R intended ops/s and latency is charged from the
// *intended* start, so a stall bills the ops queued behind it).
//
// What the grid prices: the arena's deferred reclamation vs EBR vs HP
// (the footprint column grows with every insert under the arena and
// stays near the live set otherwise; EBR pins once per scan so limbo
// grows with scan width, HP re-anchors per step), the slab allocator
// vs its `/heap` malloc twin, the hint index vs its `/nohint` twin,
// shard fan-out (a shard-load line under every sharded row shows hot
// shards under --dist zipf), and per-op-class tails.
//
// No number is reported from a broken cell. After every run: the
// structure validates, the population ledger balances (size == f +
// adds - rems), a quiescent full-range scan reproduces snapshot() (for
// sharded sets, the k-way merge against the sorted concatenation), and
// p50 <= p99 <= p999 <= max holds on every recorded op class. The
// driver also checks every scanned key in-line for ascending order. A
// flag this binary does not read aborts the run: a typo such as
// `--twin nohint` must not quietly run a different grid.
//
// Output: one human table and bench_grid.csv, one row per cell under
// the header
//
//   id,mix,dist,mode,kops,footprint,limbo,hint_hits,restarts,
//   keys_per_scan, then for each class in add,remove,contains,scan:
//   <class>_count,<class>_p50_ns,_p90_ns,_p99_ns,_p999_ns,_max_ns
//
// where mix is add/rem/con/scan percent, dist is `uniform` or
// `zipf:THETA`, mode is `throughput` or `rate:R`, and the latency
// fields are empty when latency is off (--no-latency).
//
//   bench_grid [--threads P] [--c OPS] [--u UNIVERSE] [--f PREFILL]
//              [--seed S] [--variants b,f | ids | all]
//              [--reclaim arena,ebr,hp] [--shards 1,4]
//              [--twins heap,nohint] [--ids ID,ID,...]
//              [--mix scaling|table|reads] [--scan-frac 0,40]
//              [--scan-width W] [--dist uniform,zipf:0.9]
//              [--rate OPS_PER_SEC_PER_THREAD] [--no-latency] [--no-pin]
//
// --variants takes paper row letters, ids or `all` (rows a-f plus
// unrolled_k8); it defaults to b,f, or to no grid at all when --ids is
// given alone. --mix picks the base mix (25/25/50, the paper's
// 10/10/80, or the contains-heavy 3/3/94) and each --scan-frac share
// is carved out of its contains share. Scan widths are uniform in
// [1, --scan-width]. A bare `zipf` in --dist means theta 0.99.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/harness/drivers.hpp"
#include "src/workload/op_mix.hpp"

namespace {

using namespace pragmalist;

struct Dist {
  std::string name;  // the CSV dist column
  harness::KeyDist dist;
};

Dist parse_dist(const std::string& token) {
  if (token == "uniform") return {token, harness::KeyDist::uniform()};
  if (token == "zipf") return parse_dist("zipf:0.99");
  PRAGMALIST_CHECK(token.rfind("zipf:", 0) == 0,
                   "--dist takes uniform, zipf or zipf:THETA");
  const std::string theta = token.substr(5);
  char* end = nullptr;
  const double t = std::strtod(theta.c_str(), &end);
  PRAGMALIST_CHECK(end != theta.c_str() && *end == '\0' && t > 0.0,
                   "--dist zipf:THETA needs a positive number");
  return {token, harness::KeyDist::zipf(t)};
}

workload::OpMix base_mix(const std::string& name) {
  if (name == "table") return workload::kTableMix;
  if (name == "reads") return workload::kReadMostlyMix;
  PRAGMALIST_CHECK(name == "scaling", "--mix must be scaling, table or reads");
  return workload::kScalingMix;
}

std::string mix_name(const workload::OpMix& m) {
  return std::to_string(m.add_pct) + "/" + std::to_string(m.rem_pct) + "/" +
         std::to_string(m.con_pct) + "/" + std::to_string(m.scan_pct);
}

/// The post-run checks every cell passes before it is reported.
void check_cell(core::ISet& set, long prefill, const harness::RunResult& res,
                const harness::LatencyProfile* lat) {
  bench::check_valid(set);
  PRAGMALIST_CHECK(
      static_cast<long>(set.size()) == prefill + res.agg.adds - res.agg.rems,
      "population ledger does not balance after the run");
  std::vector<long> scanned;
  set.make_handle()->range_scan(std::numeric_limits<long>::min(),
                                std::numeric_limits<long>::max(),
                                [&](long k) { scanned.push_back(k); });
  PRAGMALIST_CHECK(scanned == set.snapshot(),
                   "quiescent full-range scan does not match snapshot()");
  if (lat == nullptr) return;
  for (int cls = 0; cls < harness::kNumOpClasses; ++cls) {
    const auto& h = lat->of(static_cast<harness::OpClass>(cls));
    if (h.count() == 0) continue;
    PRAGMALIST_CHECK(h.percentile(0.50) <= h.percentile(0.99) &&
                         h.percentile(0.99) <= h.percentile(0.999) &&
                         h.percentile(0.999) <= h.max(),
                     "percentiles are not monotone");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = harness::Options::parse(argc, argv);
  const int p = bench::default_threads(opt, 16);
  const long c = opt.get_long("c", 25000);
  const long u = opt.get_long("u", 4096);
  const long f = opt.get_long("f", 1000);
  const auto seed = static_cast<std::uint64_t>(opt.get_long("seed", 42));
  const bool pin = !opt.get_bool("no-pin");
  const bool latency = bench::latency_enabled(opt);
  const double rate = opt.get_double("rate", 0.0);
  const workload::ScanWidths widths = bench::scan_widths(opt);

  const std::vector<std::string> ids = opt.get_string_list("ids", {});
  std::vector<std::string> variants;
  if (ids.empty() || !opt.get_string_list("variants", {}).empty())
    variants = bench::select_variants(opt, {"b", "f"});
  const std::vector<std::string> reclaimers =
      opt.get_string_list("reclaim", {"arena", "ebr", "hp"});
  const std::vector<long> shards = opt.get_longs("shards", {1});
  std::vector<std::string> suffixes = {""};
  for (const auto& twin : opt.get_string_list("twins", {})) {
    PRAGMALIST_CHECK(twin == "heap" || twin == "nohint",
                     "--twins takes heap and/or nohint");
    suffixes.push_back("/" + twin);
  }

  const workload::OpMix base = base_mix(opt.get_string("mix", "scaling"));
  std::vector<workload::OpMix> mixes;
  for (const long frac : opt.get_longs("scan-frac", {0}))
    mixes.push_back(bench::with_scans(base, static_cast<int>(frac)));
  std::vector<Dist> dists;
  for (const auto& token : opt.get_string_list("dist", {"uniform"}))
    dists.push_back(parse_dist(token));

  if (!harness::all_flags_read(opt)) return 2;

  std::vector<std::string> cells;
  for (const auto& g : bench::expand_grid(variants, reclaimers, shards,
                                          suffixes))
    cells.push_back(g.id);
  cells.insert(cells.end(), ids.begin(), ids.end());
  PRAGMALIST_CHECK(!cells.empty(), "the grid has no cells");

  std::ostringstream mode;
  if (rate > 0.0)
    mode << "rate:" << rate;
  else
    mode << "throughput";

  std::size_t id_width = 8;
  for (const auto& id : cells) id_width = std::max(id_width, id.size());
  const int w = static_cast<int>(id_width + 2);
  std::cout << "Grid, p=" << p << ", c=" << c << ", u=" << u << ", f=" << f
            << ", scan widths 1-" << widths.max_width << ", mode "
            << mode.str()
            << (rate > 0.0 ? " ops/s/worker (latency from intended start)"
                           : " (latency from observed start)")
            << "\n(mix = add/rem/con/scan %; fp = nodes still allocated"
            << " after the run; keys = keys per scan)\n\n";
  std::cout << std::left << std::setw(w) << "id" << std::setw(13) << "mix"
            << std::setw(11) << "dist" << std::right << std::setw(11)
            << "kops/s" << std::setw(10) << "fp" << std::setw(8) << "limbo"
            << std::setw(8) << "keys" << std::setw(11) << "hints"
            << std::setw(9) << "restarts" << "  latency\n";

  // A CSV that cannot be written aborts the run: a gate reading the
  // previous run's file must not pass on stale numbers.
  std::ofstream csv("bench_grid.csv");
  PRAGMALIST_CHECK(csv.good(), "cannot write bench_grid.csv");
  csv << "id,mix,dist,mode,kops,footprint,limbo,hint_hits,restarts,"
         "keys_per_scan";
  bench::write_latency_header(csv);
  csv << '\n';
  for (const auto& id : cells) {
    for (const auto& dist : dists) {
      for (const auto& mix : mixes) {
        auto set = harness::make_set(id);
        harness::LatencyProfile lat;
        long behind = 0;
        const harness::RunResult res =
            rate > 0.0
                ? harness::run_fixed_rate(*set, p, c, f, u, mix, seed, pin,
                                          rate, lat, &behind, dist.dist,
                                          widths)
                : harness::run_random_mix(*set, p, c, f, u, mix, seed, pin,
                                          dist.dist, widths,
                                          latency ? &lat : nullptr);
        const harness::LatencyProfile* recorded = latency ? &lat : nullptr;
        check_cell(*set, f, res, recorded);
        const std::size_t fp = set->allocated_nodes();
        const std::size_t limbo = set->limbo_nodes();
        const double keys_per_scan =
            res.agg.scan_calls > 0 ? static_cast<double>(res.agg.scans) /
                                         static_cast<double>(res.agg.scan_calls)
                                   : 0.0;

        std::cout << std::left << std::setw(w) << id << std::setw(13)
                  << mix_name(mix) << std::setw(11) << dist.name << std::right
                  << std::fixed << std::setprecision(0) << std::setw(11)
                  << res.kops_per_sec() << std::setw(10) << fp << std::setw(8)
                  << limbo << std::setprecision(1) << std::setw(8)
                  << keys_per_scan << std::setw(11) << res.agg.hint_hits
                  << std::setw(9) << res.agg.restarts << "  "
                  << (recorded ? harness::latency_summary_line(lat) : "")
                  << "\n";
        const std::string load = harness::shard_load_line(*set);
        if (!load.empty()) std::cout << "    " << load << "\n";
        if (behind > 0)
          std::cout << "    " << behind << " of " << res.total_ops
                    << " ops started >= 1 period late\n";

        csv << id << ',' << mix_name(mix) << ',' << dist.name << ','
            << mode.str() << ',' << res.kops_per_sec() << ',' << fp << ','
            << limbo << ',' << res.agg.hint_hits << ',' << res.agg.restarts
            << ',' << keys_per_scan;
        bench::write_latency_fields(csv, recorded);
        csv << '\n';
      }
    }
  }
  std::cout << "\ncsv: bench_grid.csv\n";
  return 0;
}
