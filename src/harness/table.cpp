#include "src/harness/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

namespace pragmalist::harness {

void print_paper_table(std::ostream& os, const std::string& title,
                       const std::vector<TableRow>& rows) {
  std::size_t label_width = 12;
  for (const auto& row : rows)
    label_width = std::max(label_width, row.label.size());

  os << "== " << title << " ==\n";
  os << std::left << std::setw(static_cast<int>(label_width + 2)) << "variant"
     << std::right << std::setw(12) << "ms" << std::setw(14) << "ops"
     << std::setw(12) << "Kops/s" << std::setw(10) << "adds" << std::setw(10)
     << "rems" << std::setw(12) << "con-hits" << "\n";
  for (const auto& row : rows) {
    const auto& r = row.result;
    os << std::left << std::setw(static_cast<int>(label_width + 2))
       << row.label << std::right << std::setw(12) << std::fixed
       << std::setprecision(2) << r.ms << std::setw(14) << r.total_ops
       << std::setw(12) << std::fixed << std::setprecision(1)
       << r.kops_per_sec() << std::setw(10) << r.agg.adds << std::setw(10)
       << r.agg.rems << std::setw(12) << r.agg.cons << "\n";
  }
}

void write_csv(std::ostream& os, const std::vector<TableRow>& rows) {
  os << "variant,ms,ops,kops_per_sec,adds,rems,con_hits,scan_calls,"
        "scanned_keys\n";
  for (const auto& row : rows) {
    const auto& r = row.result;
    os << row.label << ',' << r.ms << ',' << r.total_ops << ','
       << r.kops_per_sec() << ',' << r.agg.adds << ',' << r.agg.rems << ','
       << r.agg.cons << ',' << r.agg.scan_calls << ',' << r.agg.scans
       << "\n";
  }
}

namespace {

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

void print_latency_table(std::ostream& os, const std::string& title,
                         const std::vector<LatencyRow>& rows) {
  std::size_t label_width = 12;
  for (const auto& row : rows)
    label_width = std::max(label_width, row.label.size());

  os << "== " << title << " ==\n";
  os << std::left << std::setw(static_cast<int>(label_width + 2)) << "variant"
     << std::setw(10) << "class" << std::right << std::setw(10) << "count"
     << std::setw(11) << "p50(us)" << std::setw(11) << "p90(us)"
     << std::setw(11) << "p99(us)" << std::setw(11) << "p999(us)"
     << std::setw(11) << "max(us)" << std::setw(11) << "Kops/s"
     << std::setw(11) << "hints" << std::setw(10) << "restarts" << "\n";
  for (const auto& row : rows) {
    for (int c = 0; c < kNumOpClasses; ++c) {
      const auto cls = static_cast<OpClass>(c);
      const LatHistogram& h = row.profile.of(cls);
      if (h.count() == 0) continue;
      os << std::left << std::setw(static_cast<int>(label_width + 2))
         << row.label << std::setw(10) << op_class_name(cls) << std::right
         << std::setw(10) << h.count() << std::fixed << std::setprecision(1)
         << std::setw(11) << us(h.percentile(0.50)) << std::setw(11)
         << us(h.percentile(0.90)) << std::setw(11)
         << us(h.percentile(0.99)) << std::setw(11)
         << us(h.percentile(0.999)) << std::setw(11) << us(h.max())
         << std::setw(11) << row.kops << std::setw(11) << row.hint_hits
         << std::setw(10) << row.restarts << "\n";
    }
  }
}

std::string latency_summary_line(const LatencyProfile& profile) {
  const LatHistogram all = profile.merged();
  if (all.count() == 0) return {};
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << "p50=" << us(all.percentile(0.50))
     << "us p99=" << us(all.percentile(0.99)) << "us p999="
     << us(all.percentile(0.999)) << "us max=" << us(all.max()) << "us";
  return os.str();
}

std::string summary_cell(const Summary& s, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << s.mean << " "
     << stddev_cell(s, precision);
  return os.str();
}

std::string stddev_cell(const Summary& s, int precision) {
  if (!s.stddev_defined()) return "—";  // em dash: no spread exists
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << "±" << s.stddev;
  return os.str();
}

std::string summary_csv_fields(const Summary& s, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << s.mean << ",";
  if (s.stddev_defined()) os << s.stddev;
  return os.str();
}

double ShardLoad::imbalance() const {
  if (!sharded()) return 0.0;
  if (max_ops == 0) return 1.0;  // no traffic anywhere: degenerate spread
  if (min_ops <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(max_ops) / static_cast<double>(min_ops);
}

ShardLoad shard_load(const core::ISet& set) {
  ShardLoad load;
  load.ops = set.shard_ops();
  if (load.ops.empty()) return load;
  load.max_ops = *std::max_element(load.ops.begin(), load.ops.end());
  load.min_ops = *std::min_element(load.ops.begin(), load.ops.end());
  return load;
}

std::string shard_load_line(const core::ISet& set) {
  const ShardLoad load = shard_load(set);
  if (!load.sharded()) return {};
  std::ostringstream os;
  os << "shards=" << load.ops.size() << " ops[min " << load.min_ops
     << " max " << load.max_ops << " max/min ";
  const double imbalance = load.imbalance();
  if (std::isinf(imbalance))
    os << "inf";  // a shard saw no traffic at all
  else
    os << std::fixed << std::setprecision(2) << imbalance;
  os << "] per-shard:";
  for (const long ops : load.ops) os << ' ' << ops;
  return os.str();
}

}  // namespace pragmalist::harness
