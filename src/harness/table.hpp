// Paper-style result tables and their CSV twins, plus the shard-load
// summary the sharded benches print under each row.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "src/harness/drivers.hpp"
#include "src/harness/stats.hpp"

namespace pragmalist::harness {

struct TableRow {
  std::string label;
  RunResult result;
};

/// Render rows the way the paper prints its tables: one variant per
/// row with run time, throughput and the success counters.
void print_paper_table(std::ostream& os, const std::string& title,
                       const std::vector<TableRow>& rows);

/// Machine-readable twin of print_paper_table.
void write_csv(std::ostream& os, const std::vector<TableRow>& rows);

/// One bench row's latency profile, rendered as one line per non-empty
/// op class by print_latency_table. The run-level fields (throughput,
/// read-path progress counters from OpCounters::hint_hits/restarts) are
/// repeated on every class line of the row.
struct LatencyRow {
  std::string label;
  LatencyProfile profile;
  double kops = 0;        // whole-run throughput (Kops/s), 0 = unknown
  long hint_hits = 0;     // traversal starts taken from a shortcut
  long restarts = 0;      // lost anchors / abandoned passes
};

/// Human table: label, class, count, p50/p90/p99/p999/max in
/// microseconds, then the row-level Kops/s, hint hits and restarts.
/// Classes with zero samples are skipped.
void print_latency_table(std::ostream& os, const std::string& title,
                         const std::vector<LatencyRow>& rows);

/// "p50=12.3us p99=45.6us p999=78.9us max=123.4us" over the merged op
/// classes -- the compact per-run summary the bench grids append to a
/// row. Empty when the profile holds no samples.
std::string latency_summary_line(const LatencyProfile& profile);

/// Human cell for a repeated-run Summary: "12.3 ±1.4", or "12.3 —"
/// when the sample count cannot define a stddev (n < 2, where
/// Summary::stddev is NaN by contract) -- a table must render the
/// contract, never the literal "nan".
std::string summary_cell(const Summary& s, int precision = 1);

/// The spread alone: "±1.4", or "—" when undefined.
std::string stddev_cell(const Summary& s, int precision = 1);

/// CSV twin: "<mean>,<stddev>" with the stddev field left *empty*
/// ("12.3,") when undefined, so parsers see a missing value instead of
/// a non-numeric token.
std::string summary_csv_fields(const Summary& s, int precision = 1);

/// Per-shard load distribution of a sharded set, read quiescently via
/// ISet::shard_ops(). `sharded()` is false for every unsharded id, so
/// callers can print unconditionally.
struct ShardLoad {
  std::vector<long> ops;  // per-shard routed operations
  long max_ops = 0;
  long min_ops = 0;

  bool sharded() const { return ops.size() > 1; }

  /// max/min per-shard op ratio: 1.0 is a perfect spread, large values
  /// mean hot shards (a zipf stream concentrating on few shards), and
  /// +infinity when a shard saw no traffic at all (the most lopsided
  /// partition, printed as "inf"). 0 only for unsharded sets.
  double imbalance() const;
};

ShardLoad shard_load(const core::ISet& set);

/// One-line human summary: "shards=8 ops[min 812 max 1431
/// max/min 1.76] per-shard: 812 901 ..."; empty for unsharded sets.
std::string shard_load_line(const core::ISet& set);

}  // namespace pragmalist::harness
