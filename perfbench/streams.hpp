// The benchmark's workloads and the request streams generated for them.
//
// Every input a run hands the program comes from here and from --seed:
// the prefill keys and one request stream per client slot. README.md
// beside this file says why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/core/iset.hpp"
#include "src/harness/latency.hpp"
#include "src/workload/op_mix.hpp"

namespace perfbench {

namespace pl = pragmalist;

/// The served shape shared by every wire phase: a 2-worker server
/// driven by one loadgen thread over 4 depth-1 connections.
inline constexpr int kServerWorkers = 2;
inline constexpr int kLoadgenThreads = 1;
inline constexpr int kWireConnections = 4;
/// SCAN page of the zipf workloads (`SCAN key 64` / `ascend(key, 64)`).
inline constexpr int kScanPage = 64;

struct Workload {
  std::string_view name;
  std::string_view set_id;
  bool wire;    // served by net::Server and driven by net::run_loadgen
  int clients;  // client threads (in-process) or connections (wire)
  long universe;
  long prefill;
  pl::workload::OpMix mix;
  double zipf_theta;  // 0 selects uniform keys
  // Scans page with ascend(key, kScanPage), the call SCAN dispatches
  // to; otherwise they read range_scan(key, key + width - 1).
  bool ascend_scans;
  pl::workload::ScanWidths widths;
};

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

/// One generated request. `width` is the scan page or range width.
struct Op {
  std::int32_t key;
  std::uint8_t kind;  // workload::OpKind
  std::uint8_t width;
};
using Stream = std::vector<Op>;

/// Ops per client slot. Clients replay their stream cyclically, so this
/// bounds memory, not run length.
inline constexpr std::size_t kStreamOps = std::size_t{1} << 18;

/// One request stream per client of `w`. Client slot s draws its
/// stream the way net::run_loadgen draws connection slot s of its first
/// thread (kind, then key, from thread_seed(seed, s)), so list-zipf's
/// threads replay the first three wire-zipf connections' traffic.
std::vector<Stream> make_streams(const Workload& w, std::uint64_t seed);

/// Per-class op counts and an FNV-1a hash over a set of streams; the
/// self-test compares these across seeds.
struct StreamDigest {
  long counts[pl::harness::kNumOpClasses] = {};
  std::uint64_t hash = 0;
};
StreamDigest digest(const std::vector<Stream>& streams);

/// Insert `w.prefill` distinct keys drawn from `seed`, counting add()
/// successes on one scratch handle. The handle's counters stay out of
/// the run's ledger, which therefore reads prefill + adds - rems.
void prefill(pl::core::ISet& set, const Workload& w, std::uint64_t seed);

}  // namespace perfbench
