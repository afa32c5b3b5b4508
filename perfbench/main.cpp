// perfbench: run one workload of the repo benchmark, check what the
// program did, and print the metrics as one JSON line (the last line of
// standard output).
//
//   perfbench --workload list-churn --seed 1 --seconds 10 --trace 0
//   perfbench --describe --workload wire-zipf --seed 1
//
// --trace 0 reports the end-to-end metrics of an untraced run;
// --trace 1 reports the per-layer metrics. --describe prints the
// generated streams' per-class counts and hash and runs nothing.
// README.md beside this file lists the metrics and what they measure.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/streams.hpp"
#include "perfbench/trace.hpp"
#include "src/harness/catalog.hpp"
#include "src/net/loadgen.hpp"
#include "src/net/protocol.hpp"
#include "src/net/server.hpp"

namespace perfbench {
namespace {

using pl::core::ISet;
using pl::core::ISetHandle;
using pl::core::OpCounters;
using pl::harness::kNumOpClasses;
using pl::harness::LatencyProfile;
using pl::harness::LatHistogram;
using pl::harness::OpClass;
using pl::workload::OpKind;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 7;
/// Windows per untraced run; the end-to-end figures are their medians.
constexpr int kWindows = 10;
/// Length of the loopback probe that gives the list workloads' traced
/// run its net-layer figures.
constexpr double kProbeSeconds = 1.0;
/// Requests replayed through the parser and dispatcher in a traced run.
constexpr std::size_t kReplayOps = std::size_t{1} << 15;
/// Frames fed to the parser per timed batch (about one read's worth).
constexpr std::size_t kParseBatch = 64;
/// Handle leases timed for reclaim.lease_us.
constexpr int kLeases = 256;

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// What a run attempted, and everything that went wrong with it.
struct Verdict {
  long attempted = 0;
  long failed = 0;                  // ops that failed or went unanswered
  std::vector<std::string> broken;  // failed structural checks

  void fail(std::string why) { broken.push_back(std::move(why)); }
  bool correct() const { return broken.empty() && failed == 0; }
};

/// One set-up of a workload: the prefilled set, held directly
/// (in-process) or by a started server (wire).
struct Rig {
  std::unique_ptr<ISet> set;
  std::unique_ptr<pl::net::Server> server;
  double setup_s = 0.0;
  double prefill_s = 0.0;

  ISet& target() { return server ? server->set() : *set; }
};

Rig make_rig(const Workload& w, std::uint64_t seed, bool wire,
             bool record_latency) {
  Rig r;
  const std::uint64_t t0 = now_ns();
  if (wire) {
    pl::net::ServerConfig cfg;
    cfg.set_id = std::string(w.set_id);
    cfg.workers = kServerWorkers;
    cfg.record_latency = record_latency;
    r.server = std::make_unique<pl::net::Server>(cfg);
  } else {
    r.set = pl::harness::make_set(w.set_id);
  }
  const std::uint64_t tp = now_ns();
  prefill(r.target(), w, seed);
  r.prefill_s = seconds_since(tp);
  if (wire) {
    std::string err;
    if (!r.server->start(&err))
      throw std::runtime_error("server start failed: " + err);
  }
  r.setup_s = seconds_since(t0);
  return r;
}

/// validate(), the population ledger and a clean reclaim surface.
/// Returns the validate() time in ms.
double check_set(ISet& set, const Workload& w, const OpCounters& agg,
                 Verdict& v) {
  const std::uint64_t t0 = now_ns();
  std::string why;
  const bool valid = set.validate(&why);
  const double validate_ms = static_cast<double>(now_ns() - t0) / 1e6;
  if (!valid) v.fail("validate: " + why);
  const long live = static_cast<long>(set.size());
  const long expect = w.prefill + agg.adds - agg.rems;
  if (live != expect)
    v.fail("population ledger: " + std::to_string(live) + " live keys, " +
           std::to_string(expect) + " expected");
  const pl::faults::BlastStats blast = set.blast_stats();
  if (blast.crashed_slots != 0 || blast.leaked_cells != 0 ||
      blast.parked_limbo != 0)
    v.fail("reclaim surface not clean after the run");
  return validate_ms;
}

/// Samples the reclaimer's limbo depth and the allocator's live nodes
/// every few milliseconds while a window runs (both are safe to read
/// beside workers); quiescent, after the handles close, both read 0
/// limbo and one node per key.
class Sampler {
 public:
  explicit Sampler(const ISet& set)
      : set_(set), thread_([this] { loop(); }) {}
  ~Sampler() { stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void stop() {
    done_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  double mean_limbo() const { return ratio(limbo_, samples_); }
  double mean_nodes() const { return ratio(nodes_, samples_); }

 private:
  void loop() {
    while (!done_.load(std::memory_order_relaxed)) {
      limbo_ += static_cast<double>(set_.limbo_nodes());
      nodes_ += static_cast<double>(set_.allocated_nodes());
      samples_ += 1.0;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  const ISet& set_;
  double limbo_ = 0.0, nodes_ = 0.0, samples_ = 0.0;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

// --- measured phase ------------------------------------------------

/// The measured part of a run: back-to-back windows on one set-up. A
/// run reports the median window, which a passing disturbance on the
/// host moves less than it moves a single long window.
struct Phase {
  std::vector<double> kops, p50_us, p99_us;  // one entry per window
  double ops = 0.0;
  OpCounters agg;          // in-process handles, or the server's ledger
  LatencyProfile rtt;      // client round trip per class, all windows
  LatencyProfile core;     // traced in-process: list calls per class
  LatencyProfile service;  // wire: server service time, when recorded

  void add_window(double window_ops, double window_s,
                  const LatencyProfile& window_rtt) {
    ops += window_ops;
    kops.push_back(ratio(window_ops, window_s) / 1e3);
    const LatHistogram all = window_rtt.merged();
    p50_us.push_back(percentile_ns(all, 0.50) / 1e3);
    p99_us.push_back(percentile_ns(all, 0.99) / 1e3);
    rtt += window_rtt;
  }
};

OpClass class_of(const Op& op) { return static_cast<OpClass>(op.kind); }

/// Run one op, checking a scan's output. False when the output broke
/// the scan contract.
bool execute(ISetHandle& h, const Workload& w, const Op& op) {
  switch (static_cast<OpKind>(op.kind)) {
    case OpKind::kAdd:
      h.add(op.key);
      return true;
    case OpKind::kRemove:
      h.remove(op.key);
      return true;
    case OpKind::kContains:
      h.contains(op.key);
      return true;
    case OpKind::kScan:
      break;
  }
  if (w.ascend_scans) {
    const std::vector<long> keys = h.ascend(op.key, op.width);
    if (keys.size() > op.width) return false;
    long last = static_cast<long>(op.key) - 1;
    for (const long k : keys) {
      if (k <= last) return false;
      last = k;
    }
    return true;
  }
  const long lo = op.key, hi = op.key + op.width - 1;
  long last = lo - 1;
  bool ok = true;
  h.range_scan(lo, hi, [&](long k) {
    if (k <= last || k > hi) ok = false;
    last = k;
  });
  return ok;
}

/// One in-process window. Client thread t replays streams[t] from
/// pos[t] (cyclically) in a closed loop until the window closes, timing
/// every call; pos[t] is left where the next window resumes.
void list_window(ISet& set, const Workload& w,
                 const std::vector<Stream>& streams,
                 std::vector<std::size_t>& pos, double seconds, bool traced,
                 Phase& ph, Verdict& v) {
  const auto n = static_cast<std::size_t>(w.clients);
  std::vector<std::unique_ptr<LatencyProfile>> rtts, cores;
  for (std::size_t t = 0; t < n; ++t) {
    rtts.push_back(std::make_unique<LatencyProfile>());
    cores.push_back(std::make_unique<LatencyProfile>());
  }
  std::vector<OpCounters> counters(n);
  std::vector<long> scan_failures(n, 0);
  std::vector<std::uint64_t> ends(n, 0);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::uint64_t deadline = 0;

  std::vector<std::thread> team;
  for (std::size_t t = 0; t < n; ++t) {
    team.emplace_back([&, t] {
      auto inner = set.make_handle();
      TimedHandle timed(*inner, *cores[t]);
      ISetHandle& h = traced ? static_cast<ISetHandle&>(timed) : *inner;
      LatencyProfile& rtt = *rtts[t];
      const Stream& s = streams[t];
      std::size_t i = pos[t];
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (;;) {
        const Op& op = s[i];
        i = (i + 1) % s.size();
        const std::uint64_t t0 = now_ns();
        if (!execute(h, w, op)) ++scan_failures[t];
        const std::uint64_t t1 = now_ns();
        rtt.of(class_of(op)).record(t1 - t0);
        if (t1 >= deadline) break;
      }
      ends[t] = now_ns();
      pos[t] = i;
      counters[t] = inner->counters();
    });
  }
  while (ready.load(std::memory_order_acquire) != n) std::this_thread::yield();
  const std::uint64_t start = now_ns();
  deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (auto& th : team) th.join();

  OpCounters agg;
  LatencyProfile rtt;
  for (std::size_t t = 0; t < n; ++t) {
    agg += counters[t];
    rtt += *rtts[t];
    ph.core += *cores[t];
    v.failed += scan_failures[t];
  }
  const auto last_end = *std::max_element(ends.begin(), ends.end());
  ph.add_window(static_cast<double>(agg.total_ops()),
                static_cast<double>(last_end - start) / 1e9, rtt);
  ph.agg += agg;
  v.attempted += agg.total_ops();
}

/// One wire window: loadgen drives rig's server for `seconds`. Window k
/// draws its requests from seed ^ k * golden, so window 0 sends exactly
/// the streams make_streams() describes. `acked` carries the ops the
/// client saw acknowledged in earlier windows, for the ledger check.
void wire_window(Rig& rig, const Workload& w, std::uint64_t seed, int k,
                 double seconds, long& acked, Phase& ph, Verdict& v) {
  pl::net::LoadGenConfig cfg;
  cfg.port = rig.server->port();
  cfg.threads = kLoadgenThreads;
  cfg.connections = kWireConnections;
  cfg.duration_ms = std::max(1L, static_cast<long>(seconds * 1000.0));
  cfg.mix = w.mix;
  cfg.universe = static_cast<std::uint64_t>(w.universe);
  cfg.zipf_theta = w.zipf_theta;
  cfg.scan_count = kScanPage;
  cfg.seed = seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL);
  const pl::net::LoadGenResult lg = pl::net::run_loadgen(cfg);

  if (!lg.ok) v.fail("loadgen: " + lg.error);
  v.attempted += lg.total_sent();
  v.failed += lg.total_sent() - lg.total_completed();
  acked += lg.total_completed();
  // INFO's total_ops is cumulative over the server's life.
  if (lg.server_total_ops != acked)
    v.fail("wire ledger: server counted " +
           std::to_string(lg.server_total_ops) + " ops, client " +
           std::to_string(acked));
  ph.add_window(static_cast<double>(lg.total_completed()), lg.ms / 1e3,
                lg.profile);
}

/// One warm-up window, then `windows` measured windows of seconds /
/// windows each on rig. The warm-up's ops are checked like the rest but
/// kept out of the per-window figures: the first window after set-up
/// pays for first-touch page faults and cold caches. A wire phase ends
/// with the server stopped, so the set is quiescent either way; its
/// rtt profile keeps the warm-up, as the server's service profile
/// cannot leave it out.
void run_phase(Rig& rig, const Workload& w, std::uint64_t seed,
               const std::vector<Stream>& streams, double seconds,
               int windows, bool traced, Phase& ph, Verdict& v) {
  const double each = seconds / windows;
  Phase warmup;
  if (rig.server) {
    long acked = 0;
    for (int k = 0; k <= windows; ++k)
      wire_window(rig, w, seed, k, each, acked, k ? ph : warmup, v);
    ph.rtt += warmup.rtt;
    rig.server->stop();
    ph.agg = rig.server->ledger();
    ph.service = rig.server->latency();
    return;
  }
  std::vector<std::size_t> pos(streams.size(), 0);
  for (int k = 0; k <= windows; ++k)
    list_window(*rig.set, w, streams, pos, each, traced, k ? ph : warmup, v);
  ph.agg += warmup.agg;
}

// --- replay through the wire path on one thread ---------------------

struct ReplayResult {
  double encode_ns = 0.0;
  double parse_ns = 0.0;
  double request_bytes = 0.0;
  double reply_bytes = 0.0;
  LatencyProfile dispatch;  // dispatch_request calls, per class
  LatencyProfile core;      // list calls made by the dispatcher
  OpCounters ctr;
};

std::vector<std::string> request_of(const Op& op) {
  const std::string key = std::to_string(op.key);
  switch (static_cast<OpKind>(op.kind)) {
    case OpKind::kAdd: return {"SET", key};
    case OpKind::kRemove: return {"DEL", key};
    case OpKind::kContains: return {"GET", key};
    case OpKind::kScan: break;
  }
  return {"SCAN", key, std::to_string(op.width)};
}

/// Encode a prefix of `s` as request frames, parse them back through
/// FrameParser::next and dispatch each with dispatch_request against a
/// handle of `set`, timing every stage.
void replay(ISet& set, const Stream& s, ReplayResult& r, Verdict& v) {
  namespace proto = pl::net::protocol;
  const std::size_t n = std::min(s.size(), kReplayOps);
  std::vector<std::vector<std::string>> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) requests.push_back(request_of(s[i]));

  std::string wire;
  wire.reserve(n * 48);
  std::vector<std::size_t> ends(n);
  std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    proto::encode_request(wire, requests[i]);
    ends[i] = wire.size();
  }
  r.encode_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(n);
  r.request_bytes = static_cast<double>(wire.size()) / static_cast<double>(n);

  proto::FrameParser parser;
  std::vector<std::vector<std::string>> parsed(n);
  std::uint64_t parse_total = 0;
  std::size_t fed = 0;
  for (std::size_t b = 0; b < n; b += kParseBatch) {
    const std::size_t e = std::min(n, b + kParseBatch);
    parser.feed(wire.data() + fed, ends[e - 1] - fed);
    fed = ends[e - 1];
    t0 = now_ns();
    for (std::size_t i = b; i < e; ++i) {
      if (parser.next(&parsed[i]) != proto::ParseStatus::kFrame) {
        v.fail("replay: request frame " + std::to_string(i) +
               " did not parse: " + parser.error());
        return;
      }
    }
    parse_total += now_ns() - t0;
  }
  r.parse_ns = static_cast<double>(parse_total) / static_cast<double>(n);

  auto inner = set.make_handle();
  TimedHandle timed(*inner, r.core);
  std::string out;
  std::size_t reply_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.clear();
    t0 = now_ns();
    const pl::net::DispatchOutcome o =
        pl::net::dispatch_request(parsed[i], timed, out);
    r.dispatch.of(o.cls).record(now_ns() - t0);
    if (!o.data_op || o.error) ++v.failed;
    reply_total += out.size();
  }
  r.reply_bytes = static_cast<double>(reply_total) / static_cast<double>(n);
  r.ctr = inner->counters();
  v.attempted += static_cast<long>(n);
}

// --- metrics ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

double rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double max_over_mean(const std::vector<double>& v) {
  if (v.empty()) return 1.0;  // unsharded: one list carries everything
  double sum = 0.0, mx = 0.0;
  for (const double x : v) {
    sum += x;
    mx = std::max(mx, x);
  }
  return ratio(mx, sum / static_cast<double>(v.size()));
}

std::string cls_name(int c) {
  return pl::harness::op_class_name(static_cast<OpClass>(c));
}

Metrics run_untraced(const Workload& w, std::uint64_t seed, double seconds,
                     Verdict& v) {
  std::vector<double> setups;
  Rig rig;
  for (int k = 0; k < kSetups; ++k) {
    rig = Rig{};  // tear the previous set-up down before the next
    rig = make_rig(w, seed, w.wire, /*record_latency=*/false);
    setups.push_back(rig.setup_s);
  }

  const std::vector<Stream> streams =
      w.wire ? std::vector<Stream>{} : make_streams(w, seed);
  Phase ph;
  run_phase(rig, w, seed, streams, seconds, kWindows, /*traced=*/false, ph,
            v);
  check_set(rig.target(), w, ph.agg, v);

  const double per_window = ph.ops / kWindows;
  std::printf("# %s: %.0f ops in %d windows of %.3f s after a warm-up "
              "window; %.0f round trips per window, %.0f beyond its p99; "
              "median window %.1f kops/s\n",
              std::string(w.name).c_str(), ph.ops, kWindows,
              seconds / kWindows, per_window, per_window / 100.0,
              median(ph.kops));
  return {
      {"rtt_p50_us", median(ph.p50_us), "us"},
      {"setup_s", median(setups), "s"},
      {"rss_mb", rss_mb(), "MB"},
  };
}

/// Per-layer figures of a wire phase: client round trip and server
/// service time per class, and the mean-RTT reconciliation.
void wire_metrics(const Phase& ph, const ReplayResult& rp, Metrics& m) {
  for (int c = 0; c < kNumOpClasses; ++c) {
    const LatHistogram& h = ph.rtt.per_class[c];
    m.push_back({"net.loadgen.rtt_p50_us." + cls_name(c),
                 percentile_ns(h, 0.50) / 1e3, "us"});
    m.push_back({"net.loadgen.rtt_p99_us." + cls_name(c),
                 percentile_ns(h, 0.99) / 1e3, "us"});
  }
  for (int c = 0; c < kNumOpClasses; ++c) {
    const LatHistogram& h = ph.service.per_class[c];
    m.push_back({"net.server.service_p50_us." + cls_name(c),
                 percentile_ns(h, 0.50) / 1e3, "us"});
    m.push_back({"net.server.service_p99_us." + cls_name(c),
                 percentile_ns(h, 0.99) / 1e3, "us"});
  }
  const double rtt_us = mean_ns(ph.rtt.merged()) / 1e3;
  const double parse_us = rp.parse_ns / 1e3;
  const double dispatch_us = mean_ns(ph.service.merged()) / 1e3;
  const double rest_us = rtt_us - parse_us - dispatch_us;
  std::printf("# wire budget (mean per request over %llu round trips)\n",
              static_cast<unsigned long long>(ph.rtt.total_count()));
  const auto row = [rtt_us](const char* stage, double us) {
    std::printf("#   %-40s %10.3f us %7.2f%%\n", stage, us,
                100.0 * ratio(us, rtt_us));
  };
  row("parse (FrameParser::next)", parse_us);
  row("dispatch (list op + reply encode)", dispatch_us);
  row("unattributed (kernel, loopback, epoll)", rest_us);
  row("= mean round trip", rtt_us);
  m.push_back({"net.unattributed_us", rest_us, "us"});
}

Metrics run_traced(const Workload& w, std::uint64_t seed, double seconds,
                   Verdict& v) {
  const double half = seconds / 2.0;
  const int windows = std::max(1, kWindows / 2);
  const std::vector<Stream> streams = make_streams(w, seed);
  std::vector<double> prefills;

  // The same set-up and windows untraced, for trace.overhead_pct and
  // for throughput and the round-trip tail. On the wire both move with
  // host contention several times more than the median round trip
  // does, too much to gate on, so they are per-layer figures.
  double kops_untraced = 0.0, rtt_p99_us = 0.0;
  {
    Rig a = make_rig(w, seed, w.wire, /*record_latency=*/false);
    prefills.push_back(a.prefill_s);
    Phase pa;
    run_phase(a, w, seed, streams, half, windows, /*traced=*/false, pa, v);
    check_set(a.target(), w, pa.agg, v);
    kops_untraced = median(pa.kops);
    rtt_p99_us = median(pa.p99_us);
  }

  Rig b = make_rig(w, seed, w.wire, /*record_latency=*/true);
  prefills.push_back(b.prefill_s);
  ISet& set = b.target();
  Phase pb;
  Sampler sampler(set);
  run_phase(b, w, seed, streams, half, windows, /*traced=*/true, pb, v);
  sampler.stop();

  // The served structure's calls cannot be decorated from outside
  // src/, so on the wire the core timings come from the replay.
  ReplayResult rp;
  replay(set, streams[0], rp, v);
  const LatencyProfile& core = w.wire ? rp.core : pb.core;
  const OpCounters traffic = pb.agg;
  OpCounters agg = pb.agg;
  agg += rp.ctr;

  std::vector<double> leases;
  for (int i = 0; i < kLeases; ++i) {
    const std::uint64_t t0 = now_ns();
    set.make_handle().reset();
    leases.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  std::vector<double> shard_ops, shard_keys;
  for (const long x : set.shard_ops())
    shard_ops.push_back(static_cast<double>(x));
  for (const std::size_t x : set.shard_sizes())
    shard_keys.push_back(static_cast<double>(x));
  const double validate_ms = check_set(set, w, agg, v);
  const double live = static_cast<double>(set.size());

  Metrics m = {{"throughput_kops", kops_untraced, "kops/s"},
               {"rtt_p99_us", rtt_p99_us, "us"}};
  if (w.wire) {
    wire_metrics(pb, rp, m);
  } else {
    // What the wire would add to this traffic: a short loopback phase
    // over a fresh set-up of the same structure.
    Rig probe = make_rig(w, seed, /*wire=*/true, /*record_latency=*/true);
    Phase pp;
    run_phase(probe, w, seed, {}, kProbeSeconds, 1, /*traced=*/true, pp, v);
    check_set(probe.target(), w, pp.agg, v);
    wire_metrics(pp, rp, m);
  }
  m.push_back({"net.protocol.parse_ns", rp.parse_ns, "ns"});
  m.push_back({"net.protocol.encode_request_ns", rp.encode_ns, "ns"});
  for (int c = 0; c < kNumOpClasses; ++c)
    m.push_back({"net.server.dispatch_ns." + cls_name(c),
                 percentile_ns(rp.dispatch.per_class[c], 0.50), "ns"});
  m.push_back({"net.protocol.request_bytes", rp.request_bytes, "B"});
  m.push_back({"net.protocol.reply_bytes", rp.reply_bytes, "B"});

  for (int c = 0; c < kNumOpClasses; ++c) {
    m.push_back({"core.op_p50_ns." + cls_name(c),
                 percentile_ns(core.per_class[c], 0.50), "ns"});
    m.push_back({"core.op_p99_ns." + cls_name(c),
                 percentile_ns(core.per_class[c], 0.99), "ns"});
  }
  const auto ops = static_cast<double>(traffic.total_ops());
  m.push_back({"core.hint_hits_per_op",
               ratio(static_cast<double>(traffic.hint_hits), ops), "ratio"});
  m.push_back({"core.restarts_per_mop",
               ratio(static_cast<double>(traffic.restarts), ops) * 1e6,
               "1/Mop"});
  m.push_back({"core.scan_keys_per_call",
               ratio(static_cast<double>(traffic.scans),
                     static_cast<double>(traffic.scan_calls)),
               "keys"});
  m.push_back({"shard.ops_max_over_mean", max_over_mean(shard_ops), "ratio"});
  m.push_back(
      {"shard.keys_max_over_mean", max_over_mean(shard_keys), "ratio"});
  m.push_back({"reclaim.limbo_nodes", sampler.mean_limbo(), "nodes"});
  m.push_back({"reclaim.lease_us", median(leases), "us"});
  m.push_back(
      {"alloc.nodes_per_key", ratio(sampler.mean_nodes(), live), "ratio"});
  m.push_back({"harness.prefill_s", median(prefills), "s"});
  m.push_back({"harness.validate_ms", validate_ms, "ms"});
  const double kops_traced = median(pb.kops);
  m.push_back({"trace.overhead_pct",
               100.0 * ratio(kops_untraced - kops_traced, kops_untraced),
               "%"});
  return m;
}

// --- command line ----------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool describe = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      a.describe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 600.0)
        return false;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else {
      return false;
    }
  }
  return true;
}

void print_json(const Verdict& v, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              v.correct() ? "true" : "false", v.attempted,
              v.broken.empty() ? v.failed : v.attempted);
  for (std::size_t i = 0; i < m.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m[i].name.c_str(),
                std::isfinite(m[i].value) ? m[i].value : 0.0, m[i].unit);
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  const Workload* w = nullptr;
  if (!parse_args(argc, argv, args) ||
      (w = find_workload(args.workload)) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> [--seed n] "
                 "[--seconds s] [--trace 0|1] [--describe]\nworkloads:");
    for (const auto& wl : workloads())
      std::fprintf(stderr, " %s", std::string(wl.name).c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  if (args.describe) {
    const StreamDigest d = digest(make_streams(*w, args.seed));
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"counts\": {",
                std::string(w->name).c_str(),
                static_cast<unsigned long long>(args.seed));
    for (int c = 0; c < kNumOpClasses; ++c)
      std::printf("%s\"%s\": %ld", c ? ", " : "", cls_name(c).c_str(),
                  d.counts[c]);
    std::printf("}, \"hash\": \"%016llx\"}\n",
                static_cast<unsigned long long>(d.hash));
    return 0;
  }

  Verdict v;
  Metrics m;
  try {
    m = args.trace ? run_traced(*w, args.seed, args.seconds, v)
                   : run_untraced(*w, args.seed, args.seconds, v);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const double attempted = static_cast<double>(v.attempted);
  std::printf("# failed_frac %.6g (%ld of %ld ops)\n",
              ratio(static_cast<double>(v.failed), attempted), v.failed,
              v.attempted);
  for (const std::string& why : v.broken)
    std::printf("# CHECK FAILED: %s\n", why.c_str());
  if (!v.correct()) {
    print_json(v, {});
    return 1;
  }
  print_json(v, m);
  return 0;
}
