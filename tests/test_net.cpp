// Network front-end tests: the RESP-subset frame/reply parsers under
// partial, pipelined and adversarial input; dispatch_request against a
// sequential std::set oracle; and an in-process loopback smoke --
// Server on an ephemeral port driven by the real run_loadgen engine,
// asserting the exact client/server ledger match, a valid structure
// and a bounded limbo afterwards, plus the injected-crash path
// (abandon -> -ERR -> re-lease -> supervisor reap) over the wire, the
// per-connection output bound against a never-reading pipeliner, and
// the spin-then-park wait both event loops share.
#include <gtest/gtest.h>

#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/catalog.hpp"
#include "src/net/loadgen.hpp"
#include "src/net/protocol.hpp"
#include "src/net/server.hpp"
#include "src/net/socket.hpp"

namespace pragmalist {
namespace {

using net::protocol::FrameParser;
using net::protocol::ParseStatus;
using net::protocol::Reply;
using net::protocol::ReplyParser;

std::string frame_of(const std::vector<std::string>& args) {
  std::string out;
  net::protocol::encode_request(out, args);
  return out;
}

// --- frame parser ----------------------------------------------------

TEST(FrameParser, RoundTripsOneFrame) {
  FrameParser p;
  p.feed(frame_of({"GET", "42"}));
  std::vector<std::string> args;
  ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  EXPECT_EQ(args, (std::vector<std::string>{"GET", "42"}));
  EXPECT_EQ(p.next(&args), ParseStatus::kNeedMore);
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(FrameParser, ByteAtATimeDelivery) {
  // kNeedMore at every prefix, exactly one frame at the last byte:
  // the partial-read path a real socket exercises constantly.
  const std::string wire = frame_of({"SET", "-987654321"});
  FrameParser p;
  std::vector<std::string> args;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    p.feed(wire.data() + i, 1);
    ASSERT_EQ(p.next(&args), ParseStatus::kNeedMore) << "at byte " << i;
  }
  p.feed(wire.data() + wire.size() - 1, 1);
  ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  EXPECT_EQ(args, (std::vector<std::string>{"SET", "-987654321"}));
}

TEST(FrameParser, DrainsAPipelinedBurst) {
  FrameParser p;
  std::string wire;
  for (int i = 0; i < 100; ++i)
    wire += frame_of({"GET", std::to_string(i)});
  p.feed(wire);
  std::vector<std::string> args;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
    EXPECT_EQ(args[1], std::to_string(i));
  }
  EXPECT_EQ(p.next(&args), ParseStatus::kNeedMore);
}

TEST(FrameParser, SplitAcrossFeedsMidPayload) {
  const std::string wire = frame_of({"SCAN", "100", "64"});
  FrameParser p;
  std::vector<std::string> args;
  p.feed(wire.substr(0, 9));
  EXPECT_EQ(p.next(&args), ParseStatus::kNeedMore);
  p.feed(wire.substr(9));
  ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  EXPECT_EQ(args, (std::vector<std::string>{"SCAN", "100", "64"}));
}

TEST(FrameParser, RejectsMalformedStreams) {
  // Each case must yield kError (sticky), never UB and never a frame.
  const std::vector<std::string> bad = {
      "GET 42\r\n",                    // inline command, not RESP
      "*x\r\n",                        // non-numeric argc
      "*0\r\n",                        // empty frame
      "*-1\r\n",                       // negative argc
      "*1\r\nGET\r\n",                 // missing bulk header
      "*1\r\n$3\r\nGETX\r\n",          // payload longer than declared
      "*1\r\n$-4\r\n",                 // negative bulk length
      "*99\r\n",                       // argc over kMaxArgs
      "*1\r\n$999999\r\n",             // bulk over kMaxBulk
      "*1\r\n$99999999999999999\r\n",  // length field overflow
  };
  for (const auto& wire : bad) {
    FrameParser p;
    p.feed(wire);
    std::vector<std::string> args;
    EXPECT_EQ(p.next(&args), ParseStatus::kError) << "input: " << wire;
    EXPECT_FALSE(p.error().empty());
    // Sticky until reset.
    p.feed(frame_of({"PING"}));
    EXPECT_EQ(p.next(&args), ParseStatus::kError);
    p.reset();
    p.feed(frame_of({"PING"}));
    EXPECT_EQ(p.next(&args), ParseStatus::kFrame);
  }
}

TEST(FrameParser, OversizedFrameIsRejectedNotBuffered) {
  // A frame that never completes but keeps growing must trip the
  // frame-size ceiling instead of buffering without bound.
  FrameParser p(/*max_frame=*/256);
  p.feed("*8\r\n");
  std::vector<std::string> args;
  ParseStatus st = ParseStatus::kNeedMore;
  for (int i = 0; i < 64 && st == ParseStatus::kNeedMore; ++i) {
    p.feed("$100\r\n");  // headers forever, payload never arrives
    st = p.next(&args);
  }
  EXPECT_EQ(st, ParseStatus::kError);
}

TEST(FrameParser, CompactsConsumedPrefix) {
  // A long-lived pipelined connection must not grow the buffer without
  // bound: after many consumed frames the retained bytes stay small.
  FrameParser p;
  std::vector<std::string> args;
  for (int i = 0; i < 10000; ++i) {
    p.feed(frame_of({"GET", std::to_string(i)}));
    ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  }
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(ParseKey, StrictDecimalLongs) {
  long v = 0;
  EXPECT_TRUE(net::protocol::parse_key("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(net::protocol::parse_key("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(net::protocol::parse_key("", &v));
  EXPECT_FALSE(net::protocol::parse_key("12x", &v));
  EXPECT_FALSE(net::protocol::parse_key("4.2", &v));
  EXPECT_FALSE(net::protocol::parse_key(" 1", &v));
  EXPECT_FALSE(net::protocol::parse_key("999999999999999999999999999", &v));
}

// --- reply parser ----------------------------------------------------

TEST(ReplyParser, RoundTripsEveryReplyType) {
  std::string wire;
  net::protocol::encode_simple(wire, "PONG");
  net::protocol::encode_error(wire, "ERR nope");
  net::protocol::encode_integer(wire, -3);
  net::protocol::encode_bulk(wire, "a:1\nb:2\n");
  net::protocol::encode_int_array(wire, {1, 2, 3});

  // Byte at a time, to cover every resume point.
  ReplyParser p;
  std::vector<Reply> got;
  for (char c : wire) {
    p.feed(&c, 1);
    Reply r;
    while (p.next(&r) == ParseStatus::kFrame) got.push_back(r);
  }
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].type, Reply::Type::kSimple);
  EXPECT_EQ(got[0].text, "PONG");
  EXPECT_EQ(got[1].type, Reply::Type::kError);
  EXPECT_EQ(got[1].text, "ERR nope");
  EXPECT_EQ(got[2].type, Reply::Type::kInteger);
  EXPECT_EQ(got[2].integer, -3);
  EXPECT_EQ(got[3].type, Reply::Type::kBulk);
  EXPECT_EQ(got[3].text, "a:1\nb:2\n");
  EXPECT_EQ(got[4].type, Reply::Type::kIntArray);
  EXPECT_EQ(got[4].ints, (std::vector<long>{1, 2, 3}));
}

TEST(ReplyParser, RejectsUnknownTypeByte) {
  ReplyParser p;
  p.feed("?what\r\n");
  Reply r;
  EXPECT_EQ(p.next(&r), ParseStatus::kError);
}

// --- dispatch vs sequential oracle -----------------------------------

/// Run one command through dispatch_request and decode the reply.
Reply dispatch(core::ISetHandle& handle,
               const std::vector<std::string>& args) {
  std::string out;
  net::dispatch_request(args, handle, out);
  ReplyParser p;
  p.feed(out);
  Reply r;
  EXPECT_EQ(p.next(&r), ParseStatus::kFrame);
  return r;
}

/// Every catalog id, fed random keys in [0, 512) plus both ends of the
/// long range -- keys the wire parser accepts, so no engine may refuse
/// or trip over them.
TEST(Dispatch, MatchesSequentialOracle) {
  constexpr long kExtremes[] = {std::numeric_limits<long>::min(),
                                std::numeric_limits<long>::max()};
  for (const std::string_view id : harness::all_variant_ids()) {
    SCOPED_TRACE(std::string(id));
    const auto set = harness::make_set(id);
    const auto handle = set->make_handle();
    std::set<long> oracle;
    std::uint64_t x = 12345;
    for (int i = 0; i < 4000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const long pick = static_cast<long>((x >> 33) % 520);
      const long key = pick < 512 ? pick : kExtremes[pick % 2];
      const int op = static_cast<int>((x >> 20) % 3);
      const std::string ks = std::to_string(key);
      if (op == 0) {
        const Reply r = dispatch(*handle, {"SET", ks});
        ASSERT_EQ(r.type, Reply::Type::kInteger);
        EXPECT_EQ(r.integer, oracle.insert(key).second ? 1 : 0);
      } else if (op == 1) {
        const Reply r = dispatch(*handle, {"DEL", ks});
        ASSERT_EQ(r.type, Reply::Type::kInteger);
        EXPECT_EQ(r.integer, oracle.erase(key) != 0 ? 1 : 0);
      } else {
        const Reply r = dispatch(*handle, {"GET", ks});
        ASSERT_EQ(r.type, Reply::Type::kInteger);
        EXPECT_EQ(r.integer, oracle.count(key) != 0 ? 1 : 0);
      }
    }
    // SCAN pages agree with the oracle's sorted order.
    for (const long from : {100L, kExtremes[0]}) {
      const Reply scan =
          dispatch(*handle, {"SCAN", std::to_string(from), "50"});
      ASSERT_EQ(scan.type, Reply::Type::kIntArray);
      std::vector<long> expect;
      for (auto it = oracle.lower_bound(from);
           it != oracle.end() && expect.size() < 50; ++it)
        expect.push_back(*it);
      EXPECT_EQ(scan.ints, expect);
    }
    std::string err;
    EXPECT_TRUE(set->validate(&err)) << err;
  }
}

TEST(Dispatch, ErrorsTouchNothing) {
  const auto set = harness::make_set("singly");
  const auto handle = set->make_handle();
  dispatch(*handle, {"SET", "7"});
  const std::vector<std::vector<std::string>> bad = {
      {"FROB", "7"},       // unknown command
      {"SET"},             // missing key
      {"GET", "7", "8"},   // extra arg
      {"DEL", "seven"},    // non-integer key
      {"SCAN", "0"},       // missing count
      {"SCAN", "0", "-1"}, // negative count
      {"PING", "x"},       // arity
  };
  for (const auto& args : bad) {
    const Reply r = dispatch(*handle, args);
    EXPECT_EQ(r.type, Reply::Type::kError) << args[0];
    EXPECT_EQ(r.text.rfind("ERR", 0), 0u) << r.text;
  }
  EXPECT_EQ(set->size(), 1u);
  const long ops_before = handle->counters().total_ops();
  EXPECT_EQ(ops_before, 1);  // only the one good SET dispatched
}

TEST(Dispatch, ScanCountIsClamped) {
  const auto set = harness::make_set("singly");
  const auto handle = set->make_handle();
  for (long k = 0; k < 64; ++k) handle->add(k);
  std::string out;
  const auto o =
      net::dispatch_request({"SCAN", "0", "99999999"}, *handle, out);
  EXPECT_TRUE(o.data_op);
  ReplyParser p;
  p.feed(out);
  Reply r;
  ASSERT_EQ(p.next(&r), ParseStatus::kFrame);
  EXPECT_EQ(r.ints.size(), 64u);  // all present keys, clamp held
}

// --- spin-then-park wait ---------------------------------------------

// An event that arrives while the wait spins is returned without a
// park; a wait with nothing to return parks and comes back at its
// timeout, and one whose timeout is shorter than the spin never parks.
TEST(Epoll, WaitSpinTakesAnEventInTheSpinAndParksWhenIdle) {
  using Clock = std::chrono::steady_clock;
  net::Epoll ep;
  net::WakeFd wake;
  ep.add(wake.get(), EPOLLIN);
  epoll_event evs[4];

  // The writer is already running on another CPU when the wait starts
  // and fires a few microseconds in, well inside the budget. A busy
  // host can still deschedule it past the budget, so one spun wait in
  // a few tries decides. With one CPU the writer cannot run during the
  // spin at all, so that case is not checked there.
  cpu_set_t cpus;
  const bool two_cpus = ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0 &&
                        CPU_COUNT(&cpus) >= 2;
  bool spun = !two_cpus;
  for (int attempt = 0; attempt < 20 && !spun; ++attempt) {
    std::atomic<bool> ready{false}, go{false};
    std::thread writer([&] {
      ready.store(true, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      const auto fire_at = Clock::now() + std::chrono::microseconds(3);
      while (Clock::now() < fire_at) {
      }
      wake.wake();
    });
    while (!ready.load(std::memory_order_acquire)) {
    }
    go.store(true, std::memory_order_release);
    const net::SpinWait w = ep.wait_spin(evs, 4, -1);
    writer.join();
    ASSERT_EQ(w.n, 1);
    EXPECT_EQ(evs[0].data.fd, wake.get());
    spun = !w.parked;
    wake.drain();
  }
  EXPECT_TRUE(spun) << "every wait parked although its event came in "
                       "the spin";

  const auto t0 = Clock::now();
  const net::SpinWait idle = ep.wait_spin(evs, 4, 5'000'000);
  const auto took = Clock::now() - t0;
  EXPECT_EQ(idle.n, 0);
  EXPECT_TRUE(idle.parked);
  EXPECT_GE(took, std::chrono::milliseconds(5));
  EXPECT_LT(took, std::chrono::seconds(1));  // parked until the timeout

  // A timeout under the budget (a paced send due soon) ends the spin
  // on time. Preemption only lengthens a wait, so the fastest of a few
  // decides.
  auto fastest = std::chrono::nanoseconds::max();
  for (int i = 0; i < 20; ++i) {
    const auto t = Clock::now();
    const net::SpinWait w = ep.wait_spin(evs, 4, 5'000);
    fastest = std::min<std::chrono::nanoseconds>(fastest, Clock::now() - t);
    EXPECT_EQ(w.n, 0);
    EXPECT_FALSE(w.parked);
  }
  EXPECT_LT(fastest.count(), net::kSpinBudgetNs);
}

// --- loopback server/client smoke ------------------------------------

TEST(Loopback, LedgerMatchesAndStructureSurvives) {
  net::ServerConfig scfg;
  scfg.port = 0;  // ephemeral
  scfg.set_id = "singly/ebr/sh2";
  scfg.workers = 2;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  net::LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.threads = 2;
  cfg.connections = 16;
  cfg.total_ops = 3000;
  cfg.universe = 1024;
  cfg.mix = {20, 20, 50, 10};
  const net::LoadGenResult res = net::run_loadgen(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.total_completed(), 3000);
  EXPECT_EQ(res.errors, 0);
  EXPECT_EQ(res.abandoned, 0);
  // The tentpole acceptance check, in-process: every acknowledged op
  // is in the server's ledger and nothing else is.
  EXPECT_TRUE(res.ledger_match)
      << "server=" << res.server_total_ops
      << " client=" << res.total_completed();

  server.stop();
  EXPECT_EQ(server.ledger().total_ops(), res.total_completed());
  core::ISet& set = server.set();
  std::string why;
  EXPECT_TRUE(set.validate(&why)) << why;
  // All leases departed cleanly: no crashed slots, nothing parked.
  const faults::BlastStats blast = set.blast_stats();
  EXPECT_EQ(blast.crashed_slots, 0u);
  EXPECT_EQ(blast.leaked_cells, 0u);
  EXPECT_EQ(blast.parked_limbo, 0u);
}

/// User plus system CPU time of this process, in seconds.
double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
             1e6;
}

// The workers spin after each event, but an idle server parks: once
// the load stops each worker spins one budget and then blocks, so the
// process burns next to no CPU while idle. Two workers that never
// parked would burn ~400 ms of CPU in the 200 ms window.
TEST(Loopback, IdleServerParks) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.set_id = "singly/ebr";
  scfg.workers = 2;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  const long parks_before = server.stats().parks;

  net::LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.threads = 1;
  cfg.connections = 4;
  cfg.total_ops = 2000;
  cfg.universe = 1024;
  const net::LoadGenResult res = net::run_loadgen(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.ledger_match);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const net::ServerStats loaded = server.stats();
  EXPECT_GT(loaded.parks, parks_before);
  EXPECT_GT(loaded.polls_spun, 0);
  const std::string info = server.info();
  EXPECT_NE(info.find("\nparks:"), std::string::npos);
  EXPECT_NE(info.find("\npolls_spun:"), std::string::npos);

  const double cpu0 = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double idle_cpu_s = process_cpu_s() - cpu0;
  EXPECT_LT(idle_cpu_s, 0.05) << "the idle server kept spinning";
  server.stop();
}

TEST(Loopback, ReconnectChurnKeepsLedgerExact) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.set_id = "unrolled_k8/hp";
  scfg.workers = 2;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  net::LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.threads = 2;
  cfg.connections = 12;
  // Duration mode so the waves schedule gets whole down->up cycles:
  // 14 ticks of 50 ms = half/full/half/full, so churned-out slots are
  // re-opened (reconnects) twice within the window.
  cfg.duration_ms = 700;
  cfg.universe = 512;
  cfg.schedule = service::SoakSchedule::kWaves;
  cfg.churn_ticks = 14;
  const net::LoadGenResult res = net::run_loadgen(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.reconnects, 0);  // churn actually churned
  EXPECT_EQ(res.abandoned, 0);
  EXPECT_TRUE(res.ledger_match)
      << "server=" << res.server_total_ops
      << " client=" << res.total_completed();

  server.stop();
  std::string why;
  EXPECT_TRUE(server.set().validate(&why)) << why;
  // Zero leaked hazard slots after every connection dropped (HP leg).
  EXPECT_EQ(server.set().blast_stats().leaked_cells, 0u);
}

TEST(Loopback, InjectedCrashReLeasesAndReaps) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.set_id = "singly/ebr/sh2";
  scfg.workers = 2;
  scfg.reap_delay_ms = 20;
  scfg.faults.at(0, 40, faults::FaultKind::kDepartWithoutRelease)
      .at(1, 60, faults::FaultKind::kMidOpAbandon);
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  net::LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.threads = 2;
  cfg.connections = 8;
  cfg.total_ops = 2000;
  cfg.universe = 256;
  const net::LoadGenResult res = net::run_loadgen(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  // Each fired fault answered exactly one request with -ERR crashed;
  // those requests were never dispatched, so the ledger still matches.
  EXPECT_GE(res.errors, 1);
  EXPECT_TRUE(res.ledger_match)
      << "server=" << res.server_total_ops
      << " client=" << res.total_completed();

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_GE(stats.faults_fired, 1);
  EXPECT_GE(stats.reaps, 1);  // the supervisor actually recovered them
  std::string why;
  EXPECT_TRUE(server.set().validate(&why)) << why;
  // Post-reap the blast radius is fully cleaned up.
  const faults::BlastStats blast = server.set().blast_stats();
  EXPECT_EQ(blast.crashed_slots, 0u);
  EXPECT_EQ(blast.leaked_cells, 0u);
}

/// Merged p50 of a closed-loop run (2 connections, 2,000 ops) and of a
/// paced run (`conns` connections on one loadgen thread, `rate` sends/s
/// each, 500 ms) against one in-process single-worker server.
void closed_and_paced_p50(int conns, long rate, std::uint64_t* closed_p50,
                          std::uint64_t* paced_p50) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.set_id = "singly/ebr";
  scfg.workers = 1;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  net::LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.threads = 1;
  cfg.connections = 2;
  cfg.universe = 1024;
  cfg.total_ops = 2000;
  cfg.check_ledger = false;  // two runs share the server's ledger
  const net::LoadGenResult closed = net::run_loadgen(cfg);
  ASSERT_TRUE(closed.ok) << closed.error;

  cfg.connections = conns;
  cfg.total_ops = 0;
  cfg.duration_ms = 500;
  cfg.rate_per_conn = rate;
  const net::LoadGenResult paced = net::run_loadgen(cfg);
  ASSERT_TRUE(paced.ok) << paced.error;
  EXPECT_EQ(paced.abandoned, 0);
  ASSERT_GT(paced.total_completed(), 500);
  server.stop();

  *closed_p50 = closed.profile.merged().percentile(0.5);
  *paced_p50 = paced.profile.merged().percentile(0.5);
}

// Paced (open-loop) samples are completion - intended send, so any
// lateness of the generator's own wake-up lands in them. At a rate far
// below what one connection sustains, the server is idle when each op
// comes due, and the paced p50 must read about the closed-loop round
// trip. A generator that only wakes on a 1 ms tick reads ~0.6 ms here.
// 2,500 sends/s per connection is a 400 us period, not a multiple of
// 1 ms, so a tick-bound generator is late by a spread of offsets.
TEST(Loopback, PacedP50StaysNearTheClosedLoopP50) {
  std::uint64_t closed_p50 = 0, paced_p50 = 0;
  closed_and_paced_p50(2, 2500, &closed_p50, &paced_p50);
  if (HasFatalFailure()) return;
  EXPECT_LT(paced_p50, closed_p50 + 200'000)
      << "paced p50 " << paced_p50 / 1000 << " us vs closed-loop p50 "
      << closed_p50 / 1000 << " us";
}

// Many slots per thread: 64 connections at 100 sends/s each offer 6,400
// sends/s, far below what the server sustains. The initial fill
// connects every slot at once, so unless each slot's schedule is
// phased across the period, all 64 sends come due together every 10 ms
// and queue behind each other on the wire and in the one server worker.
// Bursts recur every period, so a bursting generator reads ~1 ms in
// every window, while a load spike on a shared host inflates one
// window's scheduling delays: the best of three windows decides.
TEST(Loopback, PacedSlotsOfOneThreadDoNotFireInBursts) {
  std::uint64_t closed_p50 = 0, paced_p50 = 0;
  for (int window = 0; window < 3; ++window) {
    closed_and_paced_p50(64, 100, &closed_p50, &paced_p50);
    if (HasFatalFailure() || paced_p50 < closed_p50 + 100'000) break;
  }
  if (HasFatalFailure()) return;
  EXPECT_LT(paced_p50, closed_p50 + 100'000)
      << "paced p50 " << paced_p50 / 1000 << " us vs closed-loop p50 "
      << closed_p50 / 1000 << " us";
}

// One client pipelines `SCAN 0 4096` frames and never reads. Without
// backpressure every reply piles up in the connection's output buffer
// (a 6 MB burst of such frames once grew the server to 1.7 GB). With
// it the worker pauses the connection at the high-water mark, so the
// server's buffers stay bounded while the client's sends back up in
// the kernel. Then the client drains: every request it sent is
// answered exactly once, and the server's ledger matches.
TEST(Backpressure, NeverReadingPipelinerStaysBounded) {
  constexpr long kKeys = 1024;
  constexpr int kFrames = 2000;
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.set_id = "singly/ebr";
  scfg.workers = 1;
  net::Server server(scfg);
  {
    auto h = server.set().make_handle();
    for (long k = 0; k < kKeys; ++k) ASSERT_TRUE(h->add(k));
  }
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  std::vector<long> keys(kKeys);
  for (long k = 0; k < kKeys; ++k) keys[static_cast<std::size_t>(k)] = k;
  std::string one_reply;
  net::protocol::encode_int_array(one_reply, keys);
  std::string requests;
  for (int i = 0; i < kFrames; ++i) requests += frame_of({"SCAN", "0", "4096"});
  // Unbounded, the server would have to hold far more than the mark.
  ASSERT_GT(one_reply.size() * kFrames, 20 * net::kOutHighWater);

  // A small receive window, so the server's writes block early.
  net::Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(fd.valid());
  const int small = 4096;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  ASSERT_TRUE(net::make_addr("127.0.0.1", server.port(), &addr));
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  net::set_nonblocking(fd.get());

  // Phase 1: send as much as the kernel takes, read nothing.
  std::size_t sent = 0;
  auto send_some = [&] {
    while (sent < requests.size()) {
      const ssize_t n = ::send(fd.get(), requests.data() + sent,
                               requests.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
  };
  send_some();
  // Wait for the server to stall: tripped, and no frame dispatched for
  // a while.
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  long last_frames = -1;
  int quiet = 0;
  while (Clock::now() < deadline && quiet < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    send_some();
    const net::ServerStats st = server.stats();
    const bool idle = st.backpressure_trips > 0 && st.frames == last_frames;
    quiet = idle ? quiet + 1 : 0;
    last_frames = st.frames;
  }
  const net::ServerStats stalled = server.stats();
  EXPECT_GT(stalled.backpressure_trips, 0);
  EXPECT_LT(stalled.frames, kFrames) << "the silent client was served in full";
  // The bounds: the output backlog passes the mark by one reply at
  // most; the parser holds one read budget plus a partial frame.
  EXPECT_LE(static_cast<std::size_t>(stalled.out_peak),
            net::kOutHighWater + one_reply.size());
  EXPECT_LE(static_cast<std::size_t>(stalled.out_buffered),
            net::kOutHighWater + one_reply.size());
  EXPECT_LE(static_cast<std::size_t>(stalled.in_peak),
            net::kReadBudget + scfg.max_frame);
  const std::string info = server.info();
  EXPECT_NE(info.find("backpressure_trips:" +
                      std::to_string(stalled.backpressure_trips)),
            std::string::npos);
  EXPECT_NE(info.find("out_high_water:" + std::to_string(net::kOutHighWater)),
            std::string::npos);

  // Phase 2: drain. Every request is answered exactly once, in order.
  ReplyParser rp(2 * one_reply.size());
  int answered = 0;
  char buf[65536];
  while (answered < kFrames && Clock::now() < deadline) {
    send_some();
    const short want = sent < requests.size() ? POLLIN | POLLOUT : POLLIN;
    pollfd pfd{fd.get(), want, 0};
    ::poll(&pfd, 1, 100);
    const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) continue;
    rp.feed(buf, static_cast<std::size_t>(n));
    Reply r;
    for (ParseStatus st; (st = rp.next(&r)) != ParseStatus::kNeedMore;) {
      ASSERT_EQ(st, ParseStatus::kFrame) << rp.error();
      ASSERT_EQ(r.type, Reply::Type::kIntArray) << r.text;
      ASSERT_EQ(r.ints, keys);
      ++answered;
    }
  }
  EXPECT_EQ(answered, kFrames);
  EXPECT_EQ(sent, requests.size());
  EXPECT_NE(server.info().find("scan_calls:" + std::to_string(kFrames) + "\n"),
            std::string::npos);
  fd.reset();

  server.stop();
  const core::OpCounters ledger = server.ledger();
  EXPECT_EQ(ledger.scan_calls, kFrames);
  EXPECT_EQ(ledger.scans, kFrames * kKeys);
  EXPECT_EQ(ledger.total_ops(), kFrames);
  std::string why;
  EXPECT_TRUE(server.set().validate(&why)) << why;
}

TEST(Server, InfoIsServableWhileServing) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.workers = 1;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  const std::string info = server.info();
  EXPECT_NE(info.find("set:singly/ebr/sh8"), std::string::npos);
  EXPECT_NE(info.find("total_ops:0"), std::string::npos);
  EXPECT_NE(info.find("limbo:"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace pragmalist
