#include "src/net/loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/net/protocol.hpp"
#include "src/net/socket.hpp"
#include "src/workload/distributions.hpp"
#include "src/workload/rng.hpp"

namespace pragmalist::net {

namespace {

using workload::OpKind;
using OpClass = harness::OpClass;
using harness::lat_now_ns;

OpClass class_of(OpKind k) {
  switch (k) {
    case OpKind::kAdd: return OpClass::kAdd;
    case OpKind::kRemove: return OpClass::kRemove;
    case OpKind::kContains: return OpClass::kContains;
    case OpKind::kScan: return OpClass::kScan;
  }
  return OpClass::kContains;
}

struct Slot {
  enum class State { kClosed, kConnecting, kActive };

  Fd fd;
  State state = State::kClosed;
  protocol::ReplyParser parser;
  std::string out;
  std::size_t out_off = 0;
  bool want_write = false;

  bool in_flight = false;
  OpClass cls = OpClass::kContains;
  std::uint64_t intended_ns = 0;  // paced schedule slot of the op
  std::uint64_t sent_ns = 0;      // actual send time (closed loop)

  bool draining = false;     // churn surplus: finish in-flight, close
  bool ever_opened = false;  // a later open is a reconnect
  long ops_done = 0;         // ops begun on THIS connection (pacing)
  std::uint64_t t0_ns = 0;   // when this connection became active
  std::uint64_t phase_ns = 0;  // paced schedule offset of this slot

  workload::Rng rng{1};
};

/// Shared run state across the event-loop threads.
struct Shared {
  const LoadGenConfig* cfg;
  std::atomic<long> completed_data{0};  // acknowledged data ops (all threads)
  std::atomic<bool> stop{false};
  std::uint64_t t_start_ns = 0;
  std::uint64_t t_deadline_ns = 0;  // 0 = no duration stop
};

/// One event-loop thread owning `n_slots` connection slots.
class Engine {
 public:
  Engine(Shared* shared, int index, int n_slots)
      : sh_(shared),
        cfg_(*shared->cfg),
        zipf_(cfg_.universe, cfg_.zipf_theta > 0 ? cfg_.zipf_theta : 0.0),
        uniform_(cfg_.universe) {
    period_ns_ = cfg_.rate_per_conn > 0
                     ? 1'000'000'000ULL /
                           static_cast<std::uint64_t>(cfg_.rate_per_conn)
                     : 0;
    slots_.resize(static_cast<std::size_t>(n_slots));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      // Slot identity (thread index, slot index) keys the RNG stream,
      // so reconnects continue the slot's schedule deterministically.
      slots_[i].rng = workload::Rng(workload::thread_seed(
          cfg_.seed, index * 100000 + static_cast<int>(i)));
      // The initial fill connects every slot at once; without a phase
      // their paced sends come due together and queue behind each
      // other. Slot i starts i/n of a period late, spreading the
      // thread's sends evenly over each period.
      slots_[i].phase_ns = period_ns_ * i / slots_.size();
    }
  }

  void run() {
    // Paced wake-ups should land on the intended instant, not up to the
    // default 50 us timer slack after it.
    if (period_ns_ != 0) prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    epoll_event evs[256];
    bool draining_run = false;
    std::uint64_t drain_deadline = 0;

    for (;;) {
      const std::uint64_t now = lat_now_ns();
      const bool stop_hit =
          sh_->stop.load(std::memory_order_relaxed) ||
          (sh_->t_deadline_ns != 0 && now >= sh_->t_deadline_ns) ||
          (cfg_.total_ops > 0 &&
           sh_->completed_data.load(std::memory_order_relaxed) >=
               cfg_.total_ops);
      if (stop_hit && !draining_run) {
        sh_->stop.store(true, std::memory_order_relaxed);
        draining_run = true;
        drain_deadline = now + 3'000'000'000ULL;  // 3 s to retire in-flight
      }

      if (draining_run) {
        bool any = false;
        for (auto& s : slots_) {
          if (s.state == Slot::State::kClosed) continue;
          if (!s.in_flight || s.state == Slot::State::kConnecting) {
            close_slot(s, /*lost_in_flight=*/false);
            continue;
          }
          any = true;
        }
        if (!any) break;
        if (now >= drain_deadline) {
          for (auto& s : slots_) {
            if (s.state == Slot::State::kClosed) continue;
            if (s.in_flight) ++abandoned_;
            close_slot(s, /*lost_in_flight=*/false);
          }
          break;
        }
      } else {
        adjust_connections(now);
        for (auto& s : slots_) {
          if (s.state == Slot::State::kActive && !s.in_flight &&
              !s.draining)
            maybe_send(s, now);
        }
      }

      // Closed loop wakes on replies, with a 1 ms tick for the stop,
      // churn and drain checks. Paced mode also wakes at the next due
      // send: a 1 ms tick would charge up to 1 ms of generator
      // lateness to every sample. Either way the wait spins first
      // (never past that timeout), so a reply already on its way
      // costs no sleep/wake cycle.
      const SpinWait w = ep_.wait_spin(
          evs, 256,
          period_ns_ != 0 && !draining_run ? pace_timeout_ns() : kTickNs);
      for (int i = 0; i < w.n; ++i) {
        auto* slot = static_cast<Slot*>(evs[i].data.ptr);
        handle_event(*slot, evs[i].events);
      }
    }
  }

  // Folded into the result after join.
  long sent_[harness::kNumOpClasses] = {};
  long completed_[harness::kNumOpClasses] = {};
  long errors_ = 0;
  long conn_failures_ = 0;
  long reconnects_ = 0;
  long abandoned_ = 0;
  int peak_conns_ = 0;
  bool ever_connected_ = false;
  harness::LatencyProfile profile_;

 private:
  /// Per-thread target connection count right now.
  int target_conns(std::uint64_t now) const {
    const int p = static_cast<int>(slots_.size());
    if (cfg_.churn_ticks <= 0 || p <= 0) return p;
    const auto elapsed_ms =
        static_cast<long>((now - sh_->t_start_ns) / 1'000'000ULL);
    long tick;
    if (sh_->t_deadline_ns != 0) {
      // Duration mode: spread the schedule across the whole window.
      const auto window_ms = static_cast<long>(
          (sh_->t_deadline_ns - sh_->t_start_ns) / 1'000'000ULL);
      const long tick_ms =
          window_ms > cfg_.churn_ticks ? window_ms / cfg_.churn_ticks : 1;
      tick = elapsed_ms / tick_ms;
      if (tick >= cfg_.churn_ticks) tick = cfg_.churn_ticks - 1;
    } else {
      // Ops mode has no known end time: cycle 100 ms ticks.
      tick = (elapsed_ms / 100) % cfg_.churn_ticks;
    }
    return service::thread_target(cfg_.schedule, static_cast<int>(tick),
                                  cfg_.churn_ticks, p);
  }

  void adjust_connections(std::uint64_t now) {
    const int target = target_conns(now);
    int open = 0;
    for (const auto& s : slots_)
      if (s.state != Slot::State::kClosed && !s.draining) ++open;

    if (open > target) {
      int excess = open - target;
      for (auto& s : slots_) {
        if (excess == 0) break;
        if (s.state == Slot::State::kClosed || s.draining) continue;
        s.draining = true;
        --excess;
        if (!s.in_flight) close_slot(s, /*lost_in_flight=*/false);
      }
    } else if (open < target && now >= next_open_attempt_) {
      int deficit = target - open;
      for (auto& s : slots_) {
        if (deficit == 0) break;
        if (s.state != Slot::State::kClosed) continue;
        if (!open_slot(s)) {
          // Connect refused outright: back off so a dead server does
          // not turn this loop into a SYN flood.
          next_open_attempt_ = now + 50'000'000ULL;
          break;
        }
        --deficit;
      }
    }
  }

  bool open_slot(Slot& s) {
    s.fd = connect_tcp(cfg_.host, cfg_.port);
    if (!s.fd.valid()) {
      ++conn_failures_;
      return false;
    }
    s.state = Slot::State::kConnecting;
    s.parser.reset();
    s.out.clear();
    s.out_off = 0;
    s.want_write = false;
    s.in_flight = false;
    s.draining = false;
    s.ops_done = 0;
    if (s.ever_opened) ++reconnects_;
    ep_.add(s.fd.get(), EPOLLOUT | EPOLLIN, &s);
    return true;
  }

  void close_slot(Slot& s, bool lost_in_flight) {
    if (s.state == Slot::State::kClosed) return;
    if (lost_in_flight && s.in_flight) ++abandoned_;
    ep_.del(s.fd.get());
    s.fd.reset();
    s.state = Slot::State::kClosed;
    s.in_flight = false;
    s.draining = false;
  }

  void on_established(Slot& s) {
    s.state = Slot::State::kActive;
    s.ever_opened = true;
    ever_connected_ = true;
    s.t0_ns = lat_now_ns();
    ep_.mod(s.fd.get(), EPOLLIN, &s);
    int established = 0;
    for (const auto& o : slots_)
      if (o.state == Slot::State::kActive) ++established;
    if (established > peak_conns_) peak_conns_ = established;
  }

  /// Paced mode: time until the earliest idle connection's next
  /// intended send, capped at the 1 ms tick.
  std::int64_t pace_timeout_ns() const {
    const std::uint64_t now = lat_now_ns();
    std::uint64_t wait = kTickNs;
    for (const auto& s : slots_) {
      if (s.state != Slot::State::kActive || s.in_flight || s.draining)
        continue;
      const std::uint64_t due = intended_ns(s);
      if (due <= now) return 0;
      wait = std::min(wait, due - now);
    }
    return static_cast<std::int64_t>(wait);
  }

  /// Paced schedule slot of the connection's next op.
  std::uint64_t intended_ns(const Slot& s) const {
    return s.t0_ns + s.phase_ns +
           static_cast<std::uint64_t>(s.ops_done) * period_ns_;
  }

  void maybe_send(Slot& s, std::uint64_t now) {
    if (sh_->stop.load(std::memory_order_relaxed)) return;
    std::uint64_t intended = now;
    if (period_ns_ != 0) {
      intended = intended_ns(s);
      // Never shift the schedule: send the moment the intended slot
      // has passed, charge lateness to the sample.
      if (now < intended) return;
    }

    const OpKind kind = cfg_.mix.pick(s.rng);
    const long key = cfg_.zipf_theta > 0 ? zipf_(s.rng) : uniform_(s.rng);
    args_.clear();
    switch (kind) {
      case OpKind::kAdd:
        args_ = {"SET", std::to_string(key)};
        break;
      case OpKind::kRemove:
        args_ = {"DEL", std::to_string(key)};
        break;
      case OpKind::kContains:
        args_ = {"GET", std::to_string(key)};
        break;
      case OpKind::kScan:
        args_ = {"SCAN", std::to_string(key),
                 std::to_string(cfg_.scan_count)};
        break;
    }
    protocol::encode_request(s.out, args_);
    s.cls = class_of(kind);
    s.intended_ns = intended;
    s.sent_ns = now;
    s.in_flight = true;
    ++s.ops_done;
    ++sent_[static_cast<int>(s.cls)];
    flush(s);
  }

  void on_reply(Slot& s, const protocol::Reply& reply) {
    if (!s.in_flight) {
      // A frame we never asked for: stream desync, drop the conn.
      close_slot(s, /*lost_in_flight=*/false);
      return;
    }
    s.in_flight = false;
    const std::uint64_t completion = lat_now_ns();
    const std::uint64_t base = period_ns_ != 0 ? s.intended_ns : s.sent_ns;
    profile_.of(s.cls).record(completion > base ? completion - base : 0);
    if (reply.type == protocol::Reply::Type::kError) {
      ++errors_;
    } else {
      ++completed_[static_cast<int>(s.cls)];
      sh_->completed_data.fetch_add(1, std::memory_order_relaxed);
    }
    if (s.draining) close_slot(s, /*lost_in_flight=*/false);
  }

  void handle_event(Slot& s, std::uint32_t events) {
    if (s.state == Slot::State::kClosed) return;

    if (s.state == Slot::State::kConnecting) {
      if ((events & (EPOLLERR | EPOLLHUP)) != 0 ||
          connect_error(s.fd.get()) != 0) {
        ++conn_failures_;
        close_slot(s, /*lost_in_flight=*/false);
        return;
      }
      if ((events & EPOLLOUT) != 0) on_established(s);
      return;
    }

    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      close_slot(s, /*lost_in_flight=*/true);
      return;
    }

    if ((events & EPOLLIN) != 0) {
      char buf[4096];
      for (;;) {
        const ssize_t r = ::read(s.fd.get(), buf, sizeof(buf));
        if (r > 0) {
          s.parser.feed(buf, static_cast<std::size_t>(r));
          if (r < static_cast<ssize_t>(sizeof(buf))) break;
        } else if (r == 0) {
          close_slot(s, /*lost_in_flight=*/true);
          return;
        } else {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          close_slot(s, /*lost_in_flight=*/true);
          return;
        }
      }
      protocol::Reply reply;
      for (;;) {
        const protocol::ParseStatus st = s.parser.next(&reply);
        if (st == protocol::ParseStatus::kFrame) {
          on_reply(s, reply);
          if (s.state == Slot::State::kClosed) return;
          continue;
        }
        if (st == protocol::ParseStatus::kError) {
          close_slot(s, /*lost_in_flight=*/true);
          return;
        }
        break;
      }
    }

    if ((events & EPOLLOUT) != 0 || s.out_off < s.out.size()) flush(s);
  }

  void flush(Slot& s) {
    while (s.out_off < s.out.size()) {
      const ssize_t n = ::write(s.fd.get(), s.out.data() + s.out_off,
                                s.out.size() - s.out_off);
      if (n > 0) {
        s.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!s.want_write) {
          s.want_write = true;
          ep_.mod(s.fd.get(), EPOLLIN | EPOLLOUT, &s);
        }
        return;
      } else {
        close_slot(s, /*lost_in_flight=*/true);
        return;
      }
    }
    s.out.clear();
    s.out_off = 0;
    if (s.want_write) {
      s.want_write = false;
      ep_.mod(s.fd.get(), EPOLLIN, &s);
    }
  }

  /// The event loop's longest sleep: the stop, churn and drain checks
  /// run at least this often.
  static constexpr std::int64_t kTickNs = 1'000'000;

  Shared* sh_;
  const LoadGenConfig& cfg_;
  Epoll ep_;
  std::vector<Slot> slots_;
  std::vector<std::string> args_;
  workload::ZipfKeys zipf_;
  workload::UniformKeys uniform_;
  std::uint64_t period_ns_ = 0;
  std::uint64_t next_open_attempt_ = 0;
};

/// Blocking-ish INFO round trip on a fresh control connection; returns
/// the total_ops the server reports, or -1 on any failure.
long fetch_server_total_ops(const LoadGenConfig& cfg) {
  Fd fd = connect_tcp(cfg.host, cfg.port);
  if (!fd.valid()) return -1;
  const std::uint64_t deadline = lat_now_ns() + 2'000'000'000ULL;

  std::string out;
  protocol::encode_request(out, {"INFO"});
  std::size_t off = 0;
  while (off < out.size() && lat_now_ns() < deadline) {
    const ssize_t n = ::write(fd.get(), out.data() + off, out.size() - off);
    if (n > 0)
      off += static_cast<std::size_t>(n);
    else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
             errno != EINTR)
      return -1;
  }
  if (off < out.size()) return -1;

  protocol::ReplyParser parser;
  protocol::Reply reply;
  char buf[4096];
  while (lat_now_ns() < deadline) {
    const ssize_t r = ::read(fd.get(), buf, sizeof(buf));
    if (r > 0) {
      parser.feed(buf, static_cast<std::size_t>(r));
      const protocol::ParseStatus st = parser.next(&reply);
      if (st == protocol::ParseStatus::kFrame) break;
      if (st == protocol::ParseStatus::kError) return -1;
    } else if (r == 0) {
      return -1;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return -1;
    }
  }
  if (reply.type != protocol::Reply::Type::kBulk) return -1;

  // Find the "total_ops:<n>" line in the INFO body.
  const std::string& body = reply.text;
  const std::string tag = "total_ops:";
  std::size_t at = 0;
  while (at < body.size()) {
    std::size_t nl = body.find('\n', at);
    if (nl == std::string::npos) nl = body.size();
    const std::string_view line(body.data() + at, nl - at);
    if (line.substr(0, tag.size()) == tag) {
      long v = 0;
      if (protocol::parse_key(line.substr(tag.size()), &v)) return v;
      return -1;
    }
    at = nl + 1;
  }
  return -1;
}

}  // namespace

LoadGenResult run_loadgen(const LoadGenConfig& cfg) {
  LoadGenResult res;
  if (cfg.duration_ms <= 0 && cfg.total_ops <= 0) {
    res.error = "loadgen needs --duration or --ops";
    return res;
  }
  const int threads = cfg.threads < 1 ? 1 : cfg.threads;
  const int conns = cfg.connections < 1 ? 1 : cfg.connections;

  Shared shared;
  shared.cfg = &cfg;
  shared.t_start_ns = lat_now_ns();
  if (cfg.duration_ms > 0)
    shared.t_deadline_ns =
        shared.t_start_ns +
        static_cast<std::uint64_t>(cfg.duration_ms) * 1'000'000ULL;

  std::vector<std::unique_ptr<Engine>> engines;
  engines.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    // Distribute slots as evenly as possible; earlier threads take the
    // remainder.
    const int n = conns / threads + (t < conns % threads ? 1 : 0);
    engines.push_back(std::make_unique<Engine>(&shared, t, n));
  }
  std::vector<std::thread> team;
  team.reserve(engines.size());
  for (auto& e : engines) team.emplace_back([&e] { e->run(); });
  for (auto& th : team) th.join();
  res.ms = static_cast<double>(lat_now_ns() - shared.t_start_ns) / 1e6;

  for (const auto& e : engines) {
    for (int c = 0; c < harness::kNumOpClasses; ++c) {
      res.sent[c] += e->sent_[c];
      res.completed[c] += e->completed_[c];
    }
    res.errors += e->errors_;
    res.conn_failures += e->conn_failures_;
    res.reconnects += e->reconnects_;
    res.abandoned += e->abandoned_;
    res.peak_conns += e->peak_conns_;
    res.profile += e->profile_;
    if (e->ever_connected_) res.ok = true;
  }
  if (!res.ok) {
    res.error = "no connection to " + cfg.host + ":" +
                std::to_string(cfg.port) + " was ever established";
    return res;
  }

  if (cfg.check_ledger) {
    res.server_total_ops = fetch_server_total_ops(cfg);
    res.ledger_match = res.server_total_ops == res.total_completed();
  }
  return res;
}

}  // namespace pragmalist::net
