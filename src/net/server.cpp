#include "src/net/server.hpp"

#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <deque>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/common/debug.hpp"
#include "src/harness/catalog.hpp"
#include "src/net/socket.hpp"

namespace pragmalist::net {

namespace {

using Clock = std::chrono::steady_clock;

std::string upper(std::string_view s) {
  std::string u(s);
  for (char& c : u)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return u;
}

enum class Command { kPing, kInfo, kGet, kSet, kDel, kScan, kUnknown };

/// The command a frame names, matched case-insensitively in place, so
/// recognising it allocates nothing (upper() is for error replies).
Command command_of(std::string_view s) {
  static constexpr std::pair<std::string_view, Command> kCommands[] = {
      {"GET", Command::kGet},   {"SET", Command::kSet},
      {"DEL", Command::kDel},   {"SCAN", Command::kScan},
      {"PING", Command::kPing}, {"INFO", Command::kInfo},
  };
  for (const auto& [name, cmd] : kCommands) {
    if (s.size() != name.size()) continue;
    bool same = true;
    for (std::size_t i = 0; same && i < s.size(); ++i)
      same = std::toupper(static_cast<unsigned char>(s[i])) == name[i];
    if (same) return cmd;
  }
  return Command::kUnknown;
}

/// True when the frame's command is one of the four set ops (the ones
/// a FaultPlan ordinal counts).
bool is_data_op(const std::vector<std::string>& args) {
  if (args.empty()) return false;
  const Command cmd = command_of(args[0]);
  return cmd == Command::kGet || cmd == Command::kSet ||
         cmd == Command::kDel || cmd == Command::kScan;
}

}  // namespace

DispatchOutcome dispatch_request(const std::vector<std::string>& args,
                                 core::ISetHandle& handle, std::string& out,
                                 const std::function<std::string()>& info) {
  DispatchOutcome res;
  auto err = [&](std::string_view msg) {
    protocol::encode_error(out, msg);
    res.error = true;
    return res;
  };
  if (args.empty()) return err("ERR empty frame");
  const Command cmd = command_of(args[0]);

  if (cmd == Command::kPing) {
    if (args.size() != 1) return err("ERR wrong arity for PING");
    protocol::encode_simple(out, "PONG");
    return res;
  }
  if (cmd == Command::kInfo) {
    if (args.size() != 1) return err("ERR wrong arity for INFO");
    protocol::encode_bulk(out, info ? info() : std::string());
    return res;
  }
  if (cmd == Command::kGet || cmd == Command::kSet || cmd == Command::kDel) {
    if (args.size() != 2)
      return err("ERR wrong arity for " + upper(args[0]));
    long key = 0;
    if (!protocol::parse_key(args[1], &key))
      return err("ERR key is not an integer");
    bool ok;
    if (cmd == Command::kSet) {
      ok = handle.add(key);
      res.cls = harness::OpClass::kAdd;
    } else if (cmd == Command::kDel) {
      ok = handle.remove(key);
      res.cls = harness::OpClass::kRemove;
    } else {
      ok = handle.contains(key);
      res.cls = harness::OpClass::kContains;
    }
    res.data_op = true;
    protocol::encode_integer(out, ok ? 1 : 0);
    return res;
  }
  if (cmd == Command::kScan) {
    if (args.size() != 3) return err("ERR wrong arity for SCAN");
    long from = 0, count = 0;
    if (!protocol::parse_key(args[1], &from) ||
        !protocol::parse_key(args[2], &count) || count < 0)
      return err("ERR SCAN takes integer <from> <count>");
    count = std::min(count, protocol::kMaxScanCount);
    const std::vector<long> keys =
        handle.ascend(from, static_cast<std::size_t>(count));
    res.data_op = true;
    res.cls = harness::OpClass::kScan;
    protocol::encode_int_array(out, keys);
    return res;
  }
  return err("ERR unknown command '" + upper(args[0]) + "'");
}

// --- worker ----------------------------------------------------------

struct Server::Worker {
  explicit Worker(Server* s, int idx)
      : server(s), index(idx), info([s] { return s->info(); }) {}

  Server* server;
  int index;
  const std::function<std::string()> info;  // INFO body, built once
  std::thread thread;
  Epoll ep;
  WakeFd wake;

  std::mutex mu;
  std::vector<int> incoming;  // accepted fds awaiting adoption

  // Run-wide relaxed counters the INFO handler reads cross-thread.
  std::atomic<long> dispatched[harness::kNumOpClasses] = {};
  std::atomic<long> frames{0};
  std::atomic<long> closed{0};
  std::atomic<long> proto_errors{0};
  std::atomic<long> active{0};
  // Output-bound use (ServerStats); peaks are written by this worker
  // only, so a plain load/store max suffices.
  std::atomic<long> out_bytes{0};
  std::atomic<long> out_peak{0};
  std::atomic<long> in_peak{0};
  std::atomic<long> trips{0};
  // Spin-then-park outcomes of this worker's waits (ServerStats).
  std::atomic<long> polls_spun{0};
  std::atomic<long> parks{0};

  // Written by the worker thread only; read after join.
  core::OpCounters folded;
  harness::LatencyProfile profile;
  bool fault_fired_ = false;  // each plan entry fires at most once
  std::vector<std::string> args;  // the frame being served; reused

  struct Conn {
    explicit Conn(std::size_t max_frame) : parser(max_frame) {}
    protocol::FrameParser parser;
    std::string out;
    std::size_t out_off = 0;
    std::uint32_t events = EPOLLIN;  // current epoll interest
    bool paused = false;  // over the output high-water mark
    long counted = 0;     // this conn's share of out_bytes
    std::size_t pending() const { return out.size() - out_off; }
  };
  std::unordered_map<int, Conn> conns;

  void run();
  void adopt_incoming();
  void handle_io(int fd, std::uint32_t events,
                 std::unique_ptr<core::ISetHandle>& handle);
  /// Read at most kReadBudget bytes into the parser; false when the
  /// connection closed.
  bool read_some(int fd, Conn& conn);
  /// Dispatch buffered frames until the parser needs more bytes or
  /// the output backlog passes the high-water mark (pausing the
  /// connection); false when a protocol error closed it.
  bool dispatch(int fd, Conn& conn,
                std::unique_ptr<core::ISetHandle>& handle);
  void handle_frame(Conn& conn, std::unique_ptr<core::ISetHandle>& handle);
  /// Write as much buffered output as the socket takes; false when the
  /// connection died under us.
  bool flush(int fd, Conn& conn);
  /// Epoll interest from the connection's state: EPOLLIN unless
  /// paused, EPOLLOUT while output is pending.
  void watch(int fd, Conn& conn);
  static void note_peak(std::atomic<long>& peak, long v) {
    if (v > peak.load(std::memory_order_relaxed))
      peak.store(v, std::memory_order_relaxed);
  }
  void close_conn(int fd);
};

void Server::Worker::run() {
  // The one lease of this worker's lifetime (per sharded domain: one
  // reclaim handle borrowed by every shard cursor). Re-leased only
  // across an injected crash.
  auto handle = server->set_->make_handle();
  ep.add(wake.get(), EPOLLIN);

  epoll_event evs[64];
  bool running = true;
  while (running) {
    const SpinWait w = ep.wait_spin(evs, 64, -1);
    (w.parked ? parks : polls_spun).fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < w.n; ++i) {
      if (evs[i].data.fd == wake.get()) {
        wake.drain();
        adopt_incoming();
        if (!server->running_.load(std::memory_order_acquire))
          running = false;
        continue;
      }
      handle_io(evs[i].data.fd, evs[i].events, handle);
    }
  }

  // Shutdown: drop every connection, then depart the lease cleanly
  // (the PR 3 re-lease protocol: limbo handed off, cells cleared).
  std::vector<int> fds;
  fds.reserve(conns.size());
  for (const auto& [fd, conn] : conns) fds.push_back(fd);
  for (const int fd : fds) close_conn(fd);
  folded += handle->counters();
  handle.reset();
}

void Server::Worker::adopt_incoming() {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(mu);
    fds.swap(incoming);
  }
  for (const int fd : fds) {
    conns.emplace(fd, Conn(server->cfg_.max_frame));
    active.fetch_add(1, std::memory_order_relaxed);
    ep.add(fd, EPOLLIN);
  }
}

void Server::Worker::handle_io(int fd, std::uint32_t events,
                               std::unique_ptr<core::ISetHandle>& handle) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;  // already closed this wait batch
  Conn& conn = it->second;

  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_conn(fd);
    return;
  }

  // A paused connection is not read: its bytes stay in the kernel (the
  // client's sends block) and EPOLLIN is off until it drains.
  if ((events & EPOLLIN) != 0 && !conn.paused && !read_some(fd, conn))
    return;

  for (;;) {
    if (!conn.paused && !dispatch(fd, conn, handle)) return;
    if (!flush(fd, conn)) return;
    // Drained to the low-water mark: resume now. The frames left in
    // the parser may be all this client ever sends, so no EPOLLIN
    // would come to wake them.
    if (!conn.paused || conn.pending() > kOutLowWater) break;
    conn.paused = false;
  }
  watch(fd, conn);
}

bool Server::Worker::read_some(int fd, Conn& conn) {
  char buf[4096];
  std::size_t got = 0;
  while (got < kReadBudget) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) {
      conn.parser.feed(buf, static_cast<std::size_t>(r));
      got += static_cast<std::size_t>(r);
      if (r < static_cast<ssize_t>(sizeof(buf))) break;
    } else if (r == 0) {
      // Abrupt client disconnect: drop the connection state (a
      // half-buffered frame simply evaporates). The worker's lease
      // is untouched -- it belongs to the worker, not the client.
      close_conn(fd);
      return false;
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(fd);
      return false;
    }
  }
  note_peak(in_peak, static_cast<long>(conn.parser.buffered()));
  return true;
}

bool Server::Worker::dispatch(int fd, Conn& conn,
                              std::unique_ptr<core::ISetHandle>& handle) {
  // Drop the already-written prefix so out holds exactly the backlog
  // the high-water mark bounds.
  conn.out.erase(0, conn.out_off);
  conn.out_off = 0;
  while (conn.out.size() <= kOutHighWater) {
    const protocol::ParseStatus st = conn.parser.next(&args);
    if (st == protocol::ParseStatus::kFrame) {
      handle_frame(conn, handle);
      continue;
    }
    if (st == protocol::ParseStatus::kError) {
      // A malformed stream cannot be resynchronized: report, flush
      // best effort, close.
      proto_errors.fetch_add(1, std::memory_order_relaxed);
      protocol::encode_error(conn.out,
                             "ERR protocol: " + conn.parser.error());
      if (flush(fd, conn)) close_conn(fd);
      return false;
    }
    return true;  // kNeedMore
  }
  conn.paused = true;
  trips.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Server::Worker::handle_frame(Conn& conn,
                                  std::unique_ptr<core::ISetHandle>& handle) {
  frames.fetch_add(1, std::memory_order_relaxed);

  const long data_ops_so_far =
      dispatched[0].load(std::memory_order_relaxed) +
      dispatched[1].load(std::memory_order_relaxed) +
      dispatched[2].load(std::memory_order_relaxed) +
      dispatched[3].load(std::memory_order_relaxed);
  const faults::FaultSpec* fault = server->cfg_.faults.find(index);
  if (fault != nullptr && !fault_fired_ && is_data_op(args) &&
      data_ops_so_far >= fault->op_ordinal) {
    // The request handler "crashes" mid-request: the lease is
    // abandoned with the op's key (the op-level kinds perform their
    // deliberately botched remove of it), the client gets an error,
    // and the worker re-leases immediately -- the supervisor reaps the
    // crashed lease after the detection delay.
    long key = 0;
    if (args.size() >= 2) protocol::parse_key(args[1], &key);
    handle->abandon(fault->kind, key);
    fault_fired_ = true;
    server->record_fault();
    protocol::encode_error(
        conn.out, std::string("ERR crashed (injected ") +
                      std::string(faults::fault_kind_name(fault->kind)) +
                      ")");
    folded += handle->counters();
    handle.reset();                       // destroy the crashed shell
    handle = server->set_->make_handle();  // re-lease
    return;
  }

  const std::uint64_t t0 =
      server->cfg_.record_latency ? harness::lat_now_ns() : 0;
  const DispatchOutcome out = dispatch_request(args, *handle, conn.out, info);
  if (out.data_op) {
    dispatched[static_cast<int>(out.cls)].fetch_add(
        1, std::memory_order_relaxed);
    if (server->cfg_.record_latency)
      profile.of(out.cls).record(harness::lat_now_ns() - t0);
  }
}

bool Server::Worker::flush(int fd, Conn& conn) {
  note_peak(out_peak, static_cast<long>(conn.pending()));
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::write(fd, conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      close_conn(fd);
      return false;
    }
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  const long now = static_cast<long>(conn.pending());
  if (now != conn.counted) {
    out_bytes.fetch_add(now - conn.counted, std::memory_order_relaxed);
    conn.counted = now;
  }
  return true;
}

void Server::Worker::watch(int fd, Conn& conn) {
  std::uint32_t want = 0;
  if (!conn.paused) want |= EPOLLIN;
  if (conn.pending() > 0) want |= EPOLLOUT;
  if (want == conn.events) return;
  conn.events = want;
  ep.mod(fd, want);
}

void Server::Worker::close_conn(int fd) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;
  out_bytes.fetch_sub(it->second.counted, std::memory_order_relaxed);
  conns.erase(it);
  ep.del(fd);
  ::close(fd);
  active.fetch_sub(1, std::memory_order_relaxed);
  closed.fetch_add(1, std::memory_order_relaxed);
}

// --- acceptor / supervisor -------------------------------------------

struct Server::AcceptorState {
  Fd listen;
  WakeFd wake;
  std::mutex mu;
  std::deque<Clock::time_point> reap_at;  // fault deadlines, FIFO
};

void Server::record_fault() {
  faults_fired_.fetch_add(1, std::memory_order_relaxed);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(cfg_.reap_delay_ms);
  std::lock_guard<std::mutex> lock(acc_->mu);
  acc_->reap_at.push_back(deadline);
}

void Server::acceptor_loop() {
  Epoll ep;
  ep.add(acc_->listen.get(), EPOLLIN);
  ep.add(acc_->wake.get(), EPOLLIN);
  std::size_t next_worker = 0;
  epoll_event evs[16];
  while (running_.load(std::memory_order_acquire)) {
    // Short timeout: the acceptor doubles as the crash supervisor and
    // must notice reap deadlines without a dedicated timer fd.
    const int n = ep.wait(evs, 16, 20);
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.fd == acc_->wake.get()) {
        acc_->wake.drain();
        continue;
      }
      for (;;) {
        const int fd = ::accept4(acc_->listen.get(), nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        accepted_.fetch_add(1, std::memory_order_relaxed);
        Worker& w = *workers_[next_worker];
        next_worker = (next_worker + 1) % workers_.size();
        {
          std::lock_guard<std::mutex> lock(w.mu);
          w.incoming.push_back(fd);
        }
        w.wake.wake();
      }
    }
    // Supervisor pass: one reap_crashed() covers every due fault (it
    // releases all crashed leases), so drain all expired deadlines.
    bool due = false;
    {
      std::lock_guard<std::mutex> lock(acc_->mu);
      const auto now = Clock::now();
      while (!acc_->reap_at.empty() && acc_->reap_at.front() <= now) {
        acc_->reap_at.pop_front();
        due = true;
      }
    }
    if (due)
      reaps_.fetch_add(static_cast<int>(set_->reap_crashed()),
                       std::memory_order_relaxed);
  }
}

// --- server ----------------------------------------------------------

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  PRAGMALIST_CHECK(cfg_.workers >= 1, "server needs at least one worker");
  set_ = harness::make_set(cfg_.set_id);
  acc_ = std::make_unique<AcceptorState>();
}

Server::~Server() { stop(); }

bool Server::start(std::string* err) {
  PRAGMALIST_CHECK(!started_, "server already started");
  std::string why;
  acc_->listen = listen_tcp(cfg_.host, cfg_.port, &why);
  if (!acc_->listen.valid()) {
    if (err != nullptr) *err = why;
    return false;
  }
  port_ = bound_port(acc_->listen.get());
  listen_fd_ = acc_->listen.get();
  running_.store(true, std::memory_order_release);
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
    Worker& w = *workers_.back();
    w.thread = std::thread([&w] { w.run(); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  return true;
}

void Server::stop() {
  if (!started_ || stopped_) return;
  running_.store(false, std::memory_order_release);
  acc_->wake.wake();
  acceptor_.join();
  for (auto& w : workers_) {
    w->wake.wake();
    w->thread.join();
  }
  // Whatever crashed inside the last detection window is reaped now;
  // after this the only leases ever held were cleanly departed.
  reaps_.fetch_add(static_cast<int>(set_->reap_crashed()),
                   std::memory_order_relaxed);
  for (const auto& w : workers_) {
    ledger_ += w->folded;
    latency_ += w->profile;
  }
  stopped_ = true;
}

std::string Server::info() const {
  long calls[harness::kNumOpClasses] = {};
  long active = 0;
  const ServerStats st = stats();
  for (const auto& w : workers_) {
    for (int c = 0; c < harness::kNumOpClasses; ++c)
      calls[c] += w->dispatched[c].load(std::memory_order_relaxed);
    active += w->active.load(std::memory_order_relaxed);
  }
  const faults::BlastStats blast = set_->blast_stats();
  std::ostringstream os;
  os << "set:" << cfg_.set_id << "\n"
     << "workers:" << cfg_.workers << "\n"
     << "accepted:" << st.accepted << "\n"
     << "active_conns:" << active << "\n"
     << "closed_conns:" << st.closed << "\n"
     << "frames:" << st.frames << "\n"
     << "protocol_errors:" << st.protocol_errors << "\n"
     << "add_calls:" << calls[static_cast<int>(harness::OpClass::kAdd)]
     << "\n"
     << "rem_calls:" << calls[static_cast<int>(harness::OpClass::kRemove)]
     << "\n"
     << "con_calls:" << calls[static_cast<int>(harness::OpClass::kContains)]
     << "\n"
     << "scan_calls:" << calls[static_cast<int>(harness::OpClass::kScan)]
     << "\n"
     << "total_ops:" << calls[0] + calls[1] + calls[2] + calls[3] << "\n"
     << "faults:" << st.faults_fired << "\n"
     << "reaps:" << st.reaps << "\n"
     << "limbo:" << set_->limbo_nodes() << "\n"
     << "crashed_slots:" << blast.crashed_slots << "\n"
     << "leaked_cells:" << blast.leaked_cells << "\n"
     << "parked_limbo:" << blast.parked_limbo << "\n"
     << "out_high_water:" << kOutHighWater << "\n"
     << "out_buffered:" << st.out_buffered << "\n"
     << "out_peak:" << st.out_peak << "\n"
     << "in_peak:" << st.in_peak << "\n"
     << "backpressure_trips:" << st.backpressure_trips << "\n"
     << "polls_spun:" << st.polls_spun << "\n"
     << "parks:" << st.parks << "\n";
  return os.str();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    s.closed += w->closed.load(std::memory_order_relaxed);
    s.frames += w->frames.load(std::memory_order_relaxed);
    s.protocol_errors += w->proto_errors.load(std::memory_order_relaxed);
    s.out_buffered += w->out_bytes.load(std::memory_order_relaxed);
    s.out_peak =
        std::max(s.out_peak, w->out_peak.load(std::memory_order_relaxed));
    s.in_peak =
        std::max(s.in_peak, w->in_peak.load(std::memory_order_relaxed));
    s.backpressure_trips += w->trips.load(std::memory_order_relaxed);
    s.polls_spun += w->polls_spun.load(std::memory_order_relaxed);
    s.parks += w->parks.load(std::memory_order_relaxed);
  }
  s.faults_fired = faults_fired_.load(std::memory_order_relaxed);
  s.reaps = reaps_.load(std::memory_order_relaxed);
  return s;
}

core::OpCounters Server::ledger() const {
  PRAGMALIST_CHECK(stopped_, "ledger() is quiescent-only: stop() first");
  return ledger_;
}

const harness::LatencyProfile& Server::latency() const {
  PRAGMALIST_CHECK(stopped_, "latency() is quiescent-only: stop() first");
  return latency_;
}

}  // namespace pragmalist::net
