// Thin POSIX socket + epoll plumbing shared by the server and the
// loadgen: an RAII fd, nonblocking TCP listen/connect, and epoll
// add/mod/del that abort on programmer error (EBADF and friends are
// bugs, not runtime conditions). Host strings are dotted-quad IPv4
// ("0.0.0.0" to listen on everything); "localhost" is accepted as an
// alias for 127.0.0.1 so no resolver is involved anywhere -- the
// harness stays deterministic and dependency-free.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "src/common/debug.hpp"

namespace pragmalist::net {

/// Close-on-destruct fd. Movable, not copyable.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

inline void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  PRAGMALIST_CHECK(flags >= 0, "fcntl(F_GETFL) failed");
  PRAGMALIST_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                   "fcntl(F_SETFL, O_NONBLOCK) failed");
}

/// Fill a sockaddr_in from host:port; false on an unparseable host.
inline bool make_addr(const std::string& host, int port,
                      sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string h = host == "localhost" ? "127.0.0.1" : host;
  return ::inet_pton(AF_INET, h.c_str(), &addr->sin_addr) == 1;
}

/// Nonblocking listening socket on host:port (port 0 = ephemeral).
/// Returns an invalid Fd with *err set on failure.
inline Fd listen_tcp(const std::string& host, int port, std::string* err) {
  sockaddr_in addr{};
  if (!make_addr(host, port, &addr)) {
    *err = "unparseable host '" + host + "' (IPv4 dotted quad expected)";
    return Fd();
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    *err = std::string("socket: ") + std::strerror(errno);
    return Fd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *err = std::string("bind: ") + std::strerror(errno);
    return Fd();
  }
  if (::listen(fd.get(), 1024) != 0) {
    *err = std::string("listen: ") + std::strerror(errno);
    return Fd();
  }
  set_nonblocking(fd.get());
  return fd;
}

/// Port a socket is actually bound to (resolves port 0).
inline int bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  PRAGMALIST_CHECK(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "getsockname failed");
  return static_cast<int>(ntohs(addr.sin_port));
}

/// Begin a nonblocking connect; completion is signalled by EPOLLOUT
/// (check SO_ERROR then). Invalid Fd on immediate failure.
inline Fd connect_tcp(const std::string& host, int port) {
  sockaddr_in addr{};
  if (!make_addr(host, port, &addr)) return Fd();
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Fd();
  set_nonblocking(fd.get());
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS)
    return Fd();
  return fd;
}

/// Pending connect outcome after EPOLLOUT: 0 = connected, else errno.
inline int connect_error(int fd) {
  int soerr = 0;
  socklen_t len = sizeof(soerr);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0)
    return errno;
  return soerr;
}

class Epoll {
 public:
  Epoll() : fd_(::epoll_create1(EPOLL_CLOEXEC)) {
    PRAGMALIST_CHECK(fd_.valid(), "epoll_create1 failed");
  }

  void add(int fd, std::uint32_t events, void* ptr = nullptr) {
    ctl(EPOLL_CTL_ADD, fd, events, ptr);
  }
  void mod(int fd, std::uint32_t events, void* ptr = nullptr) {
    ctl(EPOLL_CTL_MOD, fd, events, ptr);
  }
  void del(int fd) {
    epoll_event ev{};
    PRAGMALIST_CHECK(::epoll_ctl(fd_.get(), EPOLL_CTL_DEL, fd, &ev) == 0,
                     "epoll_ctl(DEL) failed");
  }

  int wait(epoll_event* events, int max_events, int timeout_ms) {
    const int n = ::epoll_wait(fd_.get(), events, max_events, timeout_ms);
    if (n < 0 && errno == EINTR) return 0;
    PRAGMALIST_CHECK(n >= 0, "epoll_wait failed");
    return n;
  }

  /// wait() with a nanosecond timeout (epoll_pwait2), for callers that
  /// must wake at a precise instant. A kernel without epoll_pwait2
  /// (before 5.11) gets epoll_wait with the timeout rounded up to 1 ms.
  int wait_ns(epoll_event* events, int max_events, std::uint64_t timeout_ns) {
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000ULL),
                      static_cast<long>(timeout_ns % 1'000'000'000ULL)};
    const int n =
        ::epoll_pwait2(fd_.get(), events, max_events, &ts, nullptr);
    if (n < 0 && errno == ENOSYS)
      return wait(events, max_events,
                  static_cast<int>((timeout_ns + 999'999) / 1'000'000));
    if (n < 0 && errno == EINTR) return 0;
    PRAGMALIST_CHECK(n >= 0, "epoll_pwait2 failed");
    return n;
  }

 private:
  void ctl(int op, int fd, std::uint32_t events, void* ptr) {
    epoll_event ev{};
    ev.events = events;
    if (ptr != nullptr)
      ev.data.ptr = ptr;
    else
      ev.data.fd = fd;
    PRAGMALIST_CHECK(::epoll_ctl(fd_.get(), op, fd, &ev) == 0,
                     "epoll_ctl failed");
  }

  Fd fd_;
};

/// Semaphore-flavoured eventfd used to wake an epoll loop from another
/// thread (new connections handed off, shutdown).
class WakeFd {
 public:
  WakeFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
    PRAGMALIST_CHECK(fd_.valid(), "eventfd failed");
  }

  int get() const { return fd_.get(); }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(fd_.get(), &one, sizeof(one));
  }

  void drain() {
    std::uint64_t buf;
    while (::read(fd_.get(), &buf, sizeof(buf)) > 0) {
    }
  }

 private:
  Fd fd_;
};

}  // namespace pragmalist::net
