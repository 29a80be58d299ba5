#include "netio/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace baps::netio {

namespace {

using Clock = std::chrono::steady_clock;

std::string errno_text(int e) { return std::strerror(e); }

bool fill_error(NetError* err, NetStatus status, const std::string& message) {
  if (err != nullptr) {
    err->status = status;
    err->message = message;
  }
  return false;
}

NetStatus status_of_errno(int e) {
  switch (e) {
    case ECONNREFUSED: return NetStatus::kRefused;
    case ECONNRESET:
    case EPIPE: return NetStatus::kReset;
    case ETIMEDOUT: return NetStatus::kTimeout;
    default: return NetStatus::kError;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool parse_addr(const std::string& host, std::uint16_t port,
                sockaddr_in* addr, NetError* err) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return fill_error(err, NetStatus::kError,
                      "not an IPv4 address literal: " + host);
  }
  return true;
}

/// Waits for `events` on fd against a deadline; remaining_ms < 0 waits
/// forever. Returns kOk / kTimeout / kClosed / kError.
NetStatus poll_wait(int fd, short events, Clock::time_point deadline,
                    bool infinite) {
  for (;;) {
    int wait_ms = -1;
    if (!infinite) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() < 0) return NetStatus::kTimeout;
      // Clamp before narrowing: a huge remaining wait must poll again later,
      // not overflow into a negative (= infinite) poll timeout.
      constexpr long long kMaxPollMs = 60'000;
      wait_ms = static_cast<int>(std::min<long long>(left.count(), kMaxPollMs));
    }
    const NetStatus polled = poll_fd(fd, events, wait_ms);
    if (polled == NetStatus::kTimeout && !infinite &&
        Clock::now() < deadline) {
      continue;  // clamped slice expired, deadline has budget left
    }
    return polled;
  }
}

Clock::time_point deadline_from(int timeout_ms) {
  return Clock::now() + std::chrono::milliseconds(timeout_ms < 0 ? 0
                                                                 : timeout_ms);
}

}  // namespace

NetStatus poll_fd(int fd, short events, int wait_ms) {
  for (;;) {
    pollfd p{fd, events, 0};
    const int rc = ::poll(&p, 1, wait_ms);
    if (rc == 0) return NetStatus::kTimeout;
    if (rc < 0) {
      if (errno == EINTR) continue;
      return NetStatus::kError;
    }
    // Requested readiness wins even when error bits ride along: the next
    // recv/send harvests the real errno (ECONNRESET, …), which is more
    // precise than anything revents can say.
    if ((p.revents & events) != 0) return NetStatus::kOk;
    if ((p.revents & POLLNVAL) != 0) return NetStatus::kError;
    if ((p.revents & POLLERR) != 0) return NetStatus::kError;
    if ((p.revents & POLLHUP) != 0) return NetStatus::kClosed;
    return NetStatus::kOk;
  }
}

Clock::time_point deadline_after(int timeout_ms) {
  return timeout_ms < 0 ? Clock::time_point::max() : deadline_from(timeout_ms);
}

std::size_t raise_fd_limit(std::size_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur != RLIM_INFINITY &&
      static_cast<std::size_t>(lim.rlim_cur) < want) {
    rlimit raised = lim;
    raised.rlim_cur =
        lim.rlim_max == RLIM_INFINITY
            ? static_cast<rlim_t>(want)
            : std::min<rlim_t>(static_cast<rlim_t>(want), lim.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return lim.rlim_cur == RLIM_INFINITY
             ? static_cast<std::size_t>(-1)
             : static_cast<std::size_t>(lim.rlim_cur);
}

std::string net_status_name(NetStatus status) {
  switch (status) {
    case NetStatus::kOk: return "ok";
    case NetStatus::kTimeout: return "timeout";
    case NetStatus::kClosed: return "closed";
    case NetStatus::kRefused: return "refused";
    case NetStatus::kReset: return "reset";
    case NetStatus::kError: return "error";
  }
  return "unknown";
}

// --- TcpConnection --------------------------------------------------------

TcpConnection::TcpConnection(int fd) : fd_(fd) {
  set_nonblocking(fd_);
  set_nodelay(fd_);
}

TcpConnection::TcpConnection(TcpConnection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

TcpConnection::~TcpConnection() { close(); }

void TcpConnection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpConnection::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

std::optional<TcpConnection> TcpConnection::connect(const std::string& host,
                                                    std::uint16_t port,
                                                    int timeout_ms,
                                                    NetError* err) {
  sockaddr_in addr{};
  if (!parse_addr(host, port, &addr, err)) return std::nullopt;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    fill_error(err, NetStatus::kError, "socket: " + errno_text(errno));
    return std::nullopt;
  }
  TcpConnection conn(fd);  // owns the fd from here on
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    fill_error(err, status_of_errno(errno), "connect: " + errno_text(errno));
    return std::nullopt;
  }
  if (rc != 0) {
    const NetStatus waited = poll_wait(fd, POLLOUT, deadline_from(timeout_ms),
                                       timeout_ms < 0);
    if (waited == NetStatus::kTimeout) {
      fill_error(err, waited, "connect: " + net_status_name(waited));
      return std::nullopt;
    }
    // Even an error/closed wakeup goes through SO_ERROR: the pending errno
    // (ECONNREFUSED, …) is more precise than the revents mapping, and retry
    // policy keys on that distinction.
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      fill_error(err, status_of_errno(so_error),
                 "connect: " + errno_text(so_error));
      return std::nullopt;
    }
    if (waited != NetStatus::kOk) {
      fill_error(err, waited, "connect: " + net_status_name(waited));
      return std::nullopt;
    }
  }
  if (err != nullptr) *err = {};
  return conn;
}

bool TcpConnection::write_all(const void* data, std::size_t n, int timeout_ms,
                              NetError* err) {
  if (fd_ < 0) return fill_error(err, NetStatus::kClosed, "write: closed fd");
  const auto* p = static_cast<const std::uint8_t*>(data);
  const auto deadline = deadline_from(timeout_ms);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const NetStatus waited =
          poll_wait(fd_, POLLOUT, deadline, timeout_ms < 0);
      if (waited != NetStatus::kOk) {
        return fill_error(err, waited, "write: " + net_status_name(waited));
      }
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return fill_error(err, status_of_errno(errno),
                      "write: " + errno_text(errno));
  }
  if (err != nullptr) *err = {};
  return true;
}

bool TcpConnection::read_exact(void* data, std::size_t n, int timeout_ms,
                               NetError* err) {
  auto* p = static_cast<std::uint8_t*>(data);
  const auto deadline = deadline_after(timeout_ms);
  for (std::size_t got = 0; got < n;) {
    const std::size_t rc = read_some(p + got, n - got, deadline, err);
    if (rc == 0) return false;
    got += rc;
  }
  if (err != nullptr) *err = {};
  return true;
}

std::size_t TcpConnection::read_some(void* data, std::size_t n,
                                     Clock::time_point deadline,
                                     NetError* err) {
  if (fd_ < 0) {
    fill_error(err, NetStatus::kClosed, "read: closed fd");
    return 0;
  }
  for (;;) {
    const ssize_t rc = ::recv(fd_, data, n, 0);
    if (rc > 0) {
      if (err != nullptr) *err = {};
      return static_cast<std::size_t>(rc);
    }
    if (rc == 0) {
      fill_error(err, NetStatus::kClosed, "read: peer closed");
      return 0;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const NetStatus waited = poll_wait(fd_, POLLIN, deadline,
                                         deadline == Clock::time_point::max());
      if (waited != NetStatus::kOk) {
        fill_error(err, waited, "read: " + net_status_name(waited));
        return 0;
      }
      continue;
    }
    if (errno == EINTR) continue;
    fill_error(err, status_of_errno(errno), "read: " + errno_text(errno));
    return 0;
  }
}

// --- TcpListener ----------------------------------------------------------

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(other.port_) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = other.port_;
  }
  return *this;
}

TcpListener::~TcpListener() { close(); }

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<TcpListener> TcpListener::listen(const std::string& host,
                                               std::uint16_t port, int backlog,
                                               NetError* err) {
  sockaddr_in addr{};
  if (!parse_addr(host, port, &addr, err)) return std::nullopt;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    fill_error(err, NetStatus::kError, "socket: " + errno_text(errno));
    return std::nullopt;
  }
  TcpListener l;
  l.fd_ = fd;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (!set_nonblocking(fd)) {
    fill_error(err, NetStatus::kError, "fcntl: " + errno_text(errno));
    return std::nullopt;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fill_error(err, NetStatus::kError, "bind: " + errno_text(errno));
    return std::nullopt;
  }
  if (::listen(fd, backlog) != 0) {
    fill_error(err, NetStatus::kError, "listen: " + errno_text(errno));
    return std::nullopt;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    fill_error(err, NetStatus::kError, "getsockname: " + errno_text(errno));
    return std::nullopt;
  }
  l.port_ = ntohs(bound.sin_port);
  if (err != nullptr) *err = {};
  return l;
}

std::optional<TcpConnection> TcpListener::accept(int timeout_ms,
                                                 NetError* err) {
  if (fd_ < 0) {
    fill_error(err, NetStatus::kClosed, "accept: closed listener");
    return std::nullopt;
  }
  const NetStatus waited =
      poll_wait(fd_, POLLIN, deadline_from(timeout_ms), timeout_ms < 0);
  if (waited != NetStatus::kOk) {
    fill_error(err, waited, "accept: " + net_status_name(waited));
    return std::nullopt;
  }
  const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    fill_error(err, status_of_errno(errno), "accept: " + errno_text(errno));
    return std::nullopt;
  }
  if (err != nullptr) *err = {};
  return TcpConnection(fd);
}

}  // namespace baps::netio
