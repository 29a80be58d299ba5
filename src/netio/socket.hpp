// POSIX TCP primitives with explicit deadlines. Sockets are kept
// non-blocking and every operation is poll()-driven against an absolute
// deadline, so a dead or wedged peer costs a bounded wait — never a hang.
// Errors are typed (NetError) so callers can distinguish the transient
// failures worth retrying (refused, reset) from timeouts and hard faults.
//
// Hosts are IPv4 literals ("127.0.0.1"); the transport targets LAN / loopback
// deployments (the paper's §6 setting) and deliberately avoids resolver
// dependencies.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace baps::netio {

enum class NetStatus {
  kOk,
  kTimeout,  ///< deadline expired
  kClosed,   ///< orderly EOF from the peer
  kRefused,  ///< connection refused (no listener)
  kReset,    ///< connection reset / broken pipe
  kError,    ///< anything else (address, resource, protocol)
};

std::string net_status_name(NetStatus status);

struct NetError {
  NetStatus status = NetStatus::kOk;
  std::string message;

  bool ok() const { return status == NetStatus::kOk; }
  /// Worth retrying with backoff: the listener may simply not be up yet.
  bool transient() const {
    return status == NetStatus::kRefused || status == NetStatus::kReset;
  }
};

/// Per-operation deadlines, milliseconds. Negative means wait forever
/// (used only by tests; the daemons always bound their waits).
struct Deadlines {
  int connect_ms = 2000;
  int read_ms = 5000;
  int write_ms = 5000;
};

/// One bounded poll() on `fd` for `events` (wait_ms < 0 waits forever,
/// oversized waits are clamped). Unlike a raw poll(), the returned status
/// reflects `revents`: readiness of the requested events wins, but a wakeup
/// carrying only error bits maps POLLNVAL/POLLERR to kError and a lone
/// POLLHUP to kClosed instead of reporting the fd as ready.
NetStatus poll_fd(int fd, short events, int wait_ms);

/// The absolute deadline `timeout_ms` from now, for operations that span
/// several reads; a negative timeout gives time_point::max(), which never
/// expires.
std::chrono::steady_clock::time_point deadline_after(int timeout_ms);

/// Best-effort RLIMIT_NOFILE raise to at least `want` fds (clamped to the
/// hard limit). Returns the resulting soft limit. The 10k-connection paths
/// (epoll server, bench_connload) call this so default 1024-fd shells don't
/// masquerade as EMFILE backpressure.
std::size_t raise_fd_limit(std::size_t want);

/// A connected TCP stream. Move-only RAII over the fd.
class TcpConnection {
 public:
  TcpConnection() = default;
  /// Adopts an already-connected fd (from accept); sets non-blocking +
  /// TCP_NODELAY.
  explicit TcpConnection(int fd);
  TcpConnection(TcpConnection&& other) noexcept;
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;
  ~TcpConnection();

  /// Connects to host:port within `timeout_ms`.
  static std::optional<TcpConnection> connect(const std::string& host,
                                              std::uint16_t port,
                                              int timeout_ms, NetError* err);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes exactly `n` bytes or fails (partial progress does not count).
  bool write_all(const void* data, std::size_t n, int timeout_ms,
                 NetError* err);
  /// Reads exactly `n` bytes or fails with kClosed / kTimeout / kReset.
  bool read_exact(void* data, std::size_t n, int timeout_ms, NetError* err);
  /// Reads whatever has arrived, at least 1 and at most `n` bytes (n > 0).
  /// Bytes already queued cost one recv and no poll; otherwise it waits
  /// until `deadline` (see deadline_after) for some. Returns the count, or
  /// 0 with `err` set to kClosed / kTimeout / kReset / kError.
  std::size_t read_some(void* data, std::size_t n,
                        std::chrono::steady_clock::time_point deadline,
                        NetError* err);

  /// Unblocks any thread blocked in read/write on this socket (used for
  /// clean shutdown from another thread) without releasing the fd.
  void shutdown_both();
  void close();

 private:
  int fd_ = -1;
};

/// A bound, listening TCP socket.
class TcpListener {
 public:
  TcpListener() = default;
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  /// Binds host:port (port 0 picks an ephemeral port) and listens.
  static std::optional<TcpListener> listen(const std::string& host,
                                           std::uint16_t port, int backlog,
                                           NetError* err);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// The actually bound port (resolves ephemeral binds).
  std::uint16_t port() const { return port_; }

  /// Accepts one connection, waiting at most `timeout_ms` (kTimeout when
  /// none arrives — callers poll in a loop so stop flags stay responsive).
  std::optional<TcpConnection> accept(int timeout_ms, NetError* err);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace baps::netio
