// A blocking-I/O frame server on a small worker pool: one accept thread
// feeds accepted connections to a fixed set of session workers, each of
// which runs the caller's handler over a FrameChannel. The pool bounds
// resource use (excess connections queue); stop() is a clean shutdown —
// the listener closes, queued connections drop, and in-flight sessions are
// unblocked by shutting their sockets down, then joined.
//
// Its one user is TcpTransport's per-client peer listener, which serves the
// proxy's PeerFetch frames; the proxy itself serves on EpollFrameServer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "netio/frame_channel.hpp"
#include "netio/socket.hpp"

namespace baps::netio {

class FrameServer {
 public:
  struct Params {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 → ephemeral
    std::size_t worker_threads = 4;
    int accept_poll_ms = 50;  ///< stop-flag responsiveness of the accept loop
    Deadlines deadlines;      ///< per-session I/O deadlines
    std::uint64_t max_frame_payload = wire::kDefaultMaxPayload;
  };

  /// Runs one connection's session; returns when the session ends. `stop`
  /// flips when the server is shutting down — long-lived sessions should
  /// treat a read timeout as "check stop, then keep waiting".
  using ConnectionHandler =
      std::function<void(FrameChannel& channel, const std::atomic<bool>& stop)>;

  FrameServer(Params params, ConnectionHandler handler);
  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds and starts the accept loop + workers. False (with *error) if the
  /// listener cannot bind.
  bool start(std::string* error);
  /// Idempotent clean shutdown; joins every thread.
  void stop();

  bool running() const { return running_.load(); }
  std::uint16_t port() const { return port_; }
  std::uint64_t sessions_handled() const { return sessions_handled_.load(); }

 private:
  void accept_loop();
  void worker_loop();

  Params params_;
  ConnectionHandler handler_;
  TcpListener listener_;
  std::uint16_t port_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<TcpConnection> pending_;
  std::unordered_set<int> active_fds_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> sessions_handled_{0};
};

}  // namespace baps::netio
