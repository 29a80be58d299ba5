// Edge-triggered epoll frame server: one event-loop thread multiplexes
// every connection, so concurrent sessions cost a few hundred bytes of
// state instead of a blocked thread each — the 10k-connection path. It is
// the proxy's only server (runtime/proxy_server.hpp). Frames are encoded and
// counted exactly as FrameChannel encodes and counts them (the shared
// netio_metrics helpers), so either end of a connection sees the same wire
// metrics.
//
// Shape: accept4(SOCK_NONBLOCK) drains the listener per readiness edge
// (EMFILE parks accepting behind a retry timer instead of spinning); each
// connection owns a growing read buffer decoded incrementally with
// wire::decode_frame (kNeedMore ⇒ wait for the next edge, so partial
// frames resume exactly where they left off) and a bounded write queue
// flushed until EAGAIN (queue over budget ⇒ inbound processing pauses —
// true backpressure, not unbounded buffering). Idle connections expire
// via a hashed timer wheel. stop() drains gracefully: accepting stops,
// queued writes flush within drain_timeout_ms, stragglers are cut.
//
// The handler seam is per-frame, not per-session: the loop calls the
// handler once per fully-decoded inbound frame, and the handler replies
// through Connection::send (which enqueues; the loop flushes). Per-session
// protocol state hangs off Connection::state(). Handlers run ON the loop
// thread — they must not block.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "netio/socket.hpp"
#include "netio/timer_wheel.hpp"
#include "obs/span.hpp"
#include "wire/frame.hpp"

namespace baps::netio {

class EpollFrameServer {
 public:
  struct Params {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 → ephemeral
    int backlog = 1024;
    std::uint64_t max_frame_payload = wire::kDefaultMaxPayload;
    /// Per-connection write-queue budget; above it the connection's inbound
    /// processing pauses until the queue drains below half.
    std::size_t max_write_queue_bytes = 4u << 20;
    /// Close connections silent for this long; 0 disables (sessions then
    /// end only when the peer goes away or the server stops).
    int idle_timeout_ms = 0;
    /// stop() lets queued writes flush for this long before cutting.
    int drain_timeout_ms = 2000;
    /// Accept ceiling; 0 = bounded only by fds. At the ceiling accepting
    /// parks (like EMFILE) until a connection closes.
    std::size_t max_connections = 0;
    /// When set, frame send/recv spans are recorded exactly like
    /// FrameChannel records them (sampled contexts only). set_tracer()
    /// replaces it on a running server.
    obs::Tracer* tracer = nullptr;
  };

  /// One live connection, only ever touched from the loop thread. Handlers
  /// reply via send() and may stash per-session protocol state in state().
  class Connection {
   public:
    std::uint64_t id() const { return id_; }

    /// Enqueues one frame (encoded exactly as FrameChannel::send encodes
    /// it) and flushes as far as the socket allows. False when the
    /// connection is already closed.
    bool send(wire::FrameKind kind, std::string_view payload);
    bool send(wire::FrameKind kind, std::string_view payload,
              const obs::TraceContext& trace);
    /// Enqueues bytes the caller already framed as one `kind` frame, counted
    /// like send() — fault injection sends a deliberately corrupted frame
    /// this way. Untraced.
    bool send_encoded(wire::FrameKind kind, std::string bytes);

    /// Close once every queued byte is flushed (orderly protocol end).
    void close_after_flush();

    bool closed() const { return closed_; }
    std::size_t write_queue_bytes() const { return wq_bytes_; }

    /// Per-session state slot for the handler (e.g. proxy session FSM).
    std::shared_ptr<void>& state() { return state_; }

   private:
    friend class EpollFrameServer;

    struct OutFrame {
      std::string bytes;
      std::size_t off = 0;
      wire::FrameKind kind{};
      bool traced = false;
      obs::TraceContext trace;
      std::uint64_t t0 = 0;
    };

    bool enqueue(OutFrame out);

    EpollFrameServer* server_ = nullptr;
    int fd_ = -1;
    std::uint64_t id_ = 0;
    std::string rbuf_;
    std::size_t rbuf_off_ = 0;
    std::deque<OutFrame> wq_;
    std::size_t wq_bytes_ = 0;
    bool close_after_flush_ = false;
    bool closed_ = false;
    bool paused_ = false;        ///< inbound parked by write backpressure
    bool read_pending_ = false;  ///< socket had more bytes when we paused
    bool peer_eof_ = false;
    std::uint64_t last_activity_ms = 0;
    std::shared_ptr<void> state_;
  };

  /// Called once per decoded inbound frame, on the loop thread. Return
  /// false to end the session (queued replies still flush first).
  using FrameHandler = std::function<bool(Connection&, wire::Frame&&)>;

  EpollFrameServer(Params params, FrameHandler handler);
  ~EpollFrameServer();
  EpollFrameServer(const EpollFrameServer&) = delete;
  EpollFrameServer& operator=(const EpollFrameServer&) = delete;

  /// Binds, creates the epoll set, and starts the loop thread. False (with
  /// *error) when the listener cannot bind or epoll setup fails.
  bool start(std::string* error);
  /// Graceful drain then join; idempotent.
  void stop();

  /// Swaps the frame-span tracer (nullptr detaches; not owned). Safe while
  /// the loop runs.
  void set_tracer(obs::Tracer* tracer) { tracer_.store(tracer); }

  bool running() const { return running_.load(); }
  std::uint16_t port() const { return port_; }
  std::uint64_t sessions_handled() const { return sessions_handled_.load(); }
  std::size_t connections_active() const { return connections_active_.load(); }

 private:
  void loop();
  void accept_drain(std::uint64_t now_ms);
  void read_drain(Connection& c, std::uint64_t now_ms);
  void process_frames(Connection& c, std::uint64_t now_ms);
  void flush_writes(Connection& c);
  void close_conn(Connection& c);
  void begin_drain(std::uint64_t now_ms);
  void reap_dead();
  std::uint64_t now_ms() const;

  Params params_;
  FrameHandler handler_;
  std::atomic<obs::Tracer*> tracer_;
  TcpListener listener_;
  std::uint16_t port_ = 0;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_thread_;
  TimerWheel timers_;

  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::vector<std::uint64_t> dead_;
  std::uint64_t next_id_ = 1;

  bool accept_parked_ = false;
  std::uint64_t accept_retry_at_ms_ = 0;

  bool draining_ = false;
  std::uint64_t drain_deadline_ms_ = 0;

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> sessions_handled_{0};
  std::atomic<std::size_t> connections_active_{0};
};

}  // namespace baps::netio
