// Edge-triggered epoll frame server: one event-loop thread multiplexes
// every connection, so concurrent sessions cost a few hundred bytes of
// state instead of a blocked thread each — the 10k-connection path. It is
// the proxy's only server (runtime/proxy_server.hpp) and each client host's
// peer server. Frames are encoded and counted exactly as FrameChannel
// encodes and counts them (the shared netio_metrics helpers), so either end
// of a connection sees the same wire metrics.
//
// Shape: accept4(SOCK_NONBLOCK) drains the listener per readiness edge
// (EMFILE parks accepting behind a retry timer instead of spinning); each
// connection owns a growing read buffer decoded incrementally with
// wire::decode_frame (kNeedMore ⇒ wait for the next edge, so partial
// frames resume exactly where they left off; a short recv ends the read,
// except after a hang-up) and a bounded write queue flushed until EAGAIN
// (queue over budget ⇒ inbound processing pauses — true backpressure, not
// unbounded buffering). Idle connections, and ones that never send a first
// frame, expire via a hashed timer wheel. stop() drains gracefully:
// accepting stops, queued writes flush within drain_timeout_ms, stragglers
// are cut.
//
// The handler seam is per-frame, not per-session: the loop calls the
// handler once per fully-decoded inbound frame, and the handler replies
// through Connection::send (which enqueues; the loop flushes). Per-session
// protocol state hangs off Connection::state(). Handlers run ON the loop
// thread — they must not block. A handler that must wait on another
// connection instead parks its session (Connection::park): the session's
// later frames stay unread, in order, until unpark(), while every other
// connection keeps being served.
//
// The loop also owns outbound connections. connect() dials without blocking
// (EINPROGRESS, completed by EPOLLOUT) into the same epoll set; frames sent
// before the connect completes queue and flush once it does. Frames read on
// an outbound link reach the same handler (Connection::outbound() tells the
// two apart). expect_reply() arms a reply deadline on the timer wheel, and
// the connect itself has one. When an outbound link closes for any reason —
// refused, reset, EOF, a bad frame, a missed deadline, stop() — the close
// hook runs for it on the loop thread after the event that closed it has
// been handled, never inside the call that closed it, so a hook may dial,
// send and unpark freely. post() is the way in from other threads: posted
// tasks run in order on the loop thread (so they may dial), woken by eventfd.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
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
    /// Close connections silent for this long; 0 disables (sessions then
    /// end only when the peer goes away or the server stops).
    int idle_timeout_ms = 0;
    /// Close a connection whose first frame (the proxy's Hello) has not
    /// arrived this long after accept, counted as
    /// netio_epoll_hello_timeouts_total; 0 disables. Defaults to the
    /// blocking read deadline, so a silent socket holds a slot no longer
    /// than a stalled read would.
    int hello_timeout_ms = Deadlines{}.read_ms;
    /// stop() lets queued writes flush for this long before cutting.
    int drain_timeout_ms = 2000;
    /// Accept ceiling; 0 = bounded only by fds. At the ceiling accepting
    /// parks (like EMFILE) until a connection closes.
    std::size_t max_connections = 0;
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

    /// True for a link this loop dialed with connect(); false for an
    /// accepted session.
    bool outbound() const { return outbound_; }

    /// Stops handling this connection's inbound frames — the ones already
    /// buffered and the ones still in the kernel — until unpark(). Parking
    /// rides the write-backpressure pause, so the frames keep their order.
    /// Idle expiry is suspended while parked.
    void park() { parked_ = true; }
    /// Resumes a parked connection: its waiting frames are handled on the
    /// loop's current pass, after the caller's handler has returned.
    void unpark();

    /// Outbound links: the link closes — counted as a peer timeout, and the
    /// close hook runs — unless a frame arrives within `timeout_ms` (<= 0
    /// disarms). The next inbound frame disarms it.
    void expect_reply(int timeout_ms);

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
    /// Inbound handling stops while either holds: write backpressure or
    /// park(). Each has its own flag so neither lifts the other.
    bool blocked() const { return paused_ || parked_; }

    bool paused_ = false;        ///< inbound paused by write backpressure
    bool parked_ = false;        ///< inbound paused by park()
    bool read_pending_ = false;  ///< socket had more bytes when we paused
    bool outbound_ = false;      ///< dialed by connect()
    bool connecting_ = false;    ///< outbound connect still in progress
    std::uint64_t connect_due_ms_ = 0;  ///< 0 = no connect deadline armed
    std::uint64_t reply_due_ms_ = 0;    ///< 0 = no reply deadline armed
    bool peer_eof_ = false;
    bool got_frame_ = false;  ///< a first frame has decoded
    std::uint64_t accepted_ms_ = 0;
    std::uint64_t last_activity_ms = 0;
    std::shared_ptr<void> state_;
  };

  /// Called once per decoded inbound frame, on the loop thread. Return
  /// false to end the session (queued replies still flush first).
  using FrameHandler = std::function<bool(Connection&, wire::Frame&&)>;
  /// Called once for every outbound link that closes, on the loop thread,
  /// after the event that closed it (see the header comment). The
  /// connection is closed; its state() is still readable.
  using CloseHook = std::function<void(Connection&)>;

  EpollFrameServer(Params params, FrameHandler handler,
                   CloseHook on_outbound_close = nullptr);
  ~EpollFrameServer();
  EpollFrameServer(const EpollFrameServer&) = delete;
  EpollFrameServer& operator=(const EpollFrameServer&) = delete;

  /// Binds, creates the epoll set, and starts the loop thread. False (with
  /// *error) when the listener cannot bind or epoll setup fails.
  bool start(std::string* error);
  /// Graceful drain then join; idempotent.
  void stop();

  /// Attaches the frame-span tracer: send/recv spans are recorded exactly
  /// like FrameChannel records them (sampled contexts only). nullptr
  /// detaches; not owned. Safe while the loop runs.
  void set_tracer(obs::Tracer* tracer) { tracer_.store(tracer); }

  /// Loop thread only (a handler or the close hook). Dials host:port
  /// without blocking and returns the new link at once; frames sent on it
  /// queue until the connect completes. A connect that fails, even at once,
  /// or takes longer than connect_timeout_ms (<= 0: no bound) closes the
  /// link, and the close hook reports it. While stop() drains, the link
  /// comes back already closed.
  Connection& connect(const std::string& host, std::uint16_t port,
                      int connect_timeout_ms);

  /// Any thread: queues `task` to run on the loop thread, in post order.
  /// False, with `task` dropped unrun, before start() or once stop() has
  /// begun; a task still queued when the loop ends is dropped unrun too.
  bool post(std::function<void()> task);

  /// Loop thread only: the open connection with this id, or nullptr once it
  /// has closed.
  Connection* find(std::uint64_t id);

  bool running() const { return running_.load(); }
  std::uint16_t port() const { return port_; }
  /// Accepted sessions only; outbound links are not counted here.
  std::uint64_t sessions_handled() const { return sessions_handled_.load(); }
  std::size_t connections_active() const { return connections_active_.load(); }

 private:
  void loop();
  void accept_drain(std::uint64_t now_ms);
  /// Reads and decodes what `c` has queued. `events` are the epoll bits
  /// that prompted the read: a short recv ends it (the socket is empty;
  /// new bytes raise a new edge), unless they carry a hang-up, which no
  /// later edge would repeat, so it reads on to EOF.
  void read_drain(Connection& c, std::uint64_t now_ms, std::uint32_t events);
  void process_frames(Connection& c, std::uint64_t now_ms);
  void flush_writes(Connection& c);
  void finish_connect(Connection& c);
  void close_conn(Connection& c);
  /// When `c`'s next deadline falls due, or 0 when none is set: an
  /// outbound link's connect or reply deadline while one is armed,
  /// otherwise the hello or idle deadline.
  std::uint64_t deadline_ms(const Connection& c) const;
  void arm_deadline(Connection& c, std::uint64_t now_ms);
  /// Runs the close hooks and resumes unparked sessions, until neither has
  /// work left (a hook may close or unpark more).
  void run_deferred(std::uint64_t now_ms);
  std::size_t inbound_open() const {
    return conns_.size() - dead_.size() - outbound_open_;
  }
  void begin_drain(std::uint64_t now_ms);
  void reap_dead();
  std::uint64_t now_ms() const;

  Params params_;
  FrameHandler handler_;
  CloseHook on_outbound_close_;
  std::atomic<obs::Tracer*> tracer_{nullptr};
  TcpListener listener_;
  std::uint16_t port_ = 0;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_thread_;
  TimerWheel timers_;

  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::vector<std::uint64_t> dead_;
  std::vector<std::uint64_t> closed_outbound_;  ///< close hooks still to run
  std::vector<std::uint64_t> resume_;           ///< unparked, not yet resumed
  std::size_t outbound_open_ = 0;
  std::uint64_t next_id_ = 1;

  bool accept_parked_ = false;
  std::uint64_t accept_retry_at_ms_ = 0;

  bool draining_ = false;
  std::uint64_t drain_deadline_ms_ = 0;

  std::mutex posted_mu_;  ///< guards posted_ and the stop_requested_ edge
  std::vector<std::function<void()>> posted_;

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> sessions_handled_{0};
  std::atomic<std::size_t> connections_active_{0};
};

}  // namespace baps::netio
