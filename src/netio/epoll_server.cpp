#include "netio/epoll_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "netio/netio_metrics.hpp"
#include "obs/proc_stats.hpp"
#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace baps::netio {

namespace {

// epoll_event.data.u64 sentinels; connection ids start at 1.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};

// How long EMFILE/ENFILE (or the max_connections ceiling) parks accepting
// before retrying. Short enough to recover promptly, long enough that a
// stuck fd table does not spin a core.
constexpr std::uint64_t kAcceptParkMs = 50;

// Per-connection write-queue budget; above it the connection's inbound
// processing pauses until the queue drains below half.
constexpr std::size_t kMaxWriteQueueBytes = 4u << 20;

// Event bits after which a read goes on to EOF instead of stopping at the
// first short recv (see read_drain).
constexpr std::uint32_t kHangupEvents = EPOLLRDHUP | EPOLLHUP | EPOLLERR;
// A read resumed after a pause: its hang-up edge, if any, was consumed
// while paused, so it reads on to EOF as if the edge had just come.
constexpr std::uint32_t kResumeEvents = EPOLLIN | EPOLLRDHUP;

struct EpollCounters {
  obs::Counter& wakeups;
  obs::Counter& accept_errors;
  obs::Counter& accept_backpressure;
  obs::Counter& writeq_stalls;
  obs::Counter& idle_closes;
  obs::Counter& hello_timeouts;
  obs::Counter& peer_timeouts;
  obs::Counter& drained;
  obs::Counter& connections_total;
  obs::Gauge& connections_active;

  static EpollCounters& get() {
    auto& reg = obs::Registry::global();
    static EpollCounters c{
        reg.counter("netio_epoll_wakeups_total"),
        reg.counter("netio_accept_errors_total"),
        reg.counter("netio_epoll_accept_backpressure_total"),
        reg.counter("netio_epoll_writeq_stall_total"),
        reg.counter("netio_epoll_idle_closes_total"),
        reg.counter("netio_epoll_hello_timeouts_total"),
        reg.counter("netio_peer_timeouts_total"),
        reg.counter("netio_epoll_drained_total"),
        reg.counter("netio_connections_total"),
        reg.gauge("netio_connections_active"),
    };
    return c;
  }
};

}  // namespace

// --- Connection -----------------------------------------------------------

bool EpollFrameServer::Connection::send(wire::FrameKind kind,
                                        std::string_view payload) {
  return send(kind, payload, obs::TraceContext{});
}

bool EpollFrameServer::Connection::send(wire::FrameKind kind,
                                        std::string_view payload,
                                        const obs::TraceContext& trace) {
  if (closed_) return false;
  const bool sampled = trace.valid() && trace.sampled;
  OutFrame out;
  out.kind = kind;
  out.traced = sampled && server_->tracer_.load() != nullptr;
  out.trace = trace;
  out.t0 = out.traced ? obs::monotonic_ns() : 0;
  // Same encoding rule as FrameChannel::send: unsampled contexts stay off
  // the wire so untraced frames are byte-identical across transports.
  out.bytes = sampled ? wire::encode_frame(kind, payload, trace)
                      : wire::encode_frame(kind, payload);
  return enqueue(std::move(out));
}

bool EpollFrameServer::Connection::send_encoded(wire::FrameKind kind,
                                                std::string bytes) {
  if (closed_) return false;
  OutFrame out;
  out.kind = kind;
  out.bytes = std::move(bytes);
  return enqueue(std::move(out));
}

bool EpollFrameServer::Connection::enqueue(OutFrame out) {
  const std::size_t size = out.bytes.size();
  // Accounted at enqueue, not at flush completion: this is the epoll
  // equivalent of FrameChannel::send counting before write_all. Once the
  // peer can observe the frame the counter already includes it, so the two
  // transports stay bit-identical under snapshots taken downstream of a
  // reply.
  count_wire_frame(out.kind, "tx", size);
  wq_.push_back(std::move(out));
  wq_bytes_ += size;
  if (!paused_ && wq_bytes_ > kMaxWriteQueueBytes) {
    // Backpressure: a peer that won't read its responses stops being read
    // from, instead of growing our queue without bound.
    paused_ = true;
    EpollCounters::get().writeq_stalls.inc();
  }
  server_->flush_writes(*this);
  return !closed_;
}

void EpollFrameServer::Connection::close_after_flush() {
  if (closed_) return;
  close_after_flush_ = true;
  if (wq_.empty()) server_->close_conn(*this);
}

void EpollFrameServer::Connection::unpark() {
  if (!parked_) return;
  parked_ = false;
  // Deferred: the caller is usually another connection's handler, and this
  // session's frames must not run nested inside it.
  server_->resume_.push_back(id_);
}

void EpollFrameServer::Connection::expect_reply(int timeout_ms) {
  if (closed_) return;
  const std::uint64_t now = server_->now_ms();
  reply_due_ms_ =
      timeout_ms > 0 ? now + static_cast<std::uint64_t>(timeout_ms) : 0;
  server_->arm_deadline(*this, now);
}

// --- EpollFrameServer -----------------------------------------------------

EpollFrameServer::EpollFrameServer(Params params, FrameHandler handler,
                                   CloseHook on_outbound_close)
    : params_(std::move(params)),
      handler_(std::move(handler)),
      on_outbound_close_(std::move(on_outbound_close)) {
  BAPS_REQUIRE(handler_ != nullptr, "EpollFrameServer needs a handler");
}

EpollFrameServer::~EpollFrameServer() { stop(); }

std::uint64_t EpollFrameServer::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

bool EpollFrameServer::post(std::function<void()> task) {
  const std::lock_guard<std::mutex> lock(posted_mu_);
  if (!running_.load() || stop_requested_.load()) return false;
  posted_.push_back(std::move(task));
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
  return true;
}

bool EpollFrameServer::start(std::string* error) {
  BAPS_REQUIRE(!running_.load(), "server already started");
  NetError err;
  auto listener =
      TcpListener::listen(params_.host, params_.port, params_.backlog, &err);
  if (!listener.has_value()) {
    if (error != nullptr) *error = err.message;
    return false;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    if (error != nullptr) *error = std::string("epoll_create1: ") +
                                   std::strerror(errno);
    return false;
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    if (error != nullptr) *error = std::string("eventfd: ") +
                                   std::strerror(errno);
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return false;
  }
  listener_ = std::move(*listener);
  port_ = listener_.port();
  epoch_ = std::chrono::steady_clock::now();

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  register_netio_metric_families();
  stop_requested_.store(false);
  draining_ = false;
  running_.store(true);
  loop_thread_ = std::thread([this] { loop(); });
  return true;
}

void EpollFrameServer::stop() {
  if (!running_.exchange(false)) return;
  {
    // Under the lock: every post() either sees the flag or has already
    // written to wake_fd_, which is closed below.
    const std::lock_guard<std::mutex> lock(posted_mu_);
    stop_requested_.store(true);
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc =
      ::write(wake_fd_, &one, sizeof(one));
  if (loop_thread_.joinable()) loop_thread_.join();
  posted_.clear();
  conns_.clear();
  dead_.clear();
  closed_outbound_.clear();
  resume_.clear();
  outbound_open_ = 0;
  listener_.close();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void EpollFrameServer::begin_drain(std::uint64_t now) {
  if (draining_) return;
  draining_ = true;
  drain_deadline_ms_ = now + static_cast<std::uint64_t>(
                                 std::max(0, params_.drain_timeout_ms));
  // Accepting ends immediately; the listener fd stays in the epoll set but
  // readiness on it is ignored from here on.
  // Sessions with nothing queued end now; the rest get the drain budget.
  for (auto& [id, conn] : conns_) {
    Connection& c = *conn;
    if (c.closed_) continue;
    c.close_after_flush_ = true;
    if (c.wq_.empty()) close_conn(c);
  }
  // No reap here: closed links stay until their close hooks have run.
}

void EpollFrameServer::loop() {
  const obs::ScopedThreadCpu cpu("netio_epoll");
  auto& counters = EpollCounters::get();
  std::vector<epoll_event> events(256);
  std::vector<std::uint64_t> expired;
  for (;;) {
    // Poll budget: the nearest of timer tick, accept-retry, drain deadline.
    int timeout = timers_.poll_budget_ms();
    const std::uint64_t now_before = now_ms();
    if (accept_parked_) {
      const std::uint64_t wait = accept_retry_at_ms_ > now_before
                                     ? accept_retry_at_ms_ - now_before
                                     : 0;
      const int w = static_cast<int>(std::min<std::uint64_t>(wait, 1000));
      timeout = timeout < 0 ? w : std::min(timeout, w);
    }
    if (draining_) {
      if (conns_.empty()) break;
      const std::uint64_t wait = drain_deadline_ms_ > now_before
                                     ? drain_deadline_ms_ - now_before
                                     : 0;
      const int w = static_cast<int>(std::min<std::uint64_t>(wait, 1000));
      timeout = timeout < 0 ? w : std::min(timeout, w);
    }
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout);
    if (n < 0 && errno != EINTR) break;
    counters.wakeups.inc();
    const std::uint64_t now = now_ms();

    for (std::size_t i = 0; i < static_cast<std::size_t>(std::max(n, 0));
         ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t evs = events[i].events;
      if (tag == kWakeTag) {
        std::uint64_t buf = 0;
        while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
        }
        std::vector<std::function<void()>> tasks;
        {
          const std::lock_guard<std::mutex> lock(posted_mu_);
          tasks.swap(posted_);
        }
        for (auto& task : tasks) task();
        continue;
      }
      if (tag == kListenerTag) {
        if (!draining_) accept_drain(now);
        continue;
      }
      const auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Connection& c = *it->second;
      if (c.closed_) continue;
      if (c.connecting_) {
        finish_connect(c);
        if (c.closed_ || c.connecting_) continue;
      }
      if ((evs & EPOLLOUT) != 0) flush_writes(c);
      if (!c.closed_ && (evs & (EPOLLIN | kHangupEvents)) != 0) {
        read_drain(c, now, evs);
      }
    }

    if (stop_requested_.load() && !draining_) begin_drain(now);

    if (accept_parked_ && !draining_ && now >= accept_retry_at_ms_) {
      accept_parked_ = false;
      accept_drain(now);
    }

    expired.clear();
    timers_.advance(now, &expired);
    for (const std::uint64_t id : expired) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Connection& c = *it->second;
      const std::uint64_t due = deadline_ms(c);
      if (c.closed_ || due == 0) continue;
      if (now >= due) {
        const bool peer_wait = c.connect_due_ms_ != 0 || c.reply_due_ms_ != 0;
        const bool no_hello =
            !c.outbound_ && !c.got_frame_ && params_.hello_timeout_ms > 0 &&
            now - c.accepted_ms_ >=
                static_cast<std::uint64_t>(params_.hello_timeout_ms);
        (peer_wait  ? counters.peer_timeouts
         : no_hello ? counters.hello_timeouts
                    : counters.idle_closes)
            .inc();
        close_conn(c);
      } else {
        // Activity since arming: re-arm for what is left.
        timers_.arm(id, now, due - now);
      }
    }

    run_deferred(now);
    if (draining_) {
      if (conns_.size() == dead_.size() || now >= drain_deadline_ms_) {
        for (auto& [id, conn] : conns_) {
          if (!conn->closed_) {
            counters.drained.inc();
            close_conn(*conn);
          }
        }
        // Hooks run while draining_ holds, so a link they dial comes back
        // closed and the loop still ends.
        run_deferred(now);
        reap_dead();
        break;
      }
    }
    reap_dead();
  }
  reap_dead();
}

void EpollFrameServer::run_deferred(std::uint64_t now) {
  while (!closed_outbound_.empty() || !resume_.empty()) {
    std::vector<std::uint64_t> closed;
    closed.swap(closed_outbound_);
    for (const std::uint64_t id : closed) {
      // Closed links stay in conns_ until reap_dead(), after this.
      const auto it = conns_.find(id);
      if (it != conns_.end() && on_outbound_close_) {
        on_outbound_close_(*it->second);
      }
    }
    std::vector<std::uint64_t> resumed;
    resumed.swap(resume_);
    for (const std::uint64_t id : resumed) {
      Connection* c = find(id);
      if (c == nullptr || c->blocked()) continue;
      arm_deadline(*c, now);
      process_frames(*c, now);
      if (!c->closed_ && !c->blocked() && c->read_pending_) {
        c->read_pending_ = false;
        read_drain(*c, now, kResumeEvents);
      }
    }
  }
}

EpollFrameServer::Connection& EpollFrameServer::connect(
    const std::string& host, std::uint16_t port, int connect_timeout_ms) {
  const std::uint64_t now = now_ms();
  auto conn = std::make_unique<Connection>();
  Connection& c = *conn;
  c.server_ = this;
  c.id_ = next_id_++;
  c.outbound_ = true;
  c.last_activity_ms = now;
  conns_.emplace(c.id_, std::move(conn));
  ++outbound_open_;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  bool ok = !draining_ && !stop_requested_.load() &&
            ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
  if (ok) {
    c.fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    ok = c.fd_ >= 0;
  }
  if (ok) {
    int one = 1;
    ::setsockopt(c.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int rc =
        ::connect(c.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    c.connecting_ = rc != 0;
    ok = rc == 0 || errno == EINPROGRESS;
  }
  if (ok) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = c.id_;
    ok = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd_, &ev) == 0;
  }
  if (!ok) {
    // Reported like any other failure: through the close hook, later.
    close_conn(c);
    return c;
  }
  if (c.connecting_ && connect_timeout_ms > 0) {
    c.connect_due_ms_ = now + static_cast<std::uint64_t>(connect_timeout_ms);
    arm_deadline(c, now);
  }
  return c;
}

EpollFrameServer::Connection* EpollFrameServer::find(std::uint64_t id) {
  const auto it = conns_.find(id);
  return it == conns_.end() || it->second->closed_ ? nullptr
                                                   : it->second.get();
}

void EpollFrameServer::finish_connect(Connection& c) {
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(c.fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    close_conn(c);  // refused, unreachable, reset
    return;
  }
  c.connecting_ = false;
  c.connect_due_ms_ = 0;
  flush_writes(c);
}

void EpollFrameServer::reap_dead() {
  for (const std::uint64_t id : dead_) conns_.erase(id);
  dead_.clear();
}

void EpollFrameServer::accept_drain(std::uint64_t now) {
  auto& counters = EpollCounters::get();
  for (;;) {
    if (params_.max_connections != 0 &&
        inbound_open() >= params_.max_connections) {
      counters.accept_backpressure.inc();
      accept_parked_ = true;
      accept_retry_at_ms_ = now + kAcceptParkMs;
      return;
    }
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds: park accepting behind a retry timer. The ET edge is
        // consumed, so accept_parked_ (not epoll) schedules the retry.
        counters.accept_backpressure.inc();
        counters.accept_errors.inc();
        accept_parked_ = true;
        accept_retry_at_ms_ = now + kAcceptParkMs;
        return;
      }
      counters.accept_errors.inc();
      accept_parked_ = true;  // unknown error: retry later, don't spin
      accept_retry_at_ms_ = now + kAcceptParkMs;
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    Connection& c = *conn;
    c.server_ = this;
    c.fd_ = fd;
    c.id_ = next_id_++;
    c.last_activity_ms = now;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = c.id_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      counters.accept_errors.inc();
      ::close(fd);
      continue;
    }
    conns_.emplace(c.id_, std::move(conn));
    connections_active_.store(inbound_open());
    counters.connections_total.inc();
    counters.connections_active.set(static_cast<double>(inbound_open()));
    c.accepted_ms_ = now;
    arm_deadline(c, now);
    // New sockets start readable-empty; data arriving later edges EPOLLIN.
  }
}

void EpollFrameServer::read_drain(Connection& c, std::uint64_t now,
                                  std::uint32_t events) {
  if (c.blocked()) {
    // Backpressured or parked: leave bytes in the kernel. ET won't re-edge
    // for data already queued, so remember to resume reading on unpause.
    c.read_pending_ = true;
    return;
  }
  char buf[64 * 1024];
  for (;;) {
    const ssize_t rc = ::recv(c.fd_, buf, sizeof(buf), 0);
    if (rc > 0) {
      c.rbuf_.append(buf, static_cast<std::size_t>(rc));
      c.last_activity_ms = now;
      // Decode eagerly between reads so one huge burst doesn't accumulate
      // an entire edge's bytes before any frame is handled.
      process_frames(c, now);
      if (c.closed_ || c.blocked()) {
        c.read_pending_ = c.blocked();
        return;
      }
      // A short read emptied the socket: bytes arriving later raise a new
      // edge, so one more recv would only return EAGAIN. A hang-up raises
      // none, so after one the read goes on to EOF.
      if (static_cast<std::size_t>(rc) < sizeof(buf) &&
          (events & kHangupEvents) == 0) {
        return;
      }
      continue;
    }
    if (rc == 0) {
      c.peer_eof_ = true;
      // Orderly EOF: whatever is queued still flushes, then the fd closes.
      // A partial frame left in rbuf_ is a truncated stream — drop it, as
      // FrameChannel surfaces read-kClosed mid-frame.
      c.close_after_flush();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(c);  // ECONNRESET and friends
    return;
  }
}

void EpollFrameServer::process_frames(Connection& c, std::uint64_t now) {
  while (!c.closed_ && !c.blocked()) {
    const std::string_view view(c.rbuf_.data() + c.rbuf_off_,
                                c.rbuf_.size() - c.rbuf_off_);
    if (view.empty()) break;
    obs::Tracer* const tracer = tracer_.load();
    const bool may_trace = tracer != nullptr && tracer->enabled();
    const std::uint64_t t0 = may_trace ? obs::monotonic_ns() : 0;
    wire::DecodeResult r = wire::decode_frame(view, wire::kDefaultMaxPayload);
    if (r.status == wire::DecodeStatus::kNeedMore) break;
    if (r.status != wire::DecodeStatus::kOk) {
      count_decode_error(wire::decode_status_name(r.status));
      close_conn(c);
      return;
    }
    count_wire_frame(r.frame.kind, "rx", r.consumed);
    c.rbuf_off_ += r.consumed;
    c.last_activity_ms = now;
    c.got_frame_ = true;
    c.reply_due_ms_ = 0;
    if (may_trace && r.frame.trace.sampled) {
      tracer->record_span(obs::SpanKind::kFrameRecv, r.frame.trace, t0,
                          obs::monotonic_ns());
    }
    if (!handler_(c, std::move(r.frame))) {
      c.close_after_flush();
      break;
    }
  }
  // Reclaim the consumed prefix once it dominates the buffer; amortized
  // O(1) per byte.
  if (c.rbuf_off_ > 4096 && c.rbuf_off_ * 2 >= c.rbuf_.size()) {
    c.rbuf_.erase(0, c.rbuf_off_);
    c.rbuf_off_ = 0;
  }
}

void EpollFrameServer::flush_writes(Connection& c) {
  if (c.closed_ || c.connecting_) return;
  while (!c.wq_.empty()) {
    Connection::OutFrame& f = c.wq_.front();
    const ssize_t rc = ::send(c.fd_, f.bytes.data() + f.off,
                              f.bytes.size() - f.off, MSG_NOSIGNAL);
    if (rc > 0) {
      f.off += static_cast<std::size_t>(rc);
      c.wq_bytes_ -= static_cast<std::size_t>(rc);
      if (f.off == f.bytes.size()) {
        // Counted at enqueue (Connection::send); only the span timing waits
        // for the actual flush.
        obs::Tracer* const tracer = f.traced ? tracer_.load() : nullptr;
        if (tracer != nullptr) {
          tracer->record_span(obs::SpanKind::kFrameSend, f.trace, f.t0,
                              obs::monotonic_ns());
        }
        c.wq_.pop_front();
      }
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (rc < 0 && errno == EINTR) continue;
    close_conn(c);  // EPIPE / ECONNRESET: peer is gone, queue is garbage
    return;
  }
  if (c.wq_.empty() && c.close_after_flush_) {
    close_conn(c);
    return;
  }
  if (c.paused_ && c.wq_bytes_ <= kMaxWriteQueueBytes / 2) {
    c.paused_ = false;
    if (c.parked_) return;  // unpark() resumes it
    process_frames(c, now_ms());
    if (!c.closed_ && !c.paused_ && c.read_pending_) {
      c.read_pending_ = false;
      read_drain(c, now_ms(), kResumeEvents);
    }
  }
}

std::uint64_t EpollFrameServer::deadline_ms(const Connection& c) const {
  if (c.connect_due_ms_ != 0 || c.reply_due_ms_ != 0) {
    // An outbound link waiting on its peer: only the peer deadlines apply.
    if (c.connect_due_ms_ == 0) return c.reply_due_ms_;
    if (c.reply_due_ms_ == 0) return c.connect_due_ms_;
    return std::min(c.connect_due_ms_, c.reply_due_ms_);
  }
  // A parked session is waiting on the loop, not on its peer.
  if (c.parked_) return 0;
  std::uint64_t due = 0;
  const auto consider = [&due](std::uint64_t from, int budget_ms) {
    if (budget_ms <= 0) return;
    const std::uint64_t at = from + static_cast<std::uint64_t>(budget_ms);
    due = due == 0 ? at : std::min(due, at);
  };
  if (!c.outbound_ && !c.got_frame_) {
    consider(c.accepted_ms_, params_.hello_timeout_ms);
  }
  consider(c.last_activity_ms, params_.idle_timeout_ms);
  return due;
}

void EpollFrameServer::arm_deadline(Connection& c, std::uint64_t now) {
  const std::uint64_t due = deadline_ms(c);
  if (due != 0) timers_.arm(c.id_, now, due > now ? due - now : 0);
}

void EpollFrameServer::close_conn(Connection& c) {
  if (c.closed_) return;
  c.closed_ = true;
  timers_.cancel(c.id_);
  if (c.fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd_, nullptr);
    ::close(c.fd_);
    c.fd_ = -1;
  }
  dead_.push_back(c.id_);
  if (c.outbound_) {
    --outbound_open_;
    closed_outbound_.push_back(c.id_);
  } else {
    sessions_handled_.fetch_add(1);
  }
  const std::size_t active = inbound_open();
  connections_active_.store(active);
  EpollCounters::get().connections_active.set(static_cast<double>(active));
  if (accept_parked_ && params_.max_connections != 0) {
    // A slot freed below the ceiling: retry accepting on the next loop pass.
    accept_retry_at_ms_ = 0;
  }
}

}  // namespace baps::netio
