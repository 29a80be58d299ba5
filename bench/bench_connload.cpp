// bench_connload — connection-scale load for the epoll proxy: drives N
// concurrent TCP clients (default 10000) through a baps_proxyd, each doing
// Hello/HelloAck then `--reps` Introspect{proxy} frame roundtrips,
// then HOLDING its connection open until every client has finished — so the
// proxy really is carrying N established sessions at once, not N serial
// ones. Reports accept rate and p50/p99/p999 frame-roundtrip latency as
// baps.report.v1 gauges (validated by report_check, visible in baps_top).
//
// The client engine is a single-threaded epoll loop of its own: non-blocking
// connects ramped in batches (so the listener backlog is never overrun),
// per-connection state machines with incremental frame decode — the same
// discipline as the server side, exercised from the other end of the wire.
//
// Against an external daemon (the 10k-connection setting — two processes,
// each holding N fds):
//   baps_proxyd --port 4160 &
//   bench_connload --port 4160 --connections 10000
// Self-contained smoke (in-process proxy, both ends' fds in one process —
// keep N a few thousand or less):
//   bench_connload --connections 500
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "netio/netio_metrics.hpp"
#include "netio/socket.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/timer.hpp"
#include "runtime/proxy_server.hpp"
#include "util/args.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/messages.hpp"

namespace {

using namespace baps;

struct Conn {
  enum class State {
    kConnecting,
    kAwaitHelloAck,
    kAwaitIntrospect,
    kHolding,
    kDone,
    kFailed,
  };
  int fd = -1;
  State state = State::kConnecting;
  std::string rbuf;
  std::size_t roff = 0;
  std::string wbuf;
  std::size_t woff = 0;
  std::uint32_t reps_left = 0;
  double t_send = 0.0;
  bool registered_out = false;
};

struct Engine {
  std::string host;
  std::uint16_t port = 0;
  std::size_t target = 0;
  std::size_t ramp_batch = 0;
  std::uint32_t reps = 1;
  double deadline = 0.0;

  int ep = -1;
  std::vector<Conn> conns;
  std::size_t started = 0;
  std::size_t connecting = 0;
  std::size_t established_total = 0;
  std::size_t active = 0;
  std::size_t peak_active = 0;
  std::size_t finished = 0;  // kDone + kFailed
  std::size_t failures = 0;
  std::vector<double> latencies;
  double t_first_connect = 0.0;
  double t_last_established = 0.0;

  bool done() const { return finished >= target; }
  bool all_roundtrips_done() const {
    return finished + holding() >= target;
  }
  std::size_t holding_count = 0;
  std::size_t holding() const { return holding_count; }
};

void set_epoll(Engine& e, Conn& c, std::size_t idx, bool want_out) {
  if (c.registered_out == want_out) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
  ev.data.u64 = idx;
  ::epoll_ctl(e.ep, EPOLL_CTL_MOD, c.fd, &ev);
  c.registered_out = want_out;
}

void finish(Engine& e, Conn& c, bool failed) {
  if (c.state == Conn::State::kDone || c.state == Conn::State::kFailed) return;
  if (c.state == Conn::State::kConnecting) {
    e.connecting--;
  } else {
    e.active--;
  }
  if (c.state == Conn::State::kHolding) e.holding_count--;
  c.state = failed ? Conn::State::kFailed : Conn::State::kDone;
  if (failed) e.failures++;
  e.finished++;
  if (c.fd >= 0) {
    ::epoll_ctl(e.ep, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
  }
}

void queue_frame(Engine& e, Conn& c, std::size_t idx, wire::FrameKind kind,
                 const std::string& payload) {
  c.wbuf.append(wire::encode_frame(kind, payload));
  // Eager flush; leftovers wait for EPOLLOUT.
  while (c.woff < c.wbuf.size()) {
    const ssize_t rc = ::send(c.fd, c.wbuf.data() + c.woff,
                              c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (rc > 0) {
      c.woff += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (rc < 0 && errno == EINTR) continue;
    finish(e, c, /*failed=*/true);
    return;
  }
  if (c.woff == c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
    set_epoll(e, c, idx, false);
  } else {
    set_epoll(e, c, idx, true);
  }
}

void start_roundtrip(Engine& e, Conn& c, std::size_t idx) {
  c.t_send = obs::monotonic_seconds();
  c.state = Conn::State::kAwaitIntrospect;
  queue_frame(e, c, idx, wire::IntrospectRequest::kKind,
              wire::encode(wire::IntrospectRequest{wire::kIntrospectProxy}));
}

void on_frame(Engine& e, Conn& c, std::size_t idx, const wire::Frame& frame) {
  switch (c.state) {
    case Conn::State::kAwaitHelloAck: {
      wire::HelloAck ack;
      if (frame.kind != wire::HelloAck::kKind ||
          !wire::decode(frame.payload, &ack)) {
        finish(e, c, /*failed=*/true);
        return;
      }
      start_roundtrip(e, c, idx);
      return;
    }
    case Conn::State::kAwaitIntrospect: {
      wire::IntrospectResponse reply;
      if (frame.kind != wire::IntrospectResponse::kKind ||
          !wire::decode(frame.payload, &reply)) {
        finish(e, c, /*failed=*/true);
        return;
      }
      e.latencies.push_back(obs::monotonic_seconds() - c.t_send);
      if (--c.reps_left > 0) {
        start_roundtrip(e, c, idx);
      } else {
        // Hold the established session open until the whole fleet is done —
        // this is what makes "peak concurrent connections" a real claim.
        c.state = Conn::State::kHolding;
        e.holding_count++;
      }
      return;
    }
    default:
      finish(e, c, /*failed=*/true);  // unexpected traffic
      return;
  }
}

void read_drain(Engine& e, Conn& c, std::size_t idx) {
  char buf[16 * 1024];
  for (;;) {
    const ssize_t rc = ::recv(c.fd, buf, sizeof(buf), 0);
    if (rc > 0) {
      c.rbuf.append(buf, static_cast<std::size_t>(rc));
      for (;;) {
        const std::string_view view(c.rbuf.data() + c.roff,
                                    c.rbuf.size() - c.roff);
        if (view.empty()) break;
        wire::DecodeResult r = wire::decode_frame(view);
        if (r.status == wire::DecodeStatus::kNeedMore) break;
        if (r.status != wire::DecodeStatus::kOk) {
          finish(e, c, /*failed=*/true);
          return;
        }
        c.roff += r.consumed;
        on_frame(e, c, idx, r.frame);
        if (c.fd < 0) return;
      }
      if (c.roff > 0 && c.roff == c.rbuf.size()) {
        c.rbuf.clear();
        c.roff = 0;
      }
      continue;
    }
    if (rc == 0) {
      finish(e, c, c.state != Conn::State::kHolding);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    finish(e, c, /*failed=*/true);
    return;
  }
}

void flush_writes(Engine& e, Conn& c, std::size_t idx) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t rc = ::send(c.fd, c.wbuf.data() + c.woff,
                              c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (rc > 0) {
      c.woff += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (rc < 0 && errno == EINTR) continue;
    finish(e, c, /*failed=*/true);
    return;
  }
  c.wbuf.clear();
  c.woff = 0;
  set_epoll(e, c, idx, false);
}

void start_connect(Engine& e) {
  const std::size_t idx = e.started;
  Conn& c = e.conns[idx];
  e.started++;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) {
    c.state = Conn::State::kFailed;
    e.failures++;
    e.finished++;
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(e.port);
  ::inet_pton(AF_INET, e.host.c_str(), &addr.sin_addr);
  c.fd = fd;
  c.reps_left = e.reps;
  if (e.t_first_connect == 0.0) e.t_first_connect = obs::monotonic_seconds();
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    c.fd = -1;
    c.state = Conn::State::kFailed;
    e.failures++;
    e.finished++;
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.u64 = idx;
  c.registered_out = true;
  ::epoll_ctl(e.ep, EPOLL_CTL_ADD, fd, &ev);
  e.connecting++;
}

void on_connected(Engine& e, Conn& c, std::size_t idx) {
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    finish(e, c, /*failed=*/true);
    return;
  }
  e.connecting--;
  e.active++;
  e.established_total++;
  e.peak_active = std::max(e.peak_active, e.active);
  e.t_last_established = obs::monotonic_seconds();
  c.state = Conn::State::kAwaitHelloAck;
  // A Hello with no peer port registers nothing at the proxy: 10k of these
  // sessions cost the proxy only their connection state, which is exactly
  // what this bench measures.
  const wire::Hello hello;
  set_epoll(e, c, idx, false);
  queue_frame(e, c, idx, wire::Hello::kKind, wire::encode(hello));
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t connections = 10000;
  std::uint64_t ramp_batch = 500;
  std::uint64_t reps = 1;
  std::uint64_t max_seconds = 120;
  std::uint64_t min_peak = 0;
  std::string metrics_out;

  util::ArgParser parser(
      "bench_connload",
      "Drive N concurrent connections through a BAPS proxy and report "
      "accept rate and frame-roundtrip latency quantiles.");
  parser.option("--host", &host, "H", "proxy host (default 127.0.0.1)")
      .option("--port", &port, "P",
              "proxy port; 0 (default) spawns an in-process proxy — use an "
              "external baps_proxyd for the full 10k run so each process "
              "keeps its fd table to itself")
      .option("--connections", &connections, "N",
              "concurrent connections to establish (default 10000)")
      .option("--ramp-batch", &ramp_batch, "N",
              "connects in flight at once during ramp (default 500, keeps "
              "the listener backlog under somaxconn)")
      .option("--reps", &reps, "N",
              "Introspect{proxy} roundtrips per connection (default 1)")
      .option("--max-seconds", &max_seconds, "S",
              "abort the run after S seconds (default 120)")
      .option("--min-peak", &min_peak, "N",
              "exit nonzero unless peak concurrent connections reaches N "
              "(CI gate; default 0: report only)")
      .option("--metrics-out", &metrics_out, "FILE",
              "write a baps.report.v1 JSON report");

  std::string error;
  if (!parser.parse(argc, argv, &error)) {
    std::cerr << error << "\n" << parser.usage();
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage();
    return 0;
  }
  if (connections == 0 || reps == 0) {
    std::cerr << "--connections and --reps must be at least 1\n";
    return 2;
  }

  // Both ends in one process need 2 fds per connection plus slack.
  netio::raise_fd_limit(port == 0 ? connections * 2 + 256
                                  : connections + 256);
  netio::register_netio_metric_families();

  std::unique_ptr<runtime::ProxyServer> local;
  if (port == 0) {
    runtime::ProxyServer::Params params;
    params.core.num_clients = 4;
    local = std::make_unique<runtime::ProxyServer>(params);
    if (!local->start(&error)) {
      std::cerr << "cannot start in-process proxy: " << error << "\n";
      return 1;
    }
    port = local->port();
  }

  Engine e;
  e.host = host;
  e.port = port;
  e.target = connections;
  e.ramp_batch = ramp_batch;
  e.reps = static_cast<std::uint32_t>(reps);
  e.conns.resize(e.target);
  e.latencies.reserve(e.target * reps);
  e.ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (e.ep < 0) {
    std::cerr << "epoll_create1: " << std::strerror(errno) << "\n";
    return 1;
  }

  const double t_start = obs::monotonic_seconds();
  e.deadline = t_start + static_cast<double>(max_seconds);
  std::vector<epoll_event> events(4096);
  bool released = false;
  while (!e.done()) {
    const double now = obs::monotonic_seconds();
    if (now >= e.deadline) break;
    while (e.started < e.target && e.connecting < e.ramp_batch) {
      start_connect(e);
    }
    // Everyone connected and measured: release the holding fleet.
    if (!released && e.started == e.target && e.all_roundtrips_done()) {
      released = true;
      for (std::size_t i = 0; i < e.conns.size(); ++i) {
        Conn& c = e.conns[i];
        if (c.state == Conn::State::kHolding) {
          queue_frame(e, c, i, wire::Bye::kKind, wire::encode(wire::Bye{}));
          if (c.fd >= 0) finish(e, c, /*failed=*/false);
        }
      }
      continue;
    }
    const int n = ::epoll_wait(e.ep, events.data(),
                               static_cast<int>(events.size()), 50);
    if (n < 0 && errno != EINTR) break;
    const std::size_t nev = static_cast<std::size_t>(std::max(n, 0));
    for (std::size_t i = 0; i < nev; ++i) {
      const std::size_t idx = static_cast<std::size_t>(events[i].data.u64);
      Conn& c = e.conns[idx];
      if (c.fd < 0) continue;
      const std::uint32_t evs = events[i].events;
      if (c.state == Conn::State::kConnecting) {
        if ((evs & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
          on_connected(e, c, idx);
        }
        continue;
      }
      if ((evs & EPOLLOUT) != 0) flush_writes(e, c, idx);
      if (c.fd >= 0 && (evs & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
        read_drain(e, c, idx);
      }
    }
  }
  const double elapsed = obs::monotonic_seconds() - t_start;
  // Whatever is still open at the deadline failed to finish.
  for (std::size_t i = 0; i < e.conns.size(); ++i) {
    if (e.conns[i].fd >= 0) finish(e, e.conns[i], /*failed=*/true);
  }
  ::close(e.ep);
  if (local != nullptr) local->stop();

  std::sort(e.latencies.begin(), e.latencies.end());
  const double p50 = quantile(e.latencies, 0.50);
  const double p99 = quantile(e.latencies, 0.99);
  const double p999 = quantile(e.latencies, 0.999);
  const double ramp_span =
      e.t_last_established > e.t_first_connect
          ? e.t_last_established - e.t_first_connect
          : elapsed;
  const double accept_rate =
      ramp_span > 0.0 ? static_cast<double>(e.established_total) / ramp_span
                      : 0.0;

  auto& reg = obs::Registry::global();
  reg.gauge("connload_connections_target")
      .set(static_cast<double>(e.target));
  reg.gauge("connload_connections_peak")
      .set(static_cast<double>(e.peak_active));
  reg.gauge("connload_accept_rate_per_second").set(accept_rate);
  reg.counter("connload_established_total").inc(e.established_total);
  reg.counter("connload_connect_failures_total").inc(e.failures);
  reg.counter("connload_roundtrips_total").inc(e.latencies.size());
  reg.gauge("connload_roundtrip_quantile_seconds", {{"q", "p50"}}).set(p50);
  reg.gauge("connload_roundtrip_quantile_seconds", {{"q", "p99"}}).set(p99);
  reg.gauge("connload_roundtrip_quantile_seconds", {{"q", "p999"}}).set(p999);
  auto& hist = reg.histogram("connload_roundtrip_seconds", -7.0, 3.0, 50,
                             obs::HistScale::kLog10);
  for (const double v : e.latencies) hist.observe(v);

  std::cout << "connload: target=" << e.target << " peak=" << e.peak_active
            << " established=" << e.established_total
            << " failures=" << e.failures
            << " roundtrips=" << e.latencies.size()
            << " accept_rate=" << accept_rate << "/s"
            << " p50=" << p50 * 1e3 << "ms"
            << " p99=" << p99 * 1e3 << "ms"
            << " p999=" << p999 * 1e3 << "ms"
            << " elapsed=" << elapsed << "s\n";

  if (!metrics_out.empty()) {
    const bool ok = obs::ReportBuilder("bench_connload")
                        .set_title("concurrent connection load")
                        .set_args(argc, argv)
                        .set_registry(reg.snapshot())
                        .write(metrics_out, &error);
    if (!ok) {
      std::cerr << "cannot write " << metrics_out << ": " << error << "\n";
      return 1;
    }
    std::cerr << "wrote " << metrics_out << "\n";
  }
  if (min_peak != 0 && e.peak_active < min_peak) {
    std::cerr << "FAIL: peak concurrent connections " << e.peak_active
              << " < required " << min_peak << "\n";
    return 1;
  }
  return 0;
}
