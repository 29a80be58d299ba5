// bench_connload — connection-scale load for the epoll proxy: N clients
// (default 10000) each do Hello/HelloAck and one timed Introspect{proxy}
// round trip, then HOLD their connection until the whole fleet is done, so
// the proxy carries N sessions at once, not N serial ones. Accept rate and
// p50/p99/p999 round-trip latency go out as baps.report.v1 gauges.
//
// The clients are outbound links of one EpollFrameServer, dialed with the
// connect() the proxy uses for its holder links. Each HelloAck (the moment a
// link counts as established), and each link that fails before one, dials
// the next, so at most kRampBatch connects are in flight.
//
//   baps_proxyd --port 4160 &     # the 10k setting: two processes, N fds each
//   bench_connload --port 4160 --connections 10000
//   bench_connload --connections 500  # in-process proxy: keep N in thousands
#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "netio/socket.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/timer.hpp"
#include "runtime/proxy_server.hpp"  // and netio::EpollFrameServer
#include "util/args.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/messages.hpp"

namespace {

using namespace baps;
using Connection = netio::EpollFrameServer::Connection;

// Connects in flight at once: keeps the listener backlog under somaxconn.
constexpr std::size_t kRampBatch = 500;
// The run is abandoned after this long; links still open count as failures.
constexpr auto kMaxRun = std::chrono::seconds(120);

/// Per-link protocol state, kept in Connection::state().
struct Link {
  enum class Phase { kHello, kTimed, kHolding, kReleased };
  Phase phase = Phase::kHello;
  double t_send = 0.0;
};

Link& link_of(Connection& c) {
  return *std::static_pointer_cast<Link>(c.state());
}

/// True when `frame` is a well-formed M.
template <typename M>
bool is(const wire::Frame& frame) {
  M m;
  return frame.kind == M::kKind && wire::decode(frame.payload, &m);
}

/// Only the client loop thread touches the fleet; main waits on `all_closed`
/// and reads the rest after stop() has joined the loop.
struct Fleet {
  netio::EpollFrameServer* server = nullptr;
  std::string host;
  std::uint16_t port = 0;
  std::size_t target = 0;

  std::vector<std::uint64_t> ids;  // every link dialed, in dial order
  std::size_t dialing = 0;         // dialed, no HelloAck yet
  std::size_t active = 0;          // HelloAck'd and not closed
  std::size_t holding = 0, finished = 0, failures = 0;
  std::size_t established = 0, peak = 0;
  std::vector<double> latencies;
  double t_last_established = 0.0;
  std::promise<void> all_closed;

  void dial_more() {
    while (ids.size() < target && dialing < kRampBatch) {
      Connection& c = server->connect(host, port, /*connect_timeout_ms=*/0);
      c.state() = std::make_shared<Link>();
      ids.push_back(c.id());
      ++dialing;
      // Queued until the connect completes. With no peer port it registers
      // nothing: the proxy pays only its connection state, which is measured.
      c.send(wire::Hello::kKind, wire::encode(wire::Hello{}));
    }
  }

  bool on_frame(Connection& c, const wire::Frame& frame) {
    Link& link = link_of(c);
    if (link.phase == Link::Phase::kHello && is<wire::HelloAck>(frame)) {
      --dialing;
      ++established;
      peak = std::max(peak, ++active);
      link.phase = Link::Phase::kTimed;
      link.t_send = t_last_established = obs::monotonic_seconds();
      const bool sent = c.send(
          wire::IntrospectRequest::kKind,
          wire::encode(wire::IntrospectRequest{wire::kIntrospectProxy}));
      dial_more();
      return sent;
    }
    if (link.phase != Link::Phase::kTimed ||
        !is<wire::IntrospectResponse>(frame)) {
      return false;  // unexpected traffic
    }
    latencies.push_back(obs::monotonic_seconds() - link.t_send);
    // Hold the session open until the whole fleet is done — this is what
    // makes "peak concurrent connections" a real claim.
    link.phase = Link::Phase::kHolding;
    ++holding;
    release_if_all_holding();
    return true;
  }

  void on_close(Connection& c) {
    const Link::Phase phase = link_of(c).phase;
    (phase == Link::Phase::kHello ? dialing : active)--;
    if (phase == Link::Phase::kHolding) --holding;
    if (phase != Link::Phase::kReleased) ++failures;
    ++finished;
    if (phase == Link::Phase::kHello) dial_more();
    release_if_all_holding();
    if (finished == target) all_closed.set_value();
  }

  /// Once every link is holding or closed (so all have been dialed), says
  /// Bye on each holding link and closes it after the flush.
  void release_if_all_holding() {
    if (holding == 0 || finished + holding < target) return;
    for (const std::uint64_t id : ids) {
      Connection* c = server->find(id);
      if (c == nullptr || link_of(*c).phase != Link::Phase::kHolding) continue;
      link_of(*c).phase = Link::Phase::kReleased;
      --holding;
      c->send(wire::Bye::kKind, wire::encode(wire::Bye{}));
      c->close_after_flush();
    }
  }
};

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  return std::lerp(sorted[lo], sorted[std::min(lo + 1, sorted.size() - 1)],
                   pos - static_cast<double>(lo));
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t connections = 10000;
  std::uint64_t min_peak = 0;
  std::string metrics_out;

  util::ArgParser parser(
      "bench_connload",
      "Drive N concurrent connections through a BAPS proxy and report "
      "accept rate and frame-roundtrip latency quantiles.");
  parser.option("--host", &host, "H", "proxy host (default 127.0.0.1)")
      .option("--port", &port, "P", "proxy port; 0 (default): in-process")
      .option("--connections", &connections, "N",
              "links held open at once (default 10000)")
      .option("--min-peak", &min_peak, "N",
              "exit 1 unless peak concurrency reaches N (default 0: report)")
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
  if (connections == 0) {
    std::cerr << "--connections must be at least 1\n";
    return 2;
  }

  // Both ends in one process need 2 fds per connection plus slack.
  netio::raise_fd_limit(port == 0 ? connections * 2 + 256
                                  : connections + 256);

  std::unique_ptr<runtime::ProxyServer> local;
  if (port == 0) {
    local = std::make_unique<runtime::ProxyServer>(
        runtime::ProxyServer::Params{});
    if (!local->start(&error)) {
      std::cerr << "cannot start in-process proxy: " << error << "\n";
      return 1;
    }
    port = local->port();
  }

  Fleet fleet;
  fleet.host = host;
  fleet.port = port;
  fleet.target = connections;
  netio::EpollFrameServer client(
      netio::EpollFrameServer::Params{},
      [&fleet](Connection& c, wire::Frame&& frame) {
        return fleet.on_frame(c, frame);
      },
      [&fleet](Connection& c) { fleet.on_close(c); });
  fleet.server = &client;
  const std::future<void> all_closed = fleet.all_closed.get_future();
  const double t_start = obs::monotonic_seconds();
  if (!client.start(&error) || !client.post([&] { fleet.dial_more(); })) {
    std::cerr << "cannot start client loop: " << error << "\n";
    return 1;
  }
  all_closed.wait_for(kMaxRun);
  const double elapsed = obs::monotonic_seconds() - t_start;
  // Whatever is still open now is cut by the drain and counted as failed.
  client.stop();
  if (local != nullptr) local->stop();

  std::vector<double>& latencies = fleet.latencies;
  std::sort(latencies.begin(), latencies.end());
  const double ramp_s = fleet.t_last_established - t_start;  // < 0: none
  const double accept_rate =
      ramp_s > 0.0 ? static_cast<double>(fleet.established) / ramp_s : 0.0;

  auto& reg = obs::Registry::global();
  reg.gauge("connload_connections_target")
      .set(static_cast<double>(fleet.target));
  reg.gauge("connload_connections_peak").set(static_cast<double>(fleet.peak));
  reg.gauge("connload_accept_rate_per_second").set(accept_rate);
  reg.counter("connload_established_total").inc(fleet.established);
  reg.counter("connload_connect_failures_total").inc(fleet.failures);
  reg.counter("connload_roundtrips_total").inc(latencies.size());
  auto& hist = reg.histogram("connload_roundtrip_seconds", -7.0, 3.0, 50,
                             obs::HistScale::kLog10);
  for (const double v : latencies) hist.observe(v);

  std::cout << "connload: target=" << fleet.target << " peak=" << fleet.peak
            << " established=" << fleet.established << " failures="
            << fleet.failures << " roundtrips=" << latencies.size()
            << " accept_rate=" << accept_rate << "/s";
  for (const auto& [label, q] : {std::pair{"p50", 0.50}, std::pair{"p99", 0.99},
                                 std::pair{"p999", 0.999}}) {
    const double v = quantile(latencies, q);
    reg.gauge("connload_roundtrip_quantile_seconds", {{"q", label}}).set(v);
    std::cout << " " << label << "=" << v * 1e3 << "ms";
  }
  std::cout << " elapsed=" << elapsed << "s\n";

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
  if (min_peak != 0 && fleet.peak < min_peak) {
    std::cerr << "FAIL: peak concurrent connections " << fleet.peak
              << " < required " << min_peak << "\n";
    return 1;
  }
  return 0;
}
