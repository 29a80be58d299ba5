// The epoll transport equivalence proof: the same 1000-request preset trace
// slice runs through two live TCP proxies — one on the blocking worker-pool
// FrameServer (the reference), one on the edge-triggered EpollFrameServer —
// and must produce
//
//   (1) byte-identical per-request outcomes (source, body, verification),
//   (2) equal final ProxyStats, and
//   (3) bit-identical wire metric deltas: the same wire_frames_total{kind,dir}
//       and wire_bytes_total{dir} increments, frame for frame and byte for
//       byte.
//
// (3) is the strong claim: both transports must count through the shared
// netio_metrics helpers at equivalent points (rx when a frame fully decodes,
// tx when its last byte hits the socket), so any divergence in framing,
// retries, or short-circuit paths shows up as a counter mismatch. Deltas are
// compared (not absolute values) because Registry::global() is shared across
// every test in this binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"
#include "trace/presets.hpp"

namespace baps::runtime {
namespace {

constexpr std::uint32_t kClients = 8;
constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kRequests = 1000;

struct Outcome {
  std::string source;
  std::string body;
  bool verified = false;

  bool operator==(const Outcome& o) const {
    return source == o.source && body == o.body && verified == o.verified;
  }
};

using WireCounts = std::map<std::string, std::uint64_t>;

/// Every wire_frames_total{kind,dir} and wire_bytes_total{dir} instance,
/// keyed by "name|kind|dir" so the map compares structurally.
WireCounts wire_counts() {
  WireCounts counts;
  for (const obs::CounterSample& c : obs::Registry::global().snapshot().counters) {
    if (c.name != "wire_frames_total" && c.name != "wire_bytes_total") {
      continue;
    }
    std::string key = c.name;
    for (const auto& [k, v] : c.labels) {
      key += "|" + k + "=" + v;
    }
    counts[key] += c.value;
  }
  return counts;
}

WireCounts delta(const WireCounts& before, const WireCounts& after) {
  WireCounts d;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    const std::uint64_t prev = it == before.end() ? 0 : it->second;
    if (value != prev) d[key] = value - prev;
  }
  return d;
}

ProxyServer::Params proxy_params(bool event_driven) {
  ProxyServer::Params p;
  p.core.num_clients = kClients;
  p.core.seed = kSeed;
  p.net.worker_threads = kClients + 2;
  p.net.accept_poll_ms = 10;
  p.net.deadlines = netio::Deadlines{1000, 100, 1000};
  p.peer_deadlines = netio::Deadlines{300, 1000, 1000};
  p.event_driven = event_driven;
  return p;
}

/// Runs the slice against a fresh proxy and reports outcomes, final proxy
/// stats, and the wire-counter delta attributable to the slice itself (the
/// snapshot window closes before teardown, so Bye/close traffic — which
/// races server shutdown — never enters the comparison).
void run_slice(bool event_driven, const trace::Trace& t,
               std::vector<Outcome>* outcomes, ProxyStats* stats,
               WireCounts* wire_delta) {
  const WireCounts before = wire_counts();
  ProxyServer server(proxy_params(event_driven));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TcpTransport::Params tp;
  tp.proxy_port = server.port();
  // Holders keep parked peer connections open for the whole slice. With the
  // default read deadline a holder closes a socket the proxy's pool left
  // idle for 5 s, and the proxy's retry on a fresh dial adds a peer-fetch
  // frame to whichever run happened to be slow enough: a timing artefact,
  // not a transport difference.
  tp.deadlines.read_ms = 120'000;
  TcpTransport transport(tp);
  BapsSystem::Params sp;
  sp.num_clients = kClients;
  sp.seed = kSeed;
  BapsSystem system(sp, transport);

  std::size_t done = 0;
  for (const trace::Request& req : t.requests()) {
    if (done == kRequests) break;
    const auto client = static_cast<ClientId>(req.client % kClients);
    const FetchOutcome out = system.browse(client, t.url_of(req.doc));
    outcomes->push_back(
        Outcome{source_name(out.source), out.body, out.verified});
    ++done;
  }
  ASSERT_EQ(done, kRequests) << "preset slice shorter than expected";
  *stats = server.core().stats();
  // Close the measurement window while every counted frame is determined:
  // the client holds the last response, so both sides have already counted
  // everything the slice sent.
  *wire_delta = delta(before, wire_counts());
  server.stop();
}

TEST(EpollDifferentialTest, PresetSliceIsBitIdenticalAcrossTransports) {
  const trace::Trace t = trace::load_preset(trace::Preset::kBu95);

  std::vector<Outcome> blocking_outcomes;
  std::vector<Outcome> epoll_outcomes;
  ProxyStats blocking_stats;
  ProxyStats epoll_stats;
  WireCounts blocking_wire;
  WireCounts epoll_wire;
  run_slice(false, t, &blocking_outcomes, &blocking_stats, &blocking_wire);
  run_slice(true, t, &epoll_outcomes, &epoll_stats, &epoll_wire);

  // (1) Per-request outcomes.
  ASSERT_EQ(blocking_outcomes.size(), epoll_outcomes.size());
  for (std::size_t i = 0; i < blocking_outcomes.size(); ++i) {
    ASSERT_TRUE(blocking_outcomes[i] == epoll_outcomes[i])
        << "request " << i << " diverged: blocking="
        << blocking_outcomes[i].source
        << " epoll=" << epoll_outcomes[i].source;
  }

  // (2) Final proxy counters.
  EXPECT_EQ(blocking_stats.proxy_hits, epoll_stats.proxy_hits);
  EXPECT_EQ(blocking_stats.peer_hits, epoll_stats.peer_hits);
  EXPECT_EQ(blocking_stats.origin_fetches, epoll_stats.origin_fetches);
  EXPECT_EQ(blocking_stats.false_forwards, epoll_stats.false_forwards);
  EXPECT_EQ(blocking_stats.rejected_index_updates,
            epoll_stats.rejected_index_updates);

  // (3) Bit-identical wire metric deltas, instance by instance.
  ASSERT_EQ(blocking_wire.size(), epoll_wire.size())
      << "one transport touched a wire counter the other never did";
  for (const auto& [key, value] : blocking_wire) {
    const auto it = epoll_wire.find(key);
    ASSERT_NE(it, epoll_wire.end()) << "missing on epoll side: " << key;
    EXPECT_EQ(value, it->second) << key;
  }
}

}  // namespace
}  // namespace baps::runtime
