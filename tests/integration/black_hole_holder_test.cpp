// A black-hole holder: the index names a browser whose host's advertised
// peer port accepts connections and never answers. One host's fetch waits
// on it for the proxy's peer read deadline, then falls back to the origin;
// meanwhile another host's requests, served from the proxy cache, must not
// wait behind it. A proxy that ran the holder exchange on its event loop
// would freeze every session for the whole deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "netio/socket.hpp"
#include "obs/registry.hpp"
#include "raw_host.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"

namespace baps::runtime {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeed = 19;
constexpr std::uint32_t kClients = 3;
constexpr ClientId kBlackHoleHolder = 2;

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

BapsSystem::Params system_params() {
  BapsSystem::Params p;
  p.num_clients = kClients;
  p.seed = kSeed;
  return p;
}

TEST(BlackHoleHolderTest, OtherHostsProxyHitsDoNotWaitForTheDeadHolder) {
  ProxyServer::Params params;
  params.core.num_clients = kClients;
  params.core.seed = kSeed;
  ProxyServer server(params);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const int reply_ms = params.peer_reply_ms;

  // The kernel completes the handshake for a listener that never accepts,
  // so each PeerFetch is written and then sits unread.
  netio::NetError err;
  auto black_hole = netio::TcpListener::listen("127.0.0.1", 0, 8, &err);
  ASSERT_TRUE(black_hole.has_value()) << err.message;
  const Url wanted = "http://blackhole.test/doc";
  testing::RawHost holder_host(server.port(), black_hole->port(), kSeed,
                               kClients);
  ASSERT_TRUE(holder_host.announce(kBlackHoleHolder, wanted));

  TcpTransport::Params tp;
  tp.proxy_port = server.port();
  TcpTransport wire_a(tp);
  TcpTransport wire_b(tp);
  BapsSystem host_a(system_params(), wire_a);
  BapsSystem host_b(system_params(), wire_b);

  // Host B warms the proxy cache; from then on its transport-level fetches
  // (which bypass B's browser cache) are proxy hits.
  const Url warm = "http://warm.test/doc";
  wire_b.fetch(1, warm, false, {});
  ASSERT_EQ(wire_b.fetch(1, warm, false, {}).source,
            FetchOutcome::Source::kProxy);

  const std::uint64_t timeouts = counter("netio_peer_timeouts_total");
  const std::uint64_t retries = counter("netio_peer_retries_total");
  std::atomic<bool> a_done{false};
  FetchOutcome a_out;
  std::chrono::milliseconds a_ms{0};
  std::thread a([&] {
    const auto start = Clock::now();
    a_out = host_a.browse(0, wanted);
    a_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - start);
    a_done.store(true);
  });

  std::vector<double> b_ms;
  bool b_all_proxy = true;
  while (!a_done.load()) {
    const auto start = Clock::now();
    const ProxyCore::Reply reply = wire_b.fetch(1, warm, false, {});
    b_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() -
                                                             start)
                       .count());
    b_all_proxy = b_all_proxy && reply.source == FetchOutcome::Source::kProxy;
  }
  a.join();

  // Host A: the dead holder cost one bounded wait, then the origin served
  // a verified copy; one false forward, one peer timeout, no retry (the
  // link was freshly dialed).
  EXPECT_TRUE(a_out.verified);
  EXPECT_EQ(a_out.source, FetchOutcome::Source::kOrigin);
  EXPECT_GE(a_ms.count(), reply_ms - 100);
  EXPECT_LT(a_ms.count(), reply_ms + 1500);
  EXPECT_EQ(host_a.false_forwards(), 1u);
  EXPECT_EQ(counter("netio_peer_timeouts_total"), timeouts + 1);
  EXPECT_EQ(counter("netio_peer_retries_total"), retries);

  // Host B: served all along.
  ASSERT_FALSE(b_ms.empty());
  EXPECT_TRUE(b_all_proxy);
  std::sort(b_ms.begin(), b_ms.end());
  // Nearest rank: with few samples the p99 is the maximum.
  const double p99 = b_ms[(b_ms.size() * 99 + 99) / 100 - 1];
  EXPECT_GE(b_ms.size(), 20u) << "host B barely ran while A waited";
  EXPECT_LT(p99, 50.0) << "host B waited behind the dead holder; max "
                       << b_ms.back() << " ms over " << b_ms.size()
                       << " requests";
  server.stop();
}

}  // namespace
}  // namespace baps::runtime
