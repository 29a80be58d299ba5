#include "runtime/transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "netio/frame_channel.hpp"
#include "obs/registry.hpp"
#include "runtime/loopback_transport.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"
#include "wire/messages.hpp"

namespace baps::runtime {
namespace {

BapsSystem::Params small_params() {
  BapsSystem::Params p;
  p.num_clients = 3;
  p.proxy_cache_bytes = 8 << 10;  // small enough to evict under pressure
  p.browser_cache_bytes = 16 << 10;
  p.seed = 42;
  return p;
}

// Pushes the target document out of the proxy cache so the next request for
// it must route through the browser index (same idiom as system_test.cpp).
void evict_proxy_cache(BapsSystem& sys, ClientId filler_client) {
  for (int i = 0; i < 64; ++i) {
    sys.browse(filler_client, "http://filler.example/" + std::to_string(i));
  }
}

ProxyServer::Params server_params(const BapsSystem::Params& p) {
  ProxyServer::Params sp;
  sp.core.num_clients = p.num_clients;
  sp.core.proxy_cache_bytes = p.proxy_cache_bytes;
  sp.core.seed = p.seed;
  sp.core.rsa_modulus_bits = p.rsa_modulus_bits;
  sp.peer_deadlines = netio::Deadlines{200, 500, 500};
  return sp;
}

TcpTransport::Params transport_params(std::uint16_t port) {
  TcpTransport::Params tp;
  tp.proxy_port = port;
  tp.deadlines = netio::Deadlines{1000, 2000, 2000};
  return tp;
}

// A deterministic little workload with re-references (peer/proxy/local hits),
// spread across clients.
std::vector<std::pair<ClientId, std::string>> workload(std::uint32_t clients,
                                                       int n) {
  std::vector<std::pair<ClientId, std::string>> ops;
  for (int i = 0; i < n; ++i) {
    const auto c =
        static_cast<ClientId>(static_cast<std::uint32_t>(i * 7 + i / 5) %
                              clients);
    const int url = (i * 13) % 17;
    ops.emplace_back(c, "http://doc" + std::to_string(url) + ".test/");
  }
  return ops;
}

TEST(TransportTest, LoopbackExposesEmbeddedProxyState) {
  BapsSystem sys(small_params());
  sys.browse(0, "http://a.test/");
  EXPECT_EQ(sys.origin_fetches(), 1u);
  EXPECT_EQ(sys.origin().fetch_count(), 1u);
  EXPECT_TRUE(sys.browser_index().holds(0, url_key("http://a.test/")));
}

TEST(TransportTest, TcpProxyPublicKeyMatchesTheCore) {
  const auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TcpTransport transport(transport_params(server.port()));
  const crypto::RsaPublicKey over_wire = transport.proxy_public_key();
  EXPECT_EQ(over_wire.n, server.core().public_key().n);
  EXPECT_EQ(over_wire.e, server.core().public_key().e);
  server.stop();
}

TEST(TransportTest, TcpFetchOutcomesMatchLoopbackExactly) {
  const auto params = small_params();

  BapsSystem loopback(params);

  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem tcp(params, transport);

  for (const auto& [client, url] : workload(params.num_clients, 120)) {
    const FetchOutcome a = loopback.browse(client, url);
    const FetchOutcome b = tcp.browse(client, url);
    ASSERT_EQ(source_name(a.source), source_name(b.source))
        << "diverged at client " << client << " url " << url;
    ASSERT_EQ(a.body, b.body);
    ASSERT_EQ(a.verified, b.verified);
    ASSERT_EQ(a.tamper_recovered, b.tamper_recovered);
  }

  EXPECT_EQ(loopback.local_hits(), tcp.local_hits());
  EXPECT_EQ(loopback.proxy_hits(), tcp.proxy_hits());
  EXPECT_EQ(loopback.peer_hits(), tcp.peer_hits());
  EXPECT_EQ(loopback.origin_fetches(), tcp.origin_fetches());
  EXPECT_EQ(loopback.false_forwards(), tcp.false_forwards());
  server.stop();
}

TEST(TransportTest, TcpTamperedPeerDeliveryIsDetectedAndRecovered) {
  auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);

  const std::string url = "http://tampered.test/";
  sys.browse(0, url);  // client0 now holds the document
  evict_proxy_cache(sys, 2);
  sys.set_tampering(0, true);

  const FetchOutcome out = sys.browse(1, url);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.tamper_recovered);
  EXPECT_EQ(out.source, FetchOutcome::Source::kOrigin);
  EXPECT_GE(sys.tamper_detections(), 1u);
  server.stop();
}

TEST(TransportTest, TcpSpoofedIndexRemoveIsRejected) {
  auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);

  const std::string url = "http://victim.test/";
  sys.browse(1, url);  // client1 registers the document
  evict_proxy_cache(sys, 0);
  EXPECT_FALSE(sys.spoof_index_remove(/*attacker=*/2, /*victim=*/1, url));
  EXPECT_EQ(sys.rejected_index_updates(), 1u);
  // The victim's registration survived: client2's request is served by peer.
  const FetchOutcome out = sys.browse(2, url);
  EXPECT_EQ(out.source, FetchOutcome::Source::kRemoteBrowser);
  server.stop();
}

TEST(TransportTest, TcpHostUpdatesApplyBeforeItsNextRequest) {
  // Updates are written without an ack. The proxy reads one host's channel
  // in order, so a request another browser on the same host sends right
  // after them must already see them applied.
  auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);

  // Removes: client0 departs politely, pipelining one remove per held
  // document; client1 then asks for each. A remove still in flight would
  // route the fetch to the departed client0 — a false forward.
  std::vector<std::string> held;
  for (int i = 0; i < 5; ++i) {
    held.push_back("http://departing.test/" + std::to_string(i));
    sys.browse(0, held.back());
  }
  evict_proxy_cache(sys, 2);
  for (const std::string& url : held) ASSERT_TRUE(sys.client_has(0, url));
  sys.depart_client(0, /*polite=*/true);
  for (const std::string& url : held) {
    EXPECT_EQ(sys.browse(1, url).source, FetchOutcome::Source::kOrigin);
  }
  EXPECT_EQ(sys.false_forwards(), 0u);

  // An add: client1 gets the document from client0 and announces its copy;
  // client0 departs (its remove is pipelined right behind the add), and
  // client2 asks at once. Only the add makes client1 a holder.
  sys.rejoin_client(0);
  const std::string url = "http://handed-on.test/";
  sys.browse(0, url);
  evict_proxy_cache(sys, 2);
  ASSERT_EQ(sys.browse(1, url).source, FetchOutcome::Source::kRemoteBrowser);
  sys.depart_client(0, /*polite=*/true);
  EXPECT_EQ(sys.browse(2, url).source, FetchOutcome::Source::kRemoteBrowser);
  EXPECT_EQ(sys.false_forwards(), 0u);
  EXPECT_EQ(sys.rejected_index_updates(), 0u);
  server.stop();
}

TEST(TransportTest, DeadPeerDegradesToOriginWithinDeadline) {
  auto params = small_params();
  auto sp = server_params(params);
  ProxyServer server(sp);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);

  const std::string url = "http://dying-peer.test/";
  sys.browse(0, url);  // client0 holds + registers the document
  evict_proxy_cache(sys, 2);
  transport.kill_peer_server(0);

  // The proxy's index still routes to client0's (now dead) peer port. The
  // fetch must not hang: one bounded connect failure, then origin.
  const auto start = std::chrono::steady_clock::now();
  const FetchOutcome out = sys.browse(1, url);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  EXPECT_EQ(out.source, FetchOutcome::Source::kOrigin);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(sys.false_forwards(), 1u);
  EXPECT_LT(ms, 5000) << "dead peer must cost a bounded wait, not a hang";

  // The stale entry was dropped: the next miss goes straight to origin
  // without another false forward.
  sys.browse(2, url);
  EXPECT_EQ(sys.false_forwards(), 1u);
  server.stop();
}

TEST(TransportTest, ObserverConnectionsRegisterNothing) {
  auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);

  sys.browse(0, "http://stats.test/");
  // Stats travel on the host's own channel; they name no browser.
  const ProxyStats stats = transport.stats();
  EXPECT_EQ(stats.origin_fetches, 1u);
  EXPECT_EQ(stats.proxy_hits, 0u);
  server.stop();
}

TEST(TransportTest, PeerFetchForAnUnknownHolderClosesTheConnection) {
  auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);

  const std::string url = "http://held.test/";
  const FetchOutcome held = sys.browse(0, url);
  const obs::Counter& bad_holder = obs::Registry::global().counter(
      "wire_decode_errors_total", {{"reason", "bad-holder"}});
  const std::uint64_t before = bad_holder.value();

  const auto dial_peer_server = [&transport]()
      -> std::optional<netio::FrameChannel> {
    netio::NetError err;
    auto conn = netio::TcpConnection::connect(
        "127.0.0.1", transport.peer_port(), 2000, &err);
    if (!conn.has_value()) return std::nullopt;
    return netio::FrameChannel(std::move(*conn),
                               netio::Deadlines{2000, 3000, 3000});
  };

  // The holder id arrives from outside the host: one past the last browser
  // must close the connection and count a decode error, not abort the host.
  {
    auto channel = dial_peer_server();
    ASSERT_TRUE(channel.has_value());
    netio::NetError err;
    wire::PeerFetch request;
    request.holder = params.num_clients;
    request.key = url_key(url);
    ASSERT_TRUE(channel->send_msg(request, &err));
    EXPECT_FALSE(channel->recv(&err).has_value());
    EXPECT_EQ(err.status, netio::NetStatus::kClosed);
  }
  EXPECT_EQ(bad_holder.value(), before + 1);

  // The host keeps serving its real browsers.
  auto channel = dial_peer_server();
  ASSERT_TRUE(channel.has_value());
  netio::NetError err;
  wire::PeerFetch request;
  request.holder = 0;
  request.key = url_key(url);
  ASSERT_TRUE(channel->send_msg(request, &err));
  const auto deliver = channel->recv_msg<wire::PeerDeliver>(&err);
  ASSERT_TRUE(deliver.has_value()) << err.message;
  EXPECT_TRUE(deliver->found);
  EXPECT_EQ(deliver->body, held.body);
  server.stop();
}

}  // namespace
}  // namespace baps::runtime
