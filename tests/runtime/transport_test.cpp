#include "runtime/transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "crypto/rsa.hpp"
#include "netio/frame_channel.hpp"
#include "obs/registry.hpp"
#include "runtime/loopback_transport.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"
#include "util/assert.hpp"
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
  sp.peer_connect_ms = 200;
  sp.peer_reply_ms = 500;
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

// A HelloAck carries the key every later watermark verify runs on. A fake
// proxy answers the handshake with keys the arithmetic cannot use: each must
// fail the dial, counted, with a message naming the handshake — never a
// throw from deep inside a later verify.
TEST(TransportTest, TcpHandshakeRejectsAnUnusableProxyKey) {
  netio::NetError err;
  auto listener = netio::TcpListener::listen("127.0.0.1", 0, 4, &err);
  ASSERT_TRUE(listener.has_value()) << err.message;
  const crypto::RsaKeyPair good = crypto::generate_rsa_keypair(256, 7);
  const crypto::BigUInt one(1);
  struct BadKey {
    const char* what;
    crypto::BigUInt n;
    crypto::BigUInt e;
  };
  const std::vector<BadKey> bad_keys = {
      {"even n", good.pub.n + one, good.pub.e},
      {"tiny n", crypto::BigUInt(0xffffffffffffffc5ULL), good.pub.e},
      {"even e", good.pub.n, good.pub.e + one},
      {"e = 1", good.pub.n, one},
  };
  const obs::Counter& bad_key = obs::Registry::global().counter(
      "wire_decode_errors_total", {{"reason", "bad-key"}});

  std::thread fake_proxy([&] {
    for (const BadKey& key : bad_keys) {
      netio::NetError perr;
      auto conn = listener->accept(5000, &perr);
      if (!conn.has_value()) return;
      netio::FrameChannel channel(std::move(*conn),
                                  netio::Deadlines{2000, 3000, 3000});
      if (!channel.recv_msg<wire::Hello>(&perr).has_value()) return;
      wire::HelloAck ack;
      ack.rsa_n = key.n.to_bytes();
      ack.rsa_e = key.e.to_bytes();
      ack.max_clients = 4;
      if (!channel.send_msg(ack, &perr)) return;
      // The client hangs up once it has read the key.
      (void)channel.recv(&perr);
    }
  });

  for (const BadKey& key : bad_keys) {
    const std::uint64_t before = bad_key.value();
    TcpTransport transport(transport_params(listener->port()));
    std::string message;
    try {
      (void)transport.proxy_public_key();
    } catch (const InvariantError& e) {
      message = e.what();
    }
    EXPECT_NE(message.find("handshake"), std::string::npos)
        << key.what << ": " << message;
    EXPECT_EQ(message.find("mod_pow"), std::string::npos) << key.what;
    EXPECT_EQ(bad_key.value(), before + 1) << key.what;
  }
  fake_proxy.join();
}

// stats() is the `proxy` introspection section, read on the host's ordered
// channel: after the same traffic it is the core's own five counters, and
// the all-sections document carries the same ones.
TEST(TransportTest, TcpStatsMatchTheCoreAfterTheSameTraffic) {
  auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);
  for (const auto& [client, url] : workload(params.num_clients, 120)) {
    sys.browse(client, url);
  }
  // A spoofed remove: the MAC is under the wrong key, so it is rejected.
  transport.index_update(1, false, url_key("http://doc0.test/"),
                         crypto::Md5Digest{});

  const ProxyStats over_wire = transport.stats();
  const ProxyStats& core = server.core().stats();
  EXPECT_GT(core.origin_fetches, 0u);
  EXPECT_EQ(core.rejected_index_updates, 1u);
  EXPECT_EQ(over_wire.proxy_hits, core.proxy_hits);
  EXPECT_EQ(over_wire.peer_hits, core.peer_hits);
  EXPECT_EQ(over_wire.origin_fetches, core.origin_fetches);
  EXPECT_EQ(over_wire.false_forwards, core.false_forwards);
  EXPECT_EQ(over_wire.rejected_index_updates, core.rejected_index_updates);

  const obs::JsonValue doc = transport.introspect(
      wire::IntrospectRequest{wire::kIntrospectAll, 4, 0});
  for (const auto& [bit, name] : wire::kIntrospectSections) {
    EXPECT_NE(doc.find(name), nullptr) << name;
  }
  const auto section = proxy_stats_from_json(doc.at("proxy"));
  ASSERT_TRUE(section.has_value());
  EXPECT_EQ(section->origin_fetches, core.origin_fetches);
  EXPECT_EQ(section->rejected_index_updates, 1u);
  server.stop();
}

// A fake proxy answers Introspect{proxy} with replies a client cannot use:
// each fails the exchange like a bad frame and is counted.
TEST(TransportTest, TcpIntrospectRejectsAnUnusableReply) {
  netio::NetError err;
  auto listener = netio::TcpListener::listen("127.0.0.1", 0, 4, &err);
  ASSERT_TRUE(listener.has_value()) << err.message;
  const crypto::RsaKeyPair keys = crypto::generate_rsa_keypair(256, 7);
  const std::vector<std::string> bad_replies = {
      "not json",
      R"({"schema":"baps.introspect.v1"})",
      R"({"schema":"baps.introspect.v1","proxy":{"proxy_hits":1}})",
      R"({"schema":"baps.introspect.v1","proxy":[]})",
      R"({"schema":"baps.report.v1","proxy":{"proxy_hits":0,)"
      R"("peer_hits":0,"origin_fetches":0,"false_forwards":0,)"
      R"("rejected_index_updates":0}})",
  };
  const obs::Counter& bad_introspect = obs::Registry::global().counter(
      "wire_decode_errors_total", {{"reason", "bad-introspect"}});

  std::thread fake_proxy([&] {
    for (const std::string& reply : bad_replies) {
      netio::NetError perr;
      auto conn = listener->accept(5000, &perr);
      if (!conn.has_value()) return;
      netio::FrameChannel channel(std::move(*conn),
                                  netio::Deadlines{2000, 3000, 3000});
      if (!channel.recv_msg<wire::Hello>(&perr).has_value()) return;
      wire::HelloAck ack;
      ack.rsa_n = keys.pub.n.to_bytes();
      ack.rsa_e = keys.pub.e.to_bytes();
      ack.max_clients = 4;
      if (!channel.send_msg(ack, &perr)) return;
      if (!channel.recv_msg<wire::IntrospectRequest>(&perr).has_value()) {
        return;
      }
      if (!channel.send_msg(wire::IntrospectResponse{reply}, &perr)) return;
      (void)channel.recv(&perr);  // the client hangs up
    }
  });

  for (const std::string& reply : bad_replies) {
    const std::uint64_t before = bad_introspect.value();
    TcpTransport transport(transport_params(listener->port()));
    EXPECT_THROW((void)transport.stats(), InvariantError) << reply;
    EXPECT_EQ(bad_introspect.value(), before + 1) << reply;
  }
  fake_proxy.join();
}

}  // namespace
}  // namespace baps::runtime
