// End-to-end TCP transport tests against a live ProxyServer:
//
//  - a 1000-request preset trace slice produces byte-identical per-request
//    outcomes over TCP and over the in-process loopback (the tentpole
//    equivalence claim, at trace scale);
//  - a tampered frame is detected by the CRC and drops the session (§6.1 at
//    the wire level);
//  - a proxy-to-holder PeerFetch frame is captured raw off a test-owned
//    listener and is exactly header + the 4-byte holder id + the 8-byte
//    document key — no requester identity crosses the wire (§6.2);
//  - a holder whose peer port is dead costs one bounded wait and degrades to
//    an origin fetch, never a hang;
//  - a frame naming a browser id out of range, a frame of a retired kind, a
//    version-2 header, and a connection that never says Hello each close
//    only their own session and are counted.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "crypto/hmac.hpp"
#include "netio/frame_channel.hpp"
#include "netio/socket.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"
#include "trace/presets.hpp"
#include "wire/frame.hpp"
#include "wire/messages.hpp"

namespace baps::runtime {
namespace {

using Clock = std::chrono::steady_clock;

ProxyServer::Params proxy_params(std::uint32_t clients,
                                 std::uint64_t proxy_cache,
                                 std::uint64_t seed) {
  ProxyServer::Params p;
  p.core.num_clients = clients;
  p.core.proxy_cache_bytes = proxy_cache;
  p.core.seed = seed;
  p.peer_connect_ms = 300;
  p.peer_reply_ms = 1000;
  return p;
}

std::optional<netio::FrameChannel> dial(std::uint16_t port) {
  netio::NetError err;
  auto conn = netio::TcpConnection::connect("127.0.0.1", port, 2000, &err);
  if (!conn.has_value()) return std::nullopt;
  return netio::FrameChannel(std::move(*conn),
                             netio::Deadlines{2000, 5000, 5000});
}

/// Hello handshake for one raw client-host session.
std::optional<wire::HelloAck> handshake(netio::FrameChannel& channel,
                                        std::uint16_t peer_port) {
  netio::NetError err;
  wire::Hello hello;
  hello.peer_port = peer_port;
  if (!channel.send_msg(hello, &err)) return std::nullopt;
  return channel.recv_msg<wire::HelloAck>(&err);
}

/// The MAC a legitimate client puts on an index update (same derivation as
/// both daemons: keys from the shared seed, message "add:<sender>:<key>").
std::array<std::uint8_t, 16> index_mac(std::uint64_t seed,
                                       std::uint32_t num_clients,
                                       std::uint32_t sender, bool is_add,
                                       std::uint64_t key) {
  const auto keys = derive_client_mac_keys(seed, num_clients);
  std::string msg = is_add ? "add:" : "remove:";
  msg += std::to_string(sender);
  msg += ':';
  msg += std::to_string(key);
  return crypto::hmac_md5(keys[sender], msg).bytes;
}

/// Index updates are not acked. An Introspect{proxy} round trip on the same
/// session is answered only after every update sent before it, so it is the
/// wait.
std::optional<ProxyStats> sync_stats(netio::FrameChannel& channel) {
  netio::NetError err;
  if (!channel.send_msg(wire::IntrospectRequest{wire::kIntrospectProxy},
                        &err)) {
    return std::nullopt;
  }
  const auto reply = channel.recv_msg<wire::IntrospectResponse>(&err);
  if (!reply.has_value()) return std::nullopt;
  const auto doc = obs::json_parse(reply->json);
  const obs::JsonValue* proxy = doc.has_value() ? doc->find("proxy") : nullptr;
  if (proxy == nullptr) return std::nullopt;
  return proxy_stats_from_json(*proxy);
}

/// Reads one whole frame off a raw connection, returning the exact bytes
/// that crossed the wire alongside the decode.
std::optional<wire::DecodeResult> read_frame_raw(netio::TcpConnection& conn,
                                                 std::string* raw) {
  netio::NetError err;
  std::string buf(wire::kHeaderSize, '\0');
  if (!conn.read_exact(buf.data(), buf.size(), 3000, &err)) {
    return std::nullopt;
  }
  const auto byte = [&buf](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]));
  };
  const std::uint32_t payload_len =
      byte(8) | (byte(9) << 8) | (byte(10) << 16) | (byte(11) << 24);
  if (payload_len > 0) {
    std::string payload(payload_len, '\0');
    if (!conn.read_exact(payload.data(), payload.size(), 3000, &err)) {
      return std::nullopt;
    }
    buf += payload;
  }
  *raw = buf;
  return wire::decode_frame(buf);
}

std::uint64_t decode_errors_total() {
  std::uint64_t total = 0;
  for (const auto& inst : obs::Registry::global().snapshot().counters) {
    if (inst.name == "wire_decode_errors_total") total += inst.value;
  }
  return total;
}

TEST(TcpLoopbackTest, PresetSliceSourcesMatchLoopbackExactly) {
  BapsSystem::Params params;
  params.num_clients = 8;
  params.seed = 11;

  BapsSystem loopback(params);

  ProxyServer server(
      proxy_params(params.num_clients, params.proxy_cache_bytes, params.seed));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport::Params tp;
  tp.proxy_port = server.port();
  TcpTransport transport(tp);
  BapsSystem tcp(params, transport);

  const trace::Trace t = trace::load_preset(trace::Preset::kBu95);
  std::size_t done = 0;
  for (const trace::Request& req : t.requests()) {
    if (done == 1000) break;
    const auto client =
        static_cast<ClientId>(req.client % params.num_clients);
    const std::string url = t.url_of(req.doc);
    const FetchOutcome a = loopback.browse(client, url);
    const FetchOutcome b = tcp.browse(client, url);
    ASSERT_EQ(source_name(a.source), source_name(b.source))
        << "diverged at request " << done << " (client " << client << ", "
        << url << ")";
    ASSERT_EQ(a.body, b.body);
    ASSERT_EQ(a.verified, b.verified);
    ++done;
  }
  ASSERT_EQ(done, 1000u) << "preset slice shorter than expected";

  EXPECT_EQ(loopback.local_hits(), tcp.local_hits());
  EXPECT_EQ(loopback.proxy_hits(), tcp.proxy_hits());
  EXPECT_EQ(loopback.peer_hits(), tcp.peer_hits());
  EXPECT_EQ(loopback.origin_fetches(), tcp.origin_fetches());
  EXPECT_EQ(loopback.false_forwards(), tcp.false_forwards());
  // The slice exercises both update kinds, and both sides send the same
  // stream of them — the updates TCP no longer waits for are still sent.
  for (const MsgKind kind : {MsgKind::kIndexAdd, MsgKind::kIndexRemove}) {
    EXPECT_GT(tcp.messages().count(kind), 0u) << msg_kind_name(kind);
    EXPECT_EQ(loopback.messages().count(kind), tcp.messages().count(kind))
        << msg_kind_name(kind);
  }
  server.stop();
}

TEST(TcpLoopbackTest, TamperedFrameIsDetectedAndDropsTheSession) {
  ProxyServer server(proxy_params(2, 256 << 10, 5));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::uint64_t errors_before = decode_errors_total();

  netio::NetError err;
  auto conn = netio::TcpConnection::connect("127.0.0.1", server.port(), 2000,
                                            &err);
  ASSERT_TRUE(conn.has_value()) << err.message;

  // A well-formed Hello whose payload is flipped in flight: the CRC in the
  // header no longer matches, so the proxy must reject it outright.
  wire::Hello hello;
  hello.peer_port = 4242;
  std::string frame = wire::encode_frame(wire::FrameKind::kHello,
                                         wire::encode(hello));
  frame.back() = static_cast<char>(frame.back() ^ 0x01);
  ASSERT_TRUE(conn->write_all(frame.data(), frame.size(), 2000, &err));

  // No HelloAck: the session is dropped, so the read sees EOF (or a reset),
  // never a successful byte and never an unbounded wait.
  char byte = 0;
  EXPECT_FALSE(conn->read_exact(&byte, 1, 3000, &err));
  EXPECT_NE(err.status, netio::NetStatus::kTimeout);
  EXPECT_GT(decode_errors_total(), errors_before);
  server.stop();
}

TEST(TcpLoopbackTest, PeerFetchFrameCarriesOnlyTheHolderAndTheKey) {
  constexpr std::uint64_t kSeed = 5;
  constexpr std::uint32_t kClients = 3;
  // Proxy cache small enough that filler traffic evicts the target document,
  // forcing the interesting request through the browser index.
  ProxyServer server(proxy_params(kClients, 8 << 10, kSeed));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  netio::NetError err;
  auto peer_listener = netio::TcpListener::listen("127.0.0.1", 0, 4, &err);
  ASSERT_TRUE(peer_listener.has_value()) << err.message;

  // Client 0: fetch the document from origin and register it in the browser
  // index, advertising our raw listener as its peer-serving port.
  const std::string url = "http://anonymity.test/";
  const std::uint64_t key = url_key(url);
  auto holder = dial(server.port());
  ASSERT_TRUE(holder.has_value());
  ASSERT_TRUE(handshake(*holder, peer_listener->port()).has_value());
  wire::FetchRequest fetch;
  fetch.client = 0;
  fetch.url = url;
  ASSERT_TRUE(holder->send_msg(fetch, &err));
  const auto held = holder->recv_msg<wire::FetchResponse>(&err);
  ASSERT_TRUE(held.has_value()) << err.message;
  wire::IndexUpdate add;
  add.sender = 0;
  add.is_add = true;
  add.key = key;
  add.mac = index_mac(kSeed, kClients, 0, true, key);
  ASSERT_TRUE(holder->send_msg(add, &err));
  const auto synced = sync_stats(*holder);
  ASSERT_TRUE(synced.has_value());
  ASSERT_EQ(synced->rejected_index_updates, 0u);

  // Client 1: filler traffic pushes the target out of the proxy cache.
  auto filler = dial(server.port());
  ASSERT_TRUE(filler.has_value());
  ASSERT_TRUE(handshake(*filler, 0).has_value());
  for (int i = 0; i < 64; ++i) {
    wire::FetchRequest f;
    f.client = 1;
    f.url = "http://filler.test/" + std::to_string(i);
    ASSERT_TRUE(filler->send_msg(f, &err));
    ASSERT_TRUE(filler->recv_msg<wire::FetchResponse>(&err).has_value());
  }

  // Serve the holder side: capture the exact PeerFetch bytes the proxy
  // sends, then deliver the document it asked for.
  std::string captured_raw;
  std::optional<wire::DecodeResult> captured;
  std::thread peer_thread([&] {
    netio::NetError perr;
    auto conn = peer_listener->accept(5000, &perr);
    if (!conn.has_value()) return;
    captured = read_frame_raw(*conn, &captured_raw);
    if (!captured.has_value()) return;
    wire::PeerDeliver deliver;
    deliver.found = true;
    deliver.body = held->body;
    deliver.watermark = held->watermark;
    const std::string reply =
        wire::encode_frame(wire::FrameKind::kPeerDeliver,
                           wire::encode(deliver));
    conn->write_all(reply.data(), reply.size(), 3000, &perr);
  });

  // Client 2 requests the document: proxy cache misses, the index routes to
  // client 0, and the proxy opens a connection to our listener.
  auto requester = dial(server.port());
  ASSERT_TRUE(requester.has_value());
  ASSERT_TRUE(handshake(*requester, 0).has_value());
  wire::FetchRequest want;
  want.client = 2;
  want.url = url;
  ASSERT_TRUE(requester->send_msg(want, &err));
  const auto got = requester->recv_msg<wire::FetchResponse>(&err);
  peer_thread.join();

  ASSERT_TRUE(got.has_value()) << err.message;
  EXPECT_EQ(got->source, wire::WireSource::kRemoteBrowser);
  EXPECT_EQ(got->body, held->body);

  // §6.2: the frame that reached the holder is header + 4-byte holder id +
  // 8-byte key, nothing else. The id is the addressee's (client 0), never
  // the requester's (client 2), and there is no room for anything more.
  ASSERT_TRUE(captured.has_value()) << "no PeerFetch frame captured";
  ASSERT_EQ(captured->status, wire::DecodeStatus::kOk);
  EXPECT_EQ(captured->frame.kind, wire::FrameKind::kPeerFetch);
  EXPECT_EQ(captured->frame.payload.size(), 12u);
  EXPECT_EQ(captured_raw.size(), wire::kHeaderSize + 12);
  wire::PeerFetch decoded;
  ASSERT_TRUE(wire::decode(captured->frame.payload, &decoded));
  EXPECT_EQ(decoded.holder, 0u);
  EXPECT_NE(decoded.holder, 2u);
  EXPECT_EQ(decoded.key, key);
  server.stop();
}

TEST(TcpLoopbackTest, DeadPeerPortDegradesToOriginBounded) {
  constexpr std::uint64_t kSeed = 5;
  constexpr std::uint32_t kClients = 3;
  ProxyServer server(proxy_params(kClients, 8 << 10, kSeed));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Bind-then-close: a port that is known dead.
  netio::NetError err;
  std::uint16_t dead_port = 0;
  {
    auto l = netio::TcpListener::listen("127.0.0.1", 0, 1, &err);
    ASSERT_TRUE(l.has_value());
    dead_port = l->port();
  }

  const std::string url = "http://dead-holder.test/";
  const std::uint64_t key = url_key(url);
  auto holder = dial(server.port());
  ASSERT_TRUE(holder.has_value());
  ASSERT_TRUE(handshake(*holder, dead_port).has_value());
  wire::FetchRequest fetch;
  fetch.client = 0;
  fetch.url = url;
  ASSERT_TRUE(holder->send_msg(fetch, &err));
  ASSERT_TRUE(holder->recv_msg<wire::FetchResponse>(&err).has_value());
  wire::IndexUpdate add;
  add.sender = 0;
  add.is_add = true;
  add.key = key;
  add.mac = index_mac(kSeed, kClients, 0, true, key);
  ASSERT_TRUE(holder->send_msg(add, &err));
  ASSERT_TRUE(sync_stats(*holder).has_value());

  auto filler = dial(server.port());
  ASSERT_TRUE(filler.has_value());
  ASSERT_TRUE(handshake(*filler, 0).has_value());
  for (int i = 0; i < 64; ++i) {
    wire::FetchRequest f;
    f.client = 1;
    f.url = "http://filler.test/" + std::to_string(i);
    ASSERT_TRUE(filler->send_msg(f, &err));
    ASSERT_TRUE(filler->recv_msg<wire::FetchResponse>(&err).has_value());
  }

  auto requester = dial(server.port());
  ASSERT_TRUE(requester.has_value());
  ASSERT_TRUE(handshake(*requester, 0).has_value());
  wire::FetchRequest want;
  want.client = 2;
  want.url = url;
  const auto start = Clock::now();
  ASSERT_TRUE(requester->send_msg(want, &err));
  const auto got = requester->recv_msg<wire::FetchResponse>(&err);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Clock::now() - start)
                      .count();
  ASSERT_TRUE(got.has_value()) << err.message;
  EXPECT_EQ(got->source, wire::WireSource::kOrigin);
  EXPECT_TRUE(got->false_forward);
  EXPECT_LT(ms, 5000) << "dead holder must cost one bounded wait";
  server.stop();
}

TEST(TcpLoopbackTest, OutOfRangeBrowserIdClosesOnlyItsSession) {
  constexpr std::uint64_t kSeed = 5;
  constexpr std::uint32_t kClients = 3;
  ProxyServer server(proxy_params(kClients, 8 << 10, kSeed));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const obs::Counter& bad_client = obs::Registry::global().counter(
      "wire_decode_errors_total", {{"reason", "bad-client"}});
  const std::uint64_t before = bad_client.value();

  // The browser id rides every fetch and update, so the proxy range-checks
  // it per frame: one at or past max_clients gets an error and a close,
  // never an abort.
  const auto expect_refused = [&](const auto& msg) {
    auto session = dial(server.port());
    ASSERT_TRUE(session.has_value());
    ASSERT_TRUE(handshake(*session, 0).has_value());
    netio::NetError err;
    ASSERT_TRUE(session->send_msg(msg, &err));
    const auto reply = session->recv(&err);
    ASSERT_TRUE(reply.has_value()) << err.message;
    EXPECT_EQ(reply->kind, wire::FrameKind::kError);
    EXPECT_FALSE(session->recv(&err).has_value());
    EXPECT_EQ(err.status, netio::NetStatus::kClosed);
  };
  wire::FetchRequest fetch;
  fetch.client = kClients;
  fetch.url = "http://out-of-range.test/";
  expect_refused(fetch);
  wire::IndexUpdate update;
  update.sender = 0xFFFFFFFFu;
  update.is_add = true;
  update.key = url_key(fetch.url);
  expect_refused(update);
  EXPECT_EQ(bad_client.value(), before + 2);

  // Another session is still served.
  auto good = dial(server.port());
  ASSERT_TRUE(good.has_value());
  ASSERT_TRUE(handshake(*good, 0).has_value());
  netio::NetError err;
  fetch.client = kClients - 1;
  ASSERT_TRUE(good->send_msg(fetch, &err));
  const auto served = good->recv_msg<wire::FetchResponse>(&err);
  ASSERT_TRUE(served.has_value()) << err.message;
  EXPECT_EQ(served->source, wire::WireSource::kOrigin);
  server.stop();
}

TEST(TcpLoopbackTest, RetiredKindAndOldVersionCloseOnlyTheirSession) {
  ProxyServer server(proxy_params(3, 8 << 10, 5));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const auto decode_errors = [](const char* reason) {
    return obs::Registry::global()
        .counter("wire_decode_errors_total", {{"reason", reason}})
        .value();
  };

  // A well-formed v3 frame under a number the protocol retired (9 was the
  // version-2 counter request) and a frame with a v2 header: each is
  // refused at the header, counted, and ends its session without a reply.
  std::string retired = wire::encode_frame(wire::FrameKind::kBye, "");
  retired[5] = 9;
  ASSERT_EQ(wire::decode_frame(retired).status, wire::DecodeStatus::kBadKind);
  std::string old_version = wire::encode_frame(
      wire::FrameKind::kIntrospectRequest,
      wire::encode(wire::IntrospectRequest{wire::kIntrospectProxy}));
  old_version[4] = 2;
  ASSERT_EQ(wire::decode_frame(old_version).status,
            wire::DecodeStatus::kBadVersion);
  for (const auto& [bytes, reason] : {std::pair{retired, "bad-kind"},
                                      std::pair{old_version, "bad-version"}}) {
    const std::uint64_t before = decode_errors(reason);
    auto session = dial(server.port());
    ASSERT_TRUE(session.has_value());
    ASSERT_TRUE(handshake(*session, 0).has_value());
    netio::NetError err;
    ASSERT_TRUE(session->connection().write_all(bytes.data(), bytes.size(),
                                                2000, &err))
        << err.message;
    EXPECT_FALSE(session->recv(&err).has_value()) << reason;
    EXPECT_EQ(err.status, netio::NetStatus::kClosed) << reason;
    EXPECT_EQ(decode_errors(reason), before + 1) << reason;
  }

  // Another session is still served.
  auto good = dial(server.port());
  ASSERT_TRUE(good.has_value());
  ASSERT_TRUE(handshake(*good, 0).has_value());
  EXPECT_TRUE(sync_stats(*good).has_value());
  server.stop();
}

TEST(TcpLoopbackTest, SilentConnectionIsClosedAtTheHelloDeadline) {
  ProxyServer::Params params = proxy_params(2, 8 << 10, 5);
  params.net.hello_timeout_ms = 200;
  ProxyServer server(params);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const obs::Counter& hello_timeouts =
      obs::Registry::global().counter("netio_epoll_hello_timeouts_total");
  const std::uint64_t before = hello_timeouts.value();

  // Connects and says nothing: the proxy must cut it at the Hello deadline
  // (a read sees EOF well before our own 3 s wait runs out).
  netio::NetError err;
  auto silent =
      netio::TcpConnection::connect("127.0.0.1", server.port(), 2000, &err);
  ASSERT_TRUE(silent.has_value()) << err.message;
  const auto start = Clock::now();
  char byte = 0;
  EXPECT_FALSE(silent->read_exact(&byte, 1, 3000, &err));
  EXPECT_EQ(err.status, netio::NetStatus::kClosed) << err.message;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - start)
                .count(),
            2000);
  EXPECT_EQ(hello_timeouts.value(), before + 1);

  // A session that says Hello in time is not cut by that deadline.
  auto session = dial(server.port());
  ASSERT_TRUE(session.has_value());
  ASSERT_TRUE(handshake(*session, 0).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(sync_stats(*session).has_value());
  EXPECT_EQ(hello_timeouts.value(), before + 1);
  server.stop();
}

}  // namespace
}  // namespace baps::runtime
