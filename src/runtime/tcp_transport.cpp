#include "runtime/tcp_transport.hpp"

#include "fault/fault_plan.hpp"
#include "netio/netio_metrics.hpp"
#include "netio/retry.hpp"
#include "runtime/wire_bridge.hpp"
#include "util/assert.hpp"

namespace baps::runtime {

using netio::NetError;

namespace {

/// A reply names the schema and carries every requested section as an
/// object; a requested `proxy` section also reads back as ProxyStats.
bool usable_introspection(const obs::JsonValue& doc, std::uint32_t sections) {
  const obs::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != wire::kIntrospectSchema) {
    return false;
  }
  for (const auto& [bit, name] : wire::kIntrospectSections) {
    const obs::JsonValue* section = doc.find(name);
    if ((sections & bit) != 0 &&
        (section == nullptr || !section->is_object())) {
      return false;
    }
  }
  return (sections & wire::kIntrospectProxy) == 0 ||
         proxy_stats_from_json(doc.at("proxy")).has_value();
}

}  // namespace

TcpTransport::TcpTransport(const Params& params) : params_(params) {
  BAPS_REQUIRE(params.proxy_port != 0, "transport needs the proxy's port");
}

TcpTransport::~TcpTransport() {
  if (channel_ != nullptr && channel_->valid()) {
    NetError err;
    channel_->send_msg(wire::Bye{}, &err);
    channel_->close();
  }
  if (peer_server_ != nullptr) peer_server_->stop();
}

void TcpTransport::bind_peer_host(PeerHost* host) {
  BAPS_REQUIRE(host != nullptr, "transport needs a peer host");
  BAPS_REQUIRE(host_ == nullptr, "peer host already bound");
  host_ = host;
  killed_ = std::vector<std::atomic<bool>>(host->num_clients());
  // One peer server for the whole host: the Hello advertises its port, and
  // each PeerFetch names the browser that serves it.
  netio::EpollFrameServer::Params net;
  net.host = params_.proxy_host;
  peer_server_ = std::make_unique<netio::EpollFrameServer>(
      net, [this](netio::EpollFrameServer::Connection& conn,
                  wire::Frame&& frame) { return serve(conn, frame); });
  peer_server_->set_tracer(tracer_);
  std::string error;
  BAPS_REQUIRE(peer_server_->start(&error),
               "peer server failed to start: " + error);
}

void TcpTransport::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (peer_server_ != nullptr) peer_server_->set_tracer(tracer);
  const std::lock_guard<std::mutex> lock(channel_mu_);
  if (channel_ != nullptr) channel_->set_tracer(tracer);
}

bool TcpTransport::serve(netio::EpollFrameServer::Connection& conn,
                         const wire::Frame& frame) {
  // The holder id comes from outside the host: anything that is not a
  // well-formed PeerFetch for one of our browsers ends the connection.
  wire::PeerFetch request;
  if (frame.kind != wire::PeerFetch::kKind ||
      !wire::decode(frame.payload, &request)) {
    netio::count_decode_error("bad-peer-fetch");
    return false;
  }
  if (request.holder >= killed_.size()) {
    netio::count_decode_error("bad-holder");
    return false;
  }
  // A killed holder answers nothing: the proxy sees the connection close
  // and degrades to the origin.
  if (killed_[request.holder].load()) return false;
  wire::PeerDeliver deliver;
  const bool traced = tracer_ != nullptr && frame.trace.sampled;
  const std::uint64_t t0 = traced ? obs::monotonic_ns() : 0;
  // The frame names the holder and the key only — this handler cannot know,
  // and therefore cannot leak, who originally asked (§6.2).
  if (auto doc = host_->serve_peer_fetch(request.holder, request.key)) {
    deliver.found = true;
    deliver.body = std::move(doc->body);
    deliver.watermark = watermark_to_bytes(doc->mark);
  }
  if (traced) {
    tracer_->record_span(obs::SpanKind::kPeerTransfer, frame.trace, t0,
                         obs::monotonic_ns());
  }
  if (plan_ != nullptr && deliver.found) {
    if (plan_->should_inject(fault::FaultKind::kDropFrame)) {
      // The frame is lost in flight: the proxy's peer read deadline expires
      // and the fetch degrades to origin.
      return true;
    }
    if (plan_->should_inject(fault::FaultKind::kCorruptFrame)) {
      // Flip one payload byte after encoding so the frame CRC no longer
      // matches: the proxy rejects it at the wire layer.
      std::string raw =
          wire::encode_frame(wire::PeerDeliver::kKind, wire::encode(deliver));
      raw.back() = static_cast<char>(raw.back() ^ 0x01);
      return conn.send_encoded(wire::PeerDeliver::kKind, std::move(raw));
    }
  }
  return conn.send(wire::PeerDeliver::kKind, wire::encode(deliver),
                   frame.trace);
}

void TcpTransport::kill_peer_server(ClientId client) {
  BAPS_REQUIRE(client < killed_.size(), "client id out of range");
  killed_[client].store(true);
}

bool TcpTransport::dial(NetError* err) {
  auto conn = netio::TcpConnection::connect(
      params_.proxy_host, params_.proxy_port, params_.deadlines.connect_ms,
      err);
  if (!conn.has_value()) return false;
  auto channel = std::make_unique<netio::FrameChannel>(
      std::move(*conn), params_.deadlines);
  channel->set_tracer(tracer_);
  wire::Hello hello;
  hello.peer_port = peer_port();
  if (!channel->send_msg(hello, err)) return false;
  const auto ack = channel->recv_msg<wire::HelloAck>(err);
  if (!ack.has_value()) return false;
  BAPS_REQUIRE(host_ == nullptr || host_->num_clients() <= ack->max_clients,
               "proxy serves fewer browsers than this host has");
  // Every later watermark verify runs on this key: one the arithmetic
  // cannot use fails the handshake here, not each browse.
  auto key = crypto::make_rsa_public_key(
      crypto::BigUInt::from_bytes(ack->rsa_n),
      crypto::BigUInt::from_bytes(ack->rsa_e));
  if (!key.has_value()) {
    netio::count_decode_error("bad-key");
    err->status = netio::NetStatus::kError;
    err->message = "handshake: proxy sent an unusable RSA public key";
    return false;
  }
  proxy_key_ = std::move(*key);
  channel_ = std::move(channel);
  return true;
}

template <typename Op>
void TcpTransport::exchange(const char* what, Op&& op) {
  const std::lock_guard<std::mutex> lock(channel_mu_);
  NetError err;
  const bool ok = netio::retry_with_backoff(
      netio::RetryPolicy{}, what,
      [&](NetError* e) {
        if ((channel_ == nullptr || !channel_->valid()) && !dial(e)) {
          return false;
        }
        if (op(*channel_, e)) return true;
        channel_->close();
        channel_.reset();
        return false;
      },
      &err);
  BAPS_REQUIRE(ok, std::string(what) + " failed: proxy at " +
                       params_.proxy_host + ":" +
                       std::to_string(params_.proxy_port) + ": " +
                       err.message);
}

ProxyCore::Reply TcpTransport::fetch(ClientId client, const Url& url,
                                     bool avoid_peers,
                                     const obs::TraceContext& trace) {
  wire::FetchRequest request;
  request.client = client;
  request.url = url;
  request.avoid_peers = avoid_peers;
  std::optional<wire::FetchResponse> response;
  exchange("fetch", [&](netio::FrameChannel& channel, NetError* e) {
    if (!channel.send_msg(request, trace, e)) return false;
    response = channel.recv_msg<wire::FetchResponse>(e);
    return response.has_value();
  });
  ProxyCore::Reply reply;
  reply.doc.body = std::move(response->body);
  reply.doc.mark = watermark_from_bytes(response->watermark);
  reply.source = from_wire_source(response->source);
  reply.false_forward = response->false_forward;
  return reply;
}

bool TcpTransport::index_update(ClientId claimed_sender, bool is_add,
                                DocStore::Key key,
                                const crypto::Md5Digest& mac) {
  // Written, never acked: the proxy handles this channel's frames in order,
  // so the host's next request already sees the update applied. Only the
  // MAC, which a spoofer cannot forge, decides whether it is.
  wire::IndexUpdate update;
  update.sender = claimed_sender;
  update.is_add = is_add;
  update.key = key;
  update.mac = mac_to_wire(mac);
  exchange("index_update", [&](netio::FrameChannel& channel, NetError* e) {
    return channel.send_msg(update, e);
  });
  return true;
}

crypto::RsaPublicKey TcpTransport::proxy_public_key() {
  crypto::RsaPublicKey key;
  exchange("public_key", [&](netio::FrameChannel&, NetError*) {
    key = proxy_key_;
    return true;
  });
  return key;
}

obs::JsonValue TcpTransport::introspect(
    const wire::IntrospectRequest& request) {
  std::optional<obs::JsonValue> doc;
  exchange("introspect", [&](netio::FrameChannel& channel, NetError* e) {
    if (!channel.send_msg(request, e)) return false;
    const auto response = channel.recv_msg<wire::IntrospectResponse>(e);
    if (!response.has_value()) return false;
    doc = obs::json_parse(response->json);
    if (doc.has_value() && usable_introspection(*doc, request.sections)) {
      return true;
    }
    netio::count_decode_error("bad-introspect");
    e->status = netio::NetStatus::kError;
    e->message = "unusable baps.introspect.v1 reply";
    return false;
  });
  return std::move(*doc);
}

ProxyStats TcpTransport::stats() {
  return *proxy_stats_from_json(
      introspect(wire::IntrospectRequest{wire::kIntrospectProxy}).at("proxy"));
}

}  // namespace baps::runtime
