#include "runtime/tcp_transport.hpp"

#include "fault/fault_plan.hpp"
#include "netio/netio_metrics.hpp"
#include "runtime/wire_bridge.hpp"
#include "util/assert.hpp"

namespace baps::runtime {

using netio::NetError;

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
  net.max_frame_payload = params_.max_frame_payload;
  net.tracer = tracer_;
  peer_server_ = std::make_unique<netio::EpollFrameServer>(
      net, [this](netio::EpollFrameServer::Connection& conn,
                  wire::Frame&& frame) { return serve(conn, frame); });
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
      std::move(*conn), params_.deadlines, params_.max_frame_payload);
  channel->set_tracer(tracer_);
  wire::Hello hello;
  hello.peer_port = peer_port();
  if (!channel->send_msg(hello, err)) return false;
  const auto ack = channel->recv_msg<wire::HelloAck>(err);
  if (!ack.has_value()) return false;
  BAPS_REQUIRE(host_ == nullptr || host_->num_clients() <= ack->max_clients,
               "proxy serves fewer browsers than this host has");
  proxy_key_.n = crypto::BigUInt::from_bytes(ack->rsa_n);
  proxy_key_.e = crypto::BigUInt::from_bytes(ack->rsa_e);
  channel_ = std::move(channel);
  return true;
}

template <typename Op>
void TcpTransport::exchange(const char* what, Op&& op) {
  const std::lock_guard<std::mutex> lock(channel_mu_);
  NetError err;
  const bool ok = netio::retry_with_backoff(
      params_.retry, what,
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

template <typename Response, typename Request>
Response TcpTransport::round_trip(const char* what, const Request& request,
                                  const obs::TraceContext& trace) {
  std::optional<Response> response;
  exchange(what, [&](netio::FrameChannel& channel, NetError* e) {
    if (!channel.send_msg(request, trace, e)) return false;
    response = channel.recv_msg<Response>(e);
    return response.has_value();
  });
  return std::move(*response);
}

ProxyCore::Reply TcpTransport::fetch(ClientId client, const Url& url,
                                     bool avoid_peers,
                                     const obs::TraceContext& trace) {
  wire::FetchRequest request;
  request.client = client;
  request.url = url;
  request.avoid_peers = avoid_peers;
  wire::FetchResponse response =
      round_trip<wire::FetchResponse>("fetch", request, trace);
  ProxyCore::Reply reply;
  reply.doc.body = std::move(response.body);
  reply.doc.mark = watermark_from_bytes(response.watermark);
  reply.source = from_wire_source(response.source);
  reply.false_forward = response.false_forward;
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

ProxyStats TcpTransport::stats() {
  const auto response =
      round_trip<wire::StatsResponse>("stats", wire::StatsRequest{});
  ProxyStats stats;
  stats.proxy_hits = response.proxy_hits;
  stats.peer_hits = response.peer_hits;
  stats.origin_fetches = response.origin_fetches;
  stats.false_forwards = response.false_forwards;
  stats.rejected_index_updates = response.rejected_index_updates;
  return stats;
}

std::string TcpTransport::trace_stats(std::uint32_t max_spans) {
  wire::TraceStatsRequest request;
  request.max_spans = max_spans;
  return round_trip<wire::TraceStatsResponse>("trace_stats", request).json;
}

std::string TcpTransport::time_series(std::uint32_t max_intervals) {
  wire::TimeSeriesRequest request;
  request.max_intervals = max_intervals;
  return round_trip<wire::TimeSeriesResponse>("time_series", request).json;
}

}  // namespace baps::runtime
