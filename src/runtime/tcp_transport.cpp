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
  for (auto& channel : channels_) {
    if (channel != nullptr && channel->valid()) {
      NetError err;
      channel->send_msg(wire::Bye{}, &err);
      channel->close();
    }
  }
  if (observer_channel_ != nullptr && observer_channel_->valid()) {
    NetError err;
    observer_channel_->send_msg(wire::Bye{}, &err);
    observer_channel_->close();
  }
  if (peer_server_ != nullptr) peer_server_->stop();
}

void TcpTransport::bind_peer_host(PeerHost* host) {
  BAPS_REQUIRE(host != nullptr, "transport needs a peer host");
  BAPS_REQUIRE(host_ == nullptr, "peer host already bound");
  host_ = host;
  const std::uint32_t n = host->num_clients();
  channels_.resize(n);
  killed_ = std::vector<std::atomic<bool>>(n);
  // One peer server for the whole host: every browser's Hello advertises
  // its port, and each PeerFetch names the browser that serves it.
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

void TcpTransport::drop_channel(ClientId client) {
  if (client < channels_.size() && channels_[client] != nullptr) {
    channels_[client]->close();
    channels_[client].reset();
  }
}

netio::FrameChannel* TcpTransport::channel_for(ClientId client) {
  BAPS_REQUIRE(host_ != nullptr, "peer host not bound");
  BAPS_REQUIRE(client < channels_.size(), "client id out of range");
  if (channels_[client] != nullptr && channels_[client]->valid()) {
    return channels_[client].get();
  }
  NetError err;
  const bool connected = netio::retry_with_backoff(
      params_.retry, "connect",
      [&](NetError* e) {
        auto conn = netio::TcpConnection::connect(params_.proxy_host,
                                                  params_.proxy_port,
                                                  params_.deadlines.connect_ms,
                                                  e);
        if (!conn.has_value()) return false;
        auto channel = std::make_unique<netio::FrameChannel>(
            std::move(*conn), params_.deadlines, params_.max_frame_payload);
        channel->set_tracer(tracer_);
        wire::Hello hello;
        hello.client_id = client;
        hello.peer_port = peer_port();
        if (!channel->send_msg(hello, e)) return false;
        const auto ack = channel->recv_msg<wire::HelloAck>(e);
        if (!ack.has_value()) return false;
        BAPS_REQUIRE(client < ack->max_clients,
                     "proxy rejected client id: out of range");
        channels_[client] = std::move(channel);
        return true;
      },
      &err);
  BAPS_REQUIRE(connected, "cannot reach proxy at " + params_.proxy_host + ":" +
                              std::to_string(params_.proxy_port) + ": " +
                              err.message);
  return channels_[client].get();
}

ProxyCore::Reply TcpTransport::fetch(ClientId client, const Url& url,
                                     bool avoid_peers,
                                     const obs::TraceContext& trace) {
  wire::FetchRequest request;
  request.url = url;
  request.avoid_peers = avoid_peers;
  std::optional<wire::FetchResponse> response;
  NetError err;
  const bool ok = netio::retry_with_backoff(
      params_.retry, "fetch",
      [&](NetError* e) {
        netio::FrameChannel* channel = channel_for(client);
        if (!channel->send_msg(request, trace, e)) {
          drop_channel(client);  // reconnect on the next attempt
          return false;
        }
        response = channel->recv_msg<wire::FetchResponse>(e);
        if (!response.has_value()) {
          drop_channel(client);
          return false;
        }
        return true;
      },
      &err);
  BAPS_REQUIRE(ok, "fetch failed over transport: " + err.message);
  BAPS_REQUIRE(response.has_value(), "fetch produced no response");
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
  // The connection identity IS the claimed sender: an attacker spoofing
  // another client sends over a session Hello'd with the victim's id, and
  // only the MAC (which it cannot forge) gives it away.
  wire::IndexUpdate update;
  update.is_add = is_add;
  update.key = key;
  update.mac = mac_to_wire(mac);
  std::optional<wire::IndexAck> ack;
  NetError err;
  const bool ok = netio::retry_with_backoff(
      params_.retry, "index_update",
      [&](NetError* e) {
        netio::FrameChannel* channel = channel_for(claimed_sender);
        if (!channel->send_msg(update, e)) {
          drop_channel(claimed_sender);
          return false;
        }
        ack = channel->recv_msg<wire::IndexAck>(e);
        if (!ack.has_value()) {
          drop_channel(claimed_sender);
          return false;
        }
        return true;
      },
      &err);
  BAPS_REQUIRE(ok, "index update failed over transport: " + err.message);
  return ack->accepted;
}

bool TcpTransport::observer_session(
    const std::function<bool(netio::FrameChannel&, wire::HelloAck&)>& op) {
  NetError err;
  return netio::retry_with_backoff(
      params_.retry, "observer",
      [&](NetError* e) {
        if (observer_channel_ == nullptr || !observer_channel_->valid()) {
          auto conn = netio::TcpConnection::connect(
              params_.proxy_host, params_.proxy_port,
              params_.deadlines.connect_ms, e);
          if (!conn.has_value()) return false;
          auto channel = std::make_unique<netio::FrameChannel>(
              std::move(*conn), params_.deadlines, params_.max_frame_payload);
          wire::Hello hello;
          hello.client_id = wire::kObserverClientId;
          if (!channel->send_msg(hello, e)) return false;
          auto ack = channel->recv_msg<wire::HelloAck>(e);
          if (!ack.has_value()) return false;
          observer_ack_ = *ack;
          observer_channel_ = std::move(channel);
        }
        wire::HelloAck ack = observer_ack_;
        const bool done = op(*observer_channel_, ack);
        if (!done) {
          // Failed exchange: the pooled socket may be mid-frame or dead —
          // never reuse it. The retry (or the next poll) re-dials.
          observer_channel_->close();
          observer_channel_.reset();
        }
        return done;
      },
      &err);
}

crypto::RsaPublicKey TcpTransport::proxy_public_key() {
  crypto::RsaPublicKey key;
  const bool ok = observer_session(
      [&](netio::FrameChannel&, wire::HelloAck& ack) {
        key.n = crypto::BigUInt::from_bytes(ack.rsa_n);
        key.e = crypto::BigUInt::from_bytes(ack.rsa_e);
        return true;
      });
  BAPS_REQUIRE(ok, "cannot fetch proxy public key");
  return key;
}

ProxyStats TcpTransport::stats() {
  ProxyStats stats;
  const bool ok = observer_session(
      [&](netio::FrameChannel& channel, wire::HelloAck&) {
        NetError err;
        if (!channel.send_msg(wire::StatsRequest{}, &err)) return false;
        const auto response = channel.recv_msg<wire::StatsResponse>(&err);
        if (!response.has_value()) return false;
        stats.proxy_hits = response->proxy_hits;
        stats.peer_hits = response->peer_hits;
        stats.origin_fetches = response->origin_fetches;
        stats.false_forwards = response->false_forwards;
        stats.rejected_index_updates = response->rejected_index_updates;
        return true;
      });
  BAPS_REQUIRE(ok, "cannot fetch proxy stats");
  return stats;
}

std::string TcpTransport::trace_stats(std::uint32_t max_spans) {
  std::string json;
  const bool ok = observer_session(
      [&](netio::FrameChannel& channel, wire::HelloAck&) {
        NetError err;
        wire::TraceStatsRequest request;
        request.max_spans = max_spans;
        if (!channel.send_msg(request, &err)) return false;
        const auto response = channel.recv_msg<wire::TraceStatsResponse>(&err);
        if (!response.has_value()) return false;
        json = std::move(response->json);
        return true;
      });
  BAPS_REQUIRE(ok, "cannot fetch proxy trace stats");
  return json;
}

std::string TcpTransport::time_series(std::uint32_t max_intervals) {
  std::string json;
  const bool ok = observer_session(
      [&](netio::FrameChannel& channel, wire::HelloAck&) {
        NetError err;
        wire::TimeSeriesRequest request;
        request.max_intervals = max_intervals;
        if (!channel.send_msg(request, &err)) return false;
        const auto response = channel.recv_msg<wire::TimeSeriesResponse>(&err);
        if (!response.has_value()) return false;
        json = std::move(response->json);
        return true;
      });
  BAPS_REQUIRE(ok, "cannot fetch proxy time series");
  return json;
}

}  // namespace baps::runtime
