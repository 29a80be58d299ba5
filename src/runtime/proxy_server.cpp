#include "runtime/proxy_server.hpp"

#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "runtime/wire_bridge.hpp"
#include "util/assert.hpp"

namespace baps::runtime {

using netio::NetError;

namespace {

obs::Histogram& request_hist(const std::string& op) {
  // Log10-seconds domain spanning 100 ns .. 1000 s (thread-pool idiom).
  return obs::Registry::global().histogram("netio_request_seconds", -7.0, 3.0,
                                           50, obs::HistScale::kLog10,
                                           {{"op", op}});
}

}  // namespace

ProxyServer::ProxyServer(const Params& params)
    : params_(params),
      core_(params.core),
      peer_pool_(netio::ChannelPool::Params{
          params.peer_deadlines, params.net.max_frame_payload,
          params.peer_pool_idle}) {
  core_.set_peer_fetch([this](ClientId holder, DocStore::Key key,
                              const obs::TraceContext& trace) {
    return peer_fetch(holder, key, trace);
  });
}

ProxyServer::~ProxyServer() { stop(); }

bool ProxyServer::start(std::string* error) {
  netio::EpollFrameServer::Params net = params_.net;
  net.tracer = tracer_;
  server_ = std::make_unique<netio::EpollFrameServer>(
      net, [this](netio::EpollFrameServer::Connection& conn,
                  wire::Frame&& frame) {
        auto state = std::static_pointer_cast<Session>(conn.state());
        if (state == nullptr) {
          state = std::make_shared<Session>();
          conn.state() = state;
        }
        return on_session_frame(*state, frame, conn);
      });
  return server_->start(error);
}

void ProxyServer::stop() {
  if (server_ != nullptr) server_->stop();
  peer_pool_.clear();
}

bool ProxyServer::running() const {
  return server_ != nullptr && server_->running();
}

std::uint16_t ProxyServer::port() const {
  return server_ != nullptr ? server_->port() : 0;
}

void ProxyServer::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  core_.set_tracer(tracer);
}

void ProxyServer::set_sampler(obs::TimeSeriesSampler* sampler) {
  sampler_ = sampler;
}

obs::JsonValue ProxyServer::trace_stats_json(std::uint32_t max_spans) {
  obs::JsonValue out = obs::json_object({});
  out.set("schema", obs::JsonValue("baps.trace_stats.v1"));
  out.set("registry", obs::to_json(obs::with_latency_quantiles(
                          obs::Registry::global().snapshot())));
  if (tracer_ != nullptr) {
    obs::JsonArray spans;
    for (const obs::SpanRecord& rec : tracer_->recent_spans(max_spans)) {
      spans.push_back(rec.to_json());
    }
    out.set("spans_recorded", obs::JsonValue(tracer_->spans_recorded()));
    out.set("spans_evicted", obs::JsonValue(tracer_->spans_evicted()));
    out.set("recent_spans", obs::JsonValue(std::move(spans)));
    out.set("slow_traces", tracer_->slow_traces_json());
  }
  return out;
}

std::optional<Document> ProxyServer::peer_fetch(
    ClientId holder, DocStore::Key key, const obs::TraceContext& trace) {
  const auto it = peer_ports_.find(holder);
  if (it == peer_ports_.end()) return std::nullopt;
  const std::uint16_t port = it->second;
  // The frame names the addressee (the host serves several browsers on one
  // port) and the key — never the requester (§6.2).
  wire::PeerFetch request;
  request.holder = holder;
  request.key = key;
  // A pooled connection per peer fetch: reuse a warm socket when one is
  // parked, dial otherwise. Any failure — refused (holder died), timeout
  // (holder wedged), tampered framing — collapses to "no delivery", which
  // handle_fetch treats as a false forward and recovers from origin. A
  // failed exchange on a REUSED socket retries once on a fresh dial: the
  // holder may simply have closed the parked connection.
  for (int attempt = 0; attempt < 2; ++attempt) {
    NetError err;
    auto acquired = peer_pool_.acquire(params_.net.host, port, &err);
    if (acquired.channel == nullptr) return std::nullopt;
    acquired.channel->set_tracer(tracer_);
    // The context rides the frame so the holder's serve span stitches in;
    // it carries span ids only, never the requester (§6.2 still holds).
    if (acquired.channel->send_msg(request, trace, &err)) {
      auto deliver = acquired.channel->recv_msg<wire::PeerDeliver>(&err);
      if (deliver.has_value()) {
        peer_pool_.release(params_.net.host, port,
                           std::move(acquired.channel));
        if (!deliver->found) return std::nullopt;
        return Document{std::move(deliver->body),
                        watermark_from_bytes(deliver->watermark)};
      }
    }
    if (!acquired.reused) break;  // fresh dial failed: the holder is gone
  }
  return std::nullopt;
}

bool ProxyServer::on_session_frame(
    Session& s, const wire::Frame& frame,
    netio::EpollFrameServer::Connection& conn) {
  const auto send_msg = [&conn](const auto& m, const obs::TraceContext& trace =
                                                   obs::TraceContext{}) {
    using Msg = std::decay_t<decltype(m)>;
    return conn.send(Msg::kKind, wire::encode(m), trace);
  };

  if (!s.hello_done) {
    // The first frame of every session must be a well-formed Hello; anything
    // else drops the connection without a reply (matching the original
    // recv_msg<Hello> behaviour).
    if (frame.kind != wire::Hello::kKind) return false;
    wire::Hello hello;
    if (!wire::decode(frame.payload, &hello)) return false;
    wire::HelloAck ack;
    ack.rsa_n = core_.public_key().n.to_bytes();
    ack.rsa_e = core_.public_key().e.to_bytes();
    ack.max_clients = core_.num_clients();
    s.observer = hello.client_id == wire::kObserverClientId;
    s.client_id = hello.client_id;
    if (!s.observer && hello.client_id >= ack.max_clients) {
      send_msg(wire::ErrorMsg{"client id out of range"});
      return false;
    }
    if (!send_msg(ack)) return false;
    if (!s.observer && hello.peer_port != 0) {
      peer_ports_[hello.client_id] = hello.peer_port;
    }
    s.hello_done = true;
    return true;
  }

  switch (frame.kind) {
    case wire::FrameKind::kFetchRequest: {
      wire::FetchRequest request;
      if (s.observer || !wire::decode(frame.payload, &request)) {
        send_msg(wire::ErrorMsg{"bad fetch request"});
        return false;
      }
      const double start = obs::monotonic_seconds();
      // The frame's context (the client's root span) parents the core's
      // stage spans — this is where cross-process stitching happens on the
      // proxy side.
      ProxyCore::Reply reply = core_.handle_fetch(
          s.client_id, request.url, request.avoid_peers, frame.trace);
      request_hist("fetch").observe(obs::monotonic_seconds() - start);
      wire::FetchResponse response;
      response.source = to_wire_source(reply.source);
      response.false_forward = reply.false_forward;
      response.body = std::move(reply.doc.body);
      response.watermark = watermark_to_bytes(reply.doc.mark);
      return send_msg(response, frame.trace);
    }
    case wire::FrameKind::kIndexUpdate: {
      wire::IndexUpdate update;
      if (s.observer || !wire::decode(frame.payload, &update)) {
        send_msg(wire::ErrorMsg{"bad index update"});
        return false;
      }
      const double start = obs::monotonic_seconds();
      // The wire says who the update claims to be from — the session's own
      // id. Spoofing tests impersonate here and the MAC rejects it.
      const bool accepted = core_.apply_index_update(
          s.client_id, update.is_add, update.key, mac_from_wire(update.mac));
      request_hist("index_update").observe(obs::monotonic_seconds() - start);
      wire::IndexAck ack_msg;
      ack_msg.accepted = accepted;
      return send_msg(ack_msg);
    }
    case wire::FrameKind::kStatsRequest: {
      const ProxyStats& st = core_.stats();
      wire::StatsResponse response;
      response.proxy_hits = st.proxy_hits;
      response.peer_hits = st.peer_hits;
      response.origin_fetches = st.origin_fetches;
      response.false_forwards = st.false_forwards;
      response.rejected_index_updates = st.rejected_index_updates;
      return send_msg(response);
    }
    case wire::FrameKind::kTraceStatsRequest: {
      wire::TraceStatsRequest request;
      if (!wire::decode(frame.payload, &request)) {
        send_msg(wire::ErrorMsg{"bad trace stats request"});
        return false;
      }
      wire::TraceStatsResponse response;
      response.json = trace_stats_json(request.max_spans).dump();
      return send_msg(response);
    }
    case wire::FrameKind::kTimeSeriesRequest: {
      wire::TimeSeriesRequest request;
      if (!wire::decode(frame.payload, &request)) {
        send_msg(wire::ErrorMsg{"bad time series request"});
        return false;
      }
      wire::TimeSeriesResponse response;
      if (sampler_ != nullptr) {
        response.json = sampler_->window_json(request.max_intervals).dump();
      } else {
        obs::JsonValue empty = obs::json_object({});
        empty.set("schema", obs::JsonValue(obs::kTimeSeriesWindowSchema));
        empty.set("interval_seconds", obs::JsonValue(0.0));
        empty.set("intervals", obs::JsonValue(obs::JsonArray{}));
        response.json = empty.dump();
      }
      return send_msg(response);
    }
    case wire::FrameKind::kBye:
      return false;
    default:
      send_msg(wire::ErrorMsg{"unexpected frame kind " +
                              wire::frame_kind_name(frame.kind)});
      return false;
  }
}

}  // namespace baps::runtime
