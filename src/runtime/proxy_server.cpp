#include "runtime/proxy_server.hpp"

#include <utility>

#include "netio/netio_metrics.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "runtime/wire_bridge.hpp"
#include "util/assert.hpp"

namespace baps::runtime {

namespace {

obs::Histogram& request_hist(const std::string& op) {
  // Log10-seconds domain spanning 100 ns .. 1000 s (thread-pool idiom).
  return obs::Registry::global().histogram("netio_request_seconds", -7.0, 3.0,
                                           50, obs::HistScale::kLog10,
                                           {{"op", op}});
}

struct LinkCounters {
  obs::Counter& reuse;
  obs::Counter& dial;
  obs::Counter& retries;

  static LinkCounters& get() {
    auto& reg = obs::Registry::global();
    static LinkCounters c{
        reg.counter("netio_pool_reuse_total"),
        reg.counter("netio_pool_dial_total"),
        reg.counter("netio_peer_retries_total"),
    };
    return c;
  }
};

/// Observes the fetch latency — from the request read to the reply,
/// including any wait on a holder — and sends the reply.
bool send_fetch_reply(netio::EpollFrameServer::Connection& conn,
                      ProxyCore::Reply&& reply, const obs::TraceContext& trace,
                      double start) {
  static obs::Histogram& fetch_seconds = request_hist("fetch");
  fetch_seconds.observe(obs::monotonic_seconds() - start);
  wire::FetchResponse response;
  response.source = to_wire_source(reply.source);
  response.false_forward = reply.false_forward;
  response.body = std::move(reply.doc.body);
  response.watermark = watermark_to_bytes(reply.doc.mark);
  return conn.send(wire::FetchResponse::kKind, wire::encode(response), trace);
}

}  // namespace

ProxyServer::ProxyServer(const Params& params)
    : params_(params),
      core_(params.core),
      peer_ports_(params.core.num_clients, 0) {}

ProxyServer::~ProxyServer() { stop(); }

bool ProxyServer::start(std::string* error) {
  server_ = std::make_unique<netio::EpollFrameServer>(
      params_.net,
      [this](Connection& conn, wire::Frame&& frame) {
        if (conn.outbound()) return on_link_frame(conn, frame);
        auto state = std::static_pointer_cast<Session>(conn.state());
        if (state == nullptr) {
          state = std::make_shared<Session>();
          conn.state() = state;
        }
        return on_session_frame(*state, frame, conn);
      },
      [this](Connection& link) { on_link_closed(link); });
  server_->set_tracer(tracer_);
  return server_->start(error);
}

void ProxyServer::stop() {
  if (server_ != nullptr) server_->stop();
  idle_links_.clear();
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

obs::JsonValue ProxyServer::introspect_json(
    const wire::IntrospectRequest& request) {
  const auto wants = [&](std::uint32_t section) {
    return (request.sections & section) != 0;
  };
  obs::JsonValue out = obs::json_object({});
  out.set("schema", obs::JsonValue(wire::kIntrospectSchema));
  if (wants(wire::kIntrospectProxy)) {
    out.set("proxy", proxy_stats_json(core_.stats()));
  }
  if (wants(wire::kIntrospectRegistry)) {
    out.set("registry", obs::to_json(obs::with_latency_quantiles(
                            obs::Registry::global().snapshot())));
  }
  if (wants(wire::kIntrospectSpans)) {
    // Without a tracer the section keeps its shape, with zero totals.
    obs::JsonArray recent;
    std::uint64_t recorded = 0, evicted = 0;
    obs::JsonValue slow = obs::JsonArray{};
    if (tracer_ != nullptr) {
      if (request.max_spans > 0) {
        for (const obs::SpanRecord& rec :
             tracer_->recent_spans(request.max_spans)) {
          recent.push_back(rec.to_json());
        }
      }
      recorded = tracer_->spans_recorded();
      evicted = tracer_->spans_evicted();
      slow = tracer_->slow_traces_json();
    }
    out.set("spans", obs::json_object({
                         {"spans_recorded", obs::JsonValue(recorded)},
                         {"spans_evicted", obs::JsonValue(evicted)},
                         {"recent_spans", obs::JsonValue(std::move(recent))},
                         {"slow_traces", std::move(slow)},
                     }));
  }
  if (wants(wire::kIntrospectTimeSeries)) {
    out.set("timeseries",
            sampler_ != nullptr
                ? sampler_->window_json(request.max_intervals)
                : obs::json_object({
                      {"schema", obs::JsonValue(obs::kTimeSeriesWindowSchema)},
                      {"interval_seconds", obs::JsonValue(0.0)},
                      {"intervals", obs::JsonValue(obs::JsonArray{})},
                  }));
  }
  return out;
}

void ProxyServer::send_peer_fetch(PeerWait wait, bool may_reuse) {
  const std::uint16_t port = peer_ports_[wait.need.holder];
  Connection* link = nullptr;
  if (may_reuse) {
    std::vector<std::uint64_t>& idle = idle_links_[port];
    while (link == nullptr && !idle.empty()) {
      link = server_->find(idle.back());
      idle.pop_back();
    }
  }
  wait.reused = link != nullptr;
  if (link != nullptr) {
    LinkCounters::get().reuse.inc();
  } else {
    LinkCounters::get().dial.inc();
    link = &server_->connect(params_.net.host, port,
                             params_.peer_connect_ms);
    link->state() = std::make_shared<Link>(Link{port, std::nullopt});
  }
  // The frame names the addressee (the host serves several browsers on one
  // port) and the key — never the requester (§6.2). The peer_transfer
  // context rides it so the holder's serve span stitches in; it carries
  // span ids only.
  wire::PeerFetch request;
  request.holder = wait.need.holder;
  request.key = wait.need.key;
  const obs::TraceContext trace = wait.need.transfer.context();
  static_cast<Link*>(link->state().get())->wait = std::move(wait);
  // A send on a link that is already closed fails; its close hook, which
  // runs after this handler returns, finishes or retries the fetch.
  if (link->send(wire::PeerFetch::kKind, wire::encode(request), trace)) {
    link->expect_reply(params_.peer_reply_ms);
  }
}

bool ProxyServer::on_link_frame(Connection& link, const wire::Frame& frame) {
  auto& state = *static_cast<Link*>(link.state().get());
  wire::PeerDeliver deliver;
  if (!state.wait.has_value() || frame.kind != wire::PeerDeliver::kKind ||
      !wire::decode(frame.payload, &deliver)) {
    return false;  // the close hook finishes any fetch in flight
  }
  PeerWait wait = std::move(*state.wait);
  state.wait.reset();
  idle_links_[state.port].push_back(link.id());
  std::optional<Document> delivered;
  if (deliver.found) {
    delivered = Document{std::move(deliver.body),
                         watermark_from_bytes(deliver.watermark)};
  }
  finish_peer_fetch(std::move(wait), std::move(delivered));
  return true;
}

void ProxyServer::on_link_closed(Connection& link) {
  auto& state = *static_cast<Link*>(link.state().get());
  std::erase(idle_links_[state.port], link.id());
  if (!state.wait.has_value()) return;
  PeerWait wait = std::move(*state.wait);
  state.wait.reset();
  // Refused (holder died), timed out (holder wedged), tampered framing: all
  // collapse to "no delivery". A failure on a reused link retries once on a
  // fresh dial first — the holder may simply have closed the idle link.
  if (wait.reused) {
    LinkCounters::get().retries.inc();
    send_peer_fetch(std::move(wait), /*may_reuse=*/false);
    return;
  }
  finish_peer_fetch(std::move(wait), std::nullopt);
}

void ProxyServer::finish_peer_fetch(PeerWait&& wait,
                                    std::optional<Document> delivered) {
  ProxyCore::Reply reply =
      core_.finish_fetch(std::move(wait.need), std::move(delivered));
  // The session may have gone away while it waited; the core still
  // accounted the fetch.
  if (Connection* session = server_->find(wait.session)) {
    send_fetch_reply(*session, std::move(reply), wait.trace, wait.start);
    session->unpark();
  }
}

bool ProxyServer::on_session_frame(Session& s, const wire::Frame& frame,
                                   Connection& conn) {
  const auto send_msg = [&conn](const auto& m) {
    using Msg = std::decay_t<decltype(m)>;
    return conn.send(Msg::kKind, wire::encode(m));
  };

  // A browser id comes from outside the proxy: one out of range ends the
  // session and is counted, the same shape as a peer server's bad-holder.
  const auto bad_client = [&] {
    netio::count_decode_error("bad-client");
    send_msg(wire::ErrorMsg{"client id out of range"});
    return false;
  };

  if (!s.hello_done) {
    // The first frame of every session must be a well-formed Hello; anything
    // else drops the connection without a reply.
    if (frame.kind != wire::Hello::kKind) return false;
    wire::Hello hello;
    if (!wire::decode(frame.payload, &hello)) return false;
    wire::HelloAck ack;
    ack.rsa_n = core_.public_key().n.to_bytes();
    ack.rsa_e = core_.public_key().e.to_bytes();
    ack.max_clients = core_.num_clients();
    if (!send_msg(ack)) return false;
    s.peer_port = hello.peer_port;
    s.hello_done = true;
    return true;
  }

  switch (frame.kind) {
    case wire::FrameKind::kFetchRequest: {
      wire::FetchRequest request;
      if (!wire::decode(frame.payload, &request)) {
        send_msg(wire::ErrorMsg{"bad fetch request"});
        return false;
      }
      if (request.client >= core_.num_clients()) return bad_client();
      const double start = obs::monotonic_seconds();
      // The frame's context (the client's root span) parents the core's
      // stage spans — this is where cross-process stitching happens on the
      // proxy side.
      ProxyCore::Step step = core_.begin_fetch(
          request.client, request.url, request.avoid_peers, frame.trace);
      if (auto* need = std::get_if<ProxyCore::NeedPeer>(&step)) {
        if (peer_ports_[need->holder] != 0) {
          // This session waits for the holder; every other one goes on.
          conn.park();
          send_peer_fetch(PeerWait{conn.id(), std::move(*need), frame.trace,
                                   start, false},
                          /*may_reuse=*/true);
          return true;
        }
        // The holder's host advertised no peer server: nothing to ask.
        step = core_.finish_fetch(std::move(*need), std::nullopt);
      }
      return send_fetch_reply(conn, std::get<ProxyCore::Reply>(std::move(step)),
                              frame.trace, start);
    }
    case wire::FrameKind::kIndexUpdate: {
      wire::IndexUpdate update;
      if (!wire::decode(frame.payload, &update)) {
        send_msg(wire::ErrorMsg{"bad index update"});
        return false;
      }
      if (update.sender >= core_.num_clients()) return bad_client();
      const double start = obs::monotonic_seconds();
      // The frame names the claimed sender and only the MAC decides: a
      // spoofer cannot forge it under the victim's key. Nothing is sent
      // back — the session's next frame is handled after this one, so the
      // host already sees the update applied (or counted rejected).
      if (core_.apply_index_update(update.sender, update.is_add, update.key,
                                   mac_from_wire(update.mac)) &&
          s.peer_port != 0) {
        // Only holders are ever peer-fetched, and a browser becomes one
        // through an accepted add, so ports are learned from verified
        // updates only.
        peer_ports_[update.sender] = s.peer_port;
      }
      static obs::Histogram& update_seconds = request_hist("index_update");
      update_seconds.observe(obs::monotonic_seconds() - start);
      return true;
    }
    case wire::FrameKind::kIntrospectRequest: {
      wire::IntrospectRequest request;
      if (!wire::decode(frame.payload, &request)) {
        send_msg(wire::ErrorMsg{"bad introspect request"});
        return false;
      }
      return send_msg(
          wire::IntrospectResponse{introspect_json(request).dump()});
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
