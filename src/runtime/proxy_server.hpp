// The BAPS proxy daemon core: a ProxyCore served over TCP by the epoll
// event loop. Each client host holds one session: Hello/HelloAck, then
// FetchRequest/Response, IndexUpdate (never answered), StatsRequest/
// Response, TraceStats and TimeSeries requests, Bye. Fetches and updates
// name their browser in the frame; an id at or above max_clients ends the
// session and counts wire_decode_errors_total{reason="bad-client"}. Peer
// fetches go out over pooled connections to the port the holder's host
// advertised in its Hello, carrying only the holder id and the document
// key (§6.2).
//
// One session state machine (on_session_frame) runs once per decoded frame
// on the loop thread. That thread owns the core, the peer-port table and the
// peer pool, so requests are handled one at a time without a lock, which
// keeps cache, index, and round-robin evolution identical to the in-process
// loopback for any serial client workload. Ordering contract: one session's
// frames are handled in the order they arrive, so a host's index update is
// applied before any later request from that host — which is why updates
// need no ack. Across hosts an update takes effect when the loop reads it.
// A holder that is dead or unreachable costs one bounded peer-deadline wait
// and then degrades to an origin fetch (a false forward) — never a hang.
// A connection that sends no Hello within net.hello_timeout_ms is closed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netio/channel_pool.hpp"
#include "netio/epoll_server.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "runtime/proxy_core.hpp"

namespace baps::runtime {

class ProxyServer {
 public:
  struct Params {
    ProxyCore::Params core;
    /// Listener and loop behaviour: host/port, frame size, idle timeout,
    /// write budget, drain, connection ceiling. `net.tracer` is ignored —
    /// set_tracer() supplies it.
    netio::EpollFrameServer::Params net;
    /// Deadlines for outbound peer fetches — kept short so a dead holder
    /// degrades to origin quickly.
    netio::Deadlines peer_deadlines{500, 1000, 1000};
    /// Read by nothing: every session runs on the epoll loop. Kept only
    /// because perfbench/perfbench.cpp assigns it; delete with the next
    /// perfbench change.
    bool event_driven = true;
    /// Idle peer-fetch connections kept per holder.
    std::size_t peer_pool_idle = 4;
  };

  explicit ProxyServer(const Params& params);
  ~ProxyServer();
  ProxyServer(const ProxyServer&) = delete;
  ProxyServer& operator=(const ProxyServer&) = delete;

  /// Binds and serves. False (with *error) if the listener cannot bind.
  bool start(std::string* error);
  void stop();

  bool running() const;
  std::uint16_t port() const;

  /// Direct access to the proxy state, for in-process inspection by tests
  /// and the daemon's shutdown report. Not synchronized with live sessions —
  /// use while no client traffic is in flight, or go through the wire. Index
  /// updates are not acked, so some may still be in flight after a client's
  /// browse() returns; a stats request on that host's channel is answered
  /// only after them.
  ProxyCore& core() { return core_; }

  /// Attaches the proxy-side tracer: sessions record frame spans, the core
  /// records stage spans, and TraceStatsRequest answers include its recent
  /// spans. Attach before start(); nullptr detaches; not owned.
  void set_tracer(obs::Tracer* tracer);

  /// Attaches the daemon's time-series sampler so TimeSeriesRequest frames
  /// serve its live interval ring. Attach before start(); nullptr detaches;
  /// not owned. Without a sampler the proxy answers with an empty window —
  /// still a valid baps.timeseries_window.v1 document.
  void set_sampler(obs::TimeSeriesSampler* sampler);

  /// The baps.trace_stats.v1 introspection document served to
  /// TraceStatsRequest: live registry snapshot with latency quantiles,
  /// tracer totals, recent spans (up to `max_spans`), and the top-K slowest
  /// trace trees. Live rates come from the sampler (TimeSeriesRequest).
  obs::JsonValue trace_stats_json(std::uint32_t max_spans);

 private:
  /// Per-session protocol state, hung off Connection::state().
  struct Session {
    bool hello_done = false;
    std::uint16_t peer_port = 0;  ///< the host's peer server; 0 = none
  };

  /// Advances one session by one inbound frame, replying through `conn`.
  /// Returns false when the session must end (protocol error, Bye, or a
  /// failed send).
  bool on_session_frame(Session& s, const wire::Frame& frame,
                        netio::EpollFrameServer::Connection& conn);
  std::optional<Document> peer_fetch(ClientId holder, DocStore::Key key,
                                     const obs::TraceContext& trace);

  Params params_;
  ProxyCore core_;
  obs::Tracer* tracer_ = nullptr;  ///< optional, not owned
  obs::TimeSeriesSampler* sampler_ = nullptr;  ///< optional, not owned

  /// Peer-server port per browser id, learned from that browser's accepted
  /// index updates; 0 until one arrives.
  std::vector<std::uint16_t> peer_ports_;

  netio::ChannelPool peer_pool_;
  std::unique_ptr<netio::EpollFrameServer> server_;
};

}  // namespace baps::runtime
