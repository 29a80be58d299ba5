// The client side of the wire protocol: a Transport that speaks to a
// ProxyServer over TCP. Each client id gets one persistent proxy connection
// (established lazily with Hello/HelloAck). The host gets one peer server:
// an EpollFrameServer whose single loop thread answers every browser's
// PeerFetch frames out of the host's browser stores. Every Hello advertises
// that server's port, and each PeerFetch names the holder it is addressed
// to. A serve calls PeerHost::serve_peer_fetch on the loop thread; the host
// (BapsSystem) serialises it against its own browse() with its host lock.
// Observer traffic (stats, public key, live telemetry) identifies as
// kObserverClientId, registers nothing, and reuses one pooled connection
// across polls.
//
// Threads: one calling thread per client id at a time (each id owns its
// proxy connection); different ids may be driven concurrently. The bound
// PeerHost must stay alive while the proxy can still route peer fetches
// here, i.e. until traffic to this host has stopped or the transport is
// destroyed.
//
// Failure policy: refused/reset proxy connections are retried with bounded
// backoff (the daemon may still be starting); timeouts are not retried.
// A request that cannot complete after the retry budget is an invariant
// violation — the engine's callers assume fetch() returns a document.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netio/epoll_server.hpp"
#include "netio/frame_channel.hpp"
#include "netio/retry.hpp"
#include "runtime/transport.hpp"

namespace baps::runtime {

class TcpTransport final : public Transport {
 public:
  struct Params {
    std::string proxy_host = "127.0.0.1";
    std::uint16_t proxy_port = 0;
    netio::Deadlines deadlines;
    netio::RetryPolicy retry;
    std::uint64_t max_frame_payload = wire::kDefaultMaxPayload;
  };

  explicit TcpTransport(const Params& params);
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void bind_peer_host(PeerHost* host) override;
  ProxyCore::Reply fetch(ClientId client, const Url& url, bool avoid_peers,
                         const obs::TraceContext& trace) override;
  bool index_update(ClientId claimed_sender, bool is_add, DocStore::Key key,
                    const crypto::Md5Digest& mac) override;
  crypto::RsaPublicKey proxy_public_key() override;
  ProxyStats stats() override;

  /// Client-side tracer: request frames carry sampled contexts, proxy
  /// channels and the peer server record frame spans, and the peer server
  /// records a peer_transfer span for each serve. Attach before traffic
  /// flows.
  void set_tracer(obs::Tracer* tracer) override;

  /// One-shot observer TraceStatsRequest: the proxy's live introspection
  /// JSON (baps.trace_stats.v1), `max_spans` most recent spans included.
  std::string trace_stats(std::uint32_t max_spans);

  /// One-shot observer TimeSeriesRequest: the proxy's live interval window
  /// JSON (baps.timeseries_window.v1), up to `max_intervals` most recent
  /// interval records (0 = everything in the sampler's ring).
  std::string time_series(std::uint32_t max_intervals);

  /// The port every Hello advertises: the host's one peer server (0 until
  /// bind_peer_host).
  std::uint16_t peer_port() const {
    return peer_server_ != nullptr ? peer_server_->port() : 0;
  }

  // --- fault injection ----------------------------------------------------
  /// Kills `client`'s peer serving without telling the proxy: its index
  /// registration stays, but fetches addressed to it get no reply and their
  /// connection closes, so each must degrade to an origin fetch.
  void kill_peer_server(ClientId client);

  /// Frame faults (drop/corrupt) are injected on real wire frames in the
  /// peer-deliver path. Attach before traffic flows.
  void set_fault_plan(fault::FaultPlan* plan) override { plan_ = plan; }

 private:
  /// Answers one frame on the peer server's loop thread; false closes the
  /// connection.
  bool serve(netio::EpollFrameServer::Connection& conn,
             const wire::Frame& frame);
  /// The proxy connection for `client`, dialing + Hello on first use.
  netio::FrameChannel* channel_for(ClientId client);
  void drop_channel(ClientId client);
  /// Observer exchange over the pooled observer connection (dialed +
  /// Hello(kObserverClientId) on first use, re-dialed after failures).
  bool observer_session(
      const std::function<bool(netio::FrameChannel&, wire::HelloAck&)>& op);

  Params params_;
  PeerHost* host_ = nullptr;
  fault::FaultPlan* plan_ = nullptr;  ///< optional, not owned
  obs::Tracer* tracer_ = nullptr;     ///< optional, not owned
  /// The host's one peer server, started by bind_peer_host.
  std::unique_ptr<netio::EpollFrameServer> peer_server_;
  /// Per client id: set by kill_peer_server, read on the loop thread.
  std::vector<std::atomic<bool>> killed_;
  /// Persistent proxy connections, one per client id.
  std::vector<std::unique_ptr<netio::FrameChannel>> channels_;
  /// The pooled observer connection: Hello'd once as kObserverClientId and
  /// reused across stats/trace/time-series polls (a dashboard polling every
  /// second used to dial a fresh socket per poll). Dropped on any failed
  /// exchange; the next poll re-dials.
  std::unique_ptr<netio::FrameChannel> observer_channel_;
  wire::HelloAck observer_ack_;
};

}  // namespace baps::runtime
