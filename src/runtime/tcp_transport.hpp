// The client side of the wire protocol: a Transport that speaks to a
// ProxyServer over TCP. The whole host shares one proxy channel, dialed
// lazily (Hello advertises the host's peer-server port; the HelloAck
// supplies the proxy's public key) and re-dialed after a failed exchange.
// Fetches and index updates name their browser in the frame. A fetch sends
// and then reads its reply; an index update is only written — the proxy
// handles one session's frames in order, so it applies the update before
// any later request from this host. Introspection (stats() and
// introspect()) uses the same channel, and works with no peer host bound
// (baps_top, baps_fetch --stats).
//
// The host gets one peer server: an EpollFrameServer whose single loop
// thread answers every browser's PeerFetch frames out of the host's browser
// stores; each PeerFetch names the holder it is addressed to. A serve calls
// PeerHost::serve_peer_fetch on the loop thread; the host (BapsSystem)
// serialises it against its own browse() with its host lock.
//
// Threads: any number of threads may call in. The channel lock serialises
// them, and a fetch holds it across its round trip. The bound PeerHost must
// stay alive while the proxy can still route peer fetches here, i.e. until
// traffic to this host has stopped or the transport is destroyed.
//
// Failure policy: refused/reset proxy connections are retried with bounded
// backoff on a fresh dial (the daemon may still be starting); timeouts are
// not retried. Updates written just before a connection broke may be lost
// with it: a lost remove leaves a stale entry, which costs one counted,
// recovered false forward; a lost add costs only a missed peer hit. A
// request that cannot complete after the retry budget is an invariant
// violation — the engine's callers assume fetch() returns a document.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "netio/epoll_server.hpp"
#include "netio/frame_channel.hpp"
#include "runtime/transport.hpp"

namespace baps::runtime {

class TcpTransport final : public Transport {
 public:
  struct Params {
    std::string proxy_host = "127.0.0.1";
    std::uint16_t proxy_port = 0;
    netio::Deadlines deadlines;
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
  /// The `proxy` introspection section: one round trip, answered after
  /// every update this host sent before it.
  ProxyStats stats() override;

  /// Client-side tracer: request frames carry sampled contexts, the proxy
  /// channel and the peer server record frame spans, and the peer server
  /// records a peer_transfer span for each serve. Attach before traffic
  /// flows.
  void set_tracer(obs::Tracer* tracer) override;

  /// The proxy's baps.introspect.v1 document with the requested sections.
  /// A reply that does not parse, names another schema, lacks a requested
  /// section or carries an unreadable `proxy` section fails the exchange,
  /// like any bad frame, and counts
  /// wire_decode_errors_total{reason="bad-introspect"}.
  obs::JsonValue introspect(const wire::IntrospectRequest& request);

  /// The port the Hello advertises: the host's one peer server (0 until
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
  /// Opens the proxy channel: dial, Hello, HelloAck. Channel lock held.
  /// A HelloAck whose RSA key make_rsa_public_key rejects fails the dial
  /// and counts wire_decode_errors_total{reason="bad-key"}.
  bool dial(netio::NetError* err);
  /// Runs `op(channel, err)` under the channel lock, dialing first when no
  /// channel is open. A failed exchange drops the channel (it may be
  /// mid-frame), and a transient failure retries on a fresh dial; aborts
  /// once the retry budget is spent.
  template <typename Op>
  void exchange(const char* what, Op&& op);

  Params params_;
  PeerHost* host_ = nullptr;
  fault::FaultPlan* plan_ = nullptr;  ///< optional, not owned
  obs::Tracer* tracer_ = nullptr;     ///< optional, not owned
  /// The host's one peer server, started by bind_peer_host.
  std::unique_ptr<netio::EpollFrameServer> peer_server_;
  /// Per client id: set by kill_peer_server, read on the loop thread.
  std::vector<std::atomic<bool>> killed_;
  std::mutex channel_mu_;
  /// The host's proxy channel; guarded by channel_mu_.
  std::unique_ptr<netio::FrameChannel> channel_;
  /// From the channel's HelloAck; guarded by channel_mu_.
  crypto::RsaPublicKey proxy_key_;
};

}  // namespace baps::runtime
