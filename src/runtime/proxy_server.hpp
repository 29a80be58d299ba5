// The BAPS proxy daemon core: a ProxyCore served over TCP by the epoll
// event loop. Each client host holds one session: Hello/HelloAck, then
// FetchRequest/Response, IndexUpdate (never answered), IntrospectRequest/
// Response, Bye. Fetches and updates name their browser in the frame; an id
// at or above max_clients ends the session and counts
// wire_decode_errors_total{reason="bad-client"}.
//
// One thread, no lock: the loop thread owns the core, the peer-port table
// and the holder links, and runs one session state machine
// (on_session_frame) once per decoded frame. Ordering contract: one
// session's frames are handled in the order they arrive, so a host's index
// update is applied before any later request from that host — which is why
// updates need no ack. Across hosts an update takes effect when the loop
// reads it. With one host the core evolves exactly as the in-process
// loopback does.
//
// Peer fetches never block the loop. When ProxyCore::begin_fetch names a
// holder, the requesting session is parked (its later frames wait unread,
// in order) and a PeerFetch — the holder id and the document key only,
// never the requester (§6.2) — goes to the port the holder's host
// advertised in its Hello, on a link the loop owns: an idle link to that
// host when there is one, a fresh non-blocking dial otherwise. Each link
// carries one request at a time (PeerDeliver names no key), so concurrent
// fetches to one host use several links. The PeerDeliver finishes the fetch,
// the reply goes out and the session resumes. A dead, wedged or lying
// holder — refused, reset, a bad frame, or no reply within peer_reply_ms —
// finishes it as a counted false forward served from the origin; a failure
// on a reused link first retries once on a fresh dial. Meanwhile every other
// session is served. A connection that sends no Hello within
// net.hello_timeout_ms is closed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "netio/epoll_server.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "runtime/proxy_core.hpp"
#include "wire/messages.hpp"

namespace baps::runtime {

class ProxyServer {
 public:
  struct Params {
    ProxyCore::Params core;
    /// Listener and loop behaviour: host/port, idle timeout, drain,
    /// connection ceiling.
    netio::EpollFrameServer::Params net;
    /// Peer-fetch deadlines, kept short so a dead holder degrades to the
    /// origin quickly: peer_connect_ms bounds a dial, peer_reply_ms the wait
    /// for the PeerDeliver after the PeerFetch is sent (which also covers a
    /// PeerFetch that cannot be written).
    int peer_connect_ms = 500;
    int peer_reply_ms = 1000;
    /// Read by nothing: every session runs on the epoll loop. Kept only
    /// because perfbench/perfbench.cpp assigns it; delete with the next
    /// perfbench change.
    bool event_driven = true;
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
  /// browse() returns; an IntrospectRequest on that host's channel is
  /// answered only after them.
  ProxyCore& core() { return core_; }

  /// Attaches the proxy-side tracer: sessions record frame spans, the core
  /// records stage spans, and the `spans` introspection section reports it.
  /// Attach before start(); nullptr detaches; not owned.
  void set_tracer(obs::Tracer* tracer);

  /// Attaches the daemon's time-series sampler, whose interval ring the
  /// `timeseries` introspection section serves. Attach before start();
  /// nullptr detaches; not owned. Without one the section is an empty
  /// baps.timeseries_window.v1 window.
  void set_sampler(obs::TimeSeriesSampler* sampler);

  /// The baps.introspect.v1 document answering `request`: exactly the
  /// requested sections. Without a tracer, `spans` holds zero totals.
  obs::JsonValue introspect_json(const wire::IntrospectRequest& request);

 private:
  using Connection = netio::EpollFrameServer::Connection;

  /// Per-session protocol state, hung off Connection::state().
  struct Session {
    bool hello_done = false;
    std::uint16_t peer_port = 0;  ///< the host's peer server; 0 = none
  };

  /// A fetch parked on a holder: what finishing it needs.
  struct PeerWait {
    std::uint64_t session = 0;  ///< the parked session's connection id
    ProxyCore::NeedPeer need;
    obs::TraceContext trace;  ///< the request frame's, for the reply
    double start = 0;         ///< when the request was read
    bool reused = false;      ///< sent on an idle link: a failure retries
  };

  /// A link to a holder host's peer server, hung off Connection::state().
  struct Link {
    std::uint16_t port = 0;
    std::optional<PeerWait> wait;  ///< the one request in flight
  };

  /// Advances one session by one inbound frame, replying through `conn`.
  /// Returns false when the session must end (protocol error, Bye, or a
  /// failed send).
  bool on_session_frame(Session& s, const wire::Frame& frame,
                        Connection& conn);
  /// Sends the PeerFetch for `wait` on an idle link to the holder's host
  /// (when `may_reuse`) or a fresh one. Never finishes the fetch itself:
  /// the PeerDeliver or the link's close hook does.
  void send_peer_fetch(PeerWait wait, bool may_reuse);
  bool on_link_frame(Connection& link, const wire::Frame& frame);
  void on_link_closed(Connection& link);
  /// Finishes a parked fetch with the holder's answer, replies, and
  /// resumes the session.
  void finish_peer_fetch(PeerWait&& wait, std::optional<Document> delivered);

  Params params_;
  ProxyCore core_;
  obs::Tracer* tracer_ = nullptr;  ///< optional, not owned
  obs::TimeSeriesSampler* sampler_ = nullptr;  ///< optional, not owned

  /// Peer-server port per browser id, learned from that browser's accepted
  /// index updates; 0 until one arrives.
  std::vector<std::uint16_t> peer_ports_;
  /// Idle links per holder-host port, by connection id, newest last.
  std::unordered_map<std::uint16_t, std::vector<std::uint64_t>> idle_links_;

  std::unique_ptr<netio::EpollFrameServer> server_;
};

}  // namespace baps::runtime
