// The runtime BAPS protocol engine: the client side of the full
// browsers-aware proxy protocol — clients with real browser caches talking
// to a proxy (cache + browser index + origin + watermark issuance, §6.1)
// through a pluggable Transport.
//
// By default the transport is the in-process loopback: synchronous dispatch
// into an embedded ProxyCore, every message envelope (kind, from, to, url
// digest) recorded in a MessageTrace so tests can audit exactly what each
// party could observe. Constructed with an external Transport (TcpTransport)
// the same client logic runs against a proxy daemon over real sockets and
// produces an identical FetchOutcome stream.
//
// The §6.2 property holds by construction — a peer fetch names only the
// holder it is addressed to and the document key, never the requester — and
// the tests verify it against both the recorded traffic and the raw frames
// on the wire.
//
// The host lock. A BapsSystem is one client host: its browsers' caches
// answer peer fetches (serve_peer_fetch, called by the transport) while its
// users browse. Every public entry point holds the host lock, and so does
// every serve. The lock is released only while a request is on the wire —
// around Transport::fetch and Transport::index_update (over TCP the latter
// is a write into the host's ordered channel, with no wait for a reply) —
// so a serve waits at most for one stretch of local work, and never sees a
// store mid-mutation. Over TCP the serves arrive on the transport's
// peer-server thread, so several hosts sharing a proxy may be driven
// concurrently with no caller lock. The proxy applies this host's updates
// before its next request, but another host's request may reach the proxy
// before an update this host has already handed over. Loopback serves run
// inside the released fetch, on the caller's thread; its embedded proxy
// core is not thread-safe, so drive a loopback system from one thread.
//
// The paper's decentralized anonymity protocols (its reference [17],
// HPL-2001-204) are out of scope; the proxy-relay mode implemented here is
// the variant the paper itself specifies in §6.2.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "fault/fault_plan.hpp"
#include "index/browser_index.hpp"
#include "runtime/doc_store.hpp"
#include "runtime/loopback_transport.hpp"
#include "runtime/origin.hpp"
#include "runtime/transport.hpp"
#include "runtime/types.hpp"
#include "store/disk_store.hpp"

namespace baps::runtime {

class BapsSystem : private PeerHost {
 public:
  struct Params {
    std::uint32_t num_clients = 4;
    std::uint64_t proxy_cache_bytes = 256 << 10;
    std::uint64_t browser_cache_bytes = 64 << 10;
    std::uint64_t seed = 7;
    std::size_t rsa_modulus_bits = 256;
    /// Embedded proxy's durable cache tier (loopback only; dir empty ⇒ off).
    store::DiskStoreConfig store;
  };

  /// Loopback system: embeds the proxy in-process (deterministic, traced).
  explicit BapsSystem(const Params& params);

  /// Runs the same client engine over an external transport (e.g. TCP to a
  /// proxy daemon). `transport` must outlive the system and its proxy end
  /// must be derived from the same seed/params for watermarks and index
  /// MACs to line up.
  BapsSystem(const Params& params, Transport& transport);

  ~BapsSystem() override;

  /// A full client-side page fetch, end to end.
  FetchOutcome browse(ClientId client, const Url& url);

  // --- observability ------------------------------------------------------
  /// Loopback-only: the embedded proxy's origin server.
  OriginServer& origin();
  const MessageTrace& messages() const { return trace_; }
  MessageTrace& messages() { return trace_; }

  /// Streams structured events to `sink` (nullptr detaches; not owned):
  /// one "fetch" event per browse() with the outcome (source, verified,
  /// tamper_recovered, false_forward), plus a "message" event per protocol
  /// envelope, mirroring the MessageTrace. The message events carry exactly
  /// the envelope fields — in particular a peer-fetch event names only the
  /// proxy and the holder, never the requester (§6.2), and tests audit the
  /// emitted stream for that.
  void set_event_sink(obs::EventSink* sink) {
    const std::lock_guard<std::mutex> lock(mu_);
    sink_ = sink;
    trace_.set_sink(sink);
  }

  /// Attaches a tracer (nullptr detaches; not owned, must outlive its use):
  /// every browse() becomes the root client_fetch span of a new trace, and
  /// the context flows through the transport — in-process for loopback, on
  /// the wire for TCP — so proxy- and peer-side spans share its trace_id.
  /// Attach before traffic flows. With no tracer, or a sample rate of 0,
  /// behaviour and metrics are unchanged.
  void set_tracer(obs::Tracer* tracer) {
    const std::lock_guard<std::mutex> lock(mu_);
    tracer_ = tracer;
    transport_->set_tracer(tracer);
  }
  const crypto::RsaPublicKey& proxy_public_key() const { return pub_key_; }
  /// Loopback-only: the embedded proxy's browser index.
  const index::BrowserIndex& browser_index() const;

  std::uint64_t peer_hits() const { return transport_->stats().peer_hits; }
  std::uint64_t proxy_hits() const { return transport_->stats().proxy_hits; }
  std::uint64_t local_hits() const;
  std::uint64_t origin_fetches() const {
    return transport_->stats().origin_fetches;
  }
  std::uint64_t false_forwards() const {
    return transport_->stats().false_forwards;
  }
  std::uint64_t tamper_detections() const;

  // --- fault injection ----------------------------------------------------
  /// Attaches a seeded fault plan (nullptr detaches; not owned, must outlive
  /// its use). Once attached, browse() draws churn/restart decisions from it
  /// per request, serve_peer_fetch() injects delivery faults, and the
  /// transport injects frame faults at its own seam. With no plan attached —
  /// or a zero-rate plan — behaviour is unchanged.
  void attach_fault_plan(fault::FaultPlan* plan);

  /// A peer departs: its browser cache empties and (impolite departure) the
  /// proxy keeps believing the stale index entries — the §5 failure shape.
  /// Polite departure sends authenticated index removes first.
  void depart_client(ClientId client, bool polite);
  /// A departed peer rejoins with a cold cache.
  void rejoin_client(ClientId client);
  bool client_departed(ClientId client) const;

  /// Loopback-only: crash-restarts the embedded proxy (cache + index lost)
  /// and rebuilds the index from the present clients' actual holdings.
  void restart_proxy();

  /// A tampering client corrupts every document it serves to peers.
  void set_tampering(ClientId client, bool tampering);
  /// Drops a document from a client's browser WITHOUT telling the proxy —
  /// produces a stale index entry (false forward on the next lookup).
  void drop_silently(ClientId client, const Url& url);

  /// Attempts to forge an index-remove for `victim`'s copy of `url`, MACed
  /// with `attacker`'s key. Returns true if the proxy accepted it (it must
  /// not: index updates are HMAC-authenticated per sender), read from the
  /// rejected_index_updates delta around it — exact while no other host
  /// sends rejected updates. For testing the authentication path.
  bool spoof_index_remove(ClientId attacker, ClientId victim, const Url& url);

  std::uint64_t rejected_index_updates() const {
    return transport_->stats().rejected_index_updates;
  }

  bool client_has(ClientId client, const Url& url) const;

 private:
  struct ClientState {
    std::unique_ptr<DocStore> browser;
    bool tampering = false;
    bool departed = false;  ///< a departed peer serves nothing
    /// Symmetric key shared with the proxy; authenticates index updates
    /// (the §6 protocols assume such a per-client shared-key channel).
    std::string mac_key;
  };

  void init_clients();
  /// Per-request fault decisions: churn (depart/join) and proxy restart.
  void fault_tick(ClientId requester);
  // depart_client / rejoin_client / restart_proxy with the lock held.
  void depart(ClientId client, bool polite);
  void rejoin(ClientId client);
  void restart();

  // PeerHost: the transport delivers proxy-initiated peer fetches here.
  std::uint32_t num_clients() const override { return params_.num_clients; }
  std::optional<Document> serve_peer_fetch(ClientId holder,
                                           DocStore::Key key) override;

  /// Emits the per-browse "fetch" event (no-op without a sink).
  void emit_fetch(ClientId client, DocStore::Key key, const FetchOutcome& out,
                  bool false_forward);
  /// Tells the proxy `client`'s browser gained (is_add) or lost `key`,
  /// MAC'd under the client's own key, and logs the envelope. Releases the
  /// host lock while the update is on the wire.
  void send_index_update(ClientId client, bool is_add, DocStore::Key key);
  /// One client request to the proxy with its envelopes logged. Releases
  /// the host lock while the request is on the wire.
  ProxyCore::Reply request(ClientId client, const Url& url, DocStore::Key key,
                           bool avoid_peers, const obs::TraceContext& trace);
  void client_store(ClientId client, DocStore::Key key, Document doc);

  /// The host lock (see the file comment).
  mutable std::mutex mu_;
  Params params_;
  std::unique_ptr<LoopbackTransport> loopback_;  ///< null with an external
                                                 ///< transport
  Transport* transport_;                         ///< never null; not owned
                                                 ///< when external
  crypto::RsaPublicKey pub_key_;
  std::vector<ClientState> clients_;
  MessageTrace trace_;
  obs::EventSink* sink_ = nullptr;    ///< optional, not owned
  obs::Tracer* tracer_ = nullptr;     ///< optional, not owned

  fault::FaultPlan* plan_ = nullptr;  ///< optional, not owned

  std::uint64_t local_hits_ = 0;
  std::uint64_t tamper_detections_ = 0;
};

}  // namespace baps::runtime
