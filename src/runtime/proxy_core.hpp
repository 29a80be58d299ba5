// The proxy side of the BAPS protocol, independent of any transport: the
// proxy cache, the browser index, the origin connection, the watermark key
// pair (§6.1), and HMAC-authenticated index maintenance. BapsSystem embeds
// one behind the in-process loopback transport; ProxyServer serves the same
// core over TCP. Behaviour here is the single source of truth — both
// transports produce identical FetchOutcome streams because they dispatch
// into the same code.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "index/browser_index.hpp"
#include "obs/span.hpp"
#include "runtime/doc_store.hpp"
#include "runtime/origin.hpp"
#include "runtime/types.hpp"
#include "store/tiered_store.hpp"

namespace baps::runtime {

/// Proxy-side protocol counters, snapshot-able over any transport.
struct ProxyStats {
  std::uint64_t proxy_hits = 0;
  std::uint64_t peer_hits = 0;
  std::uint64_t origin_fetches = 0;
  std::uint64_t false_forwards = 0;
  std::uint64_t rejected_index_updates = 0;
};

/// The `proxy` section of a baps.introspect.v1 document: each counter under
/// its field name.
obs::JsonValue proxy_stats_json(const ProxyStats& stats);
/// Reads a `proxy` section back; nullopt unless all five counters are
/// present as unsigned integers.
std::optional<ProxyStats> proxy_stats_from_json(const obs::JsonValue& section);

class ProxyCore {
 public:
  struct Params {
    std::uint32_t num_clients = 4;
    std::uint64_t proxy_cache_bytes = 256 << 10;
    std::uint64_t seed = 7;
    std::size_t rsa_modulus_bits = 256;
    /// Durable second cache tier. store.dir empty (the default) keeps the
    /// proxy RAM-only with behaviour and metrics bit-identical to a build
    /// without the tier.
    store::DiskStoreConfig store;
  };

  struct Reply {
    Document doc;
    FetchOutcome::Source source = FetchOutcome::Source::kOrigin;
    bool false_forward = false;  ///< a stale index entry was hit on the way
  };

  /// Reaches a holder's browser store. Returning nullopt means the holder
  /// did not serve the document — stale entry, dead peer, or timeout; the
  /// proxy treats all of them as a false forward and recovers from origin.
  /// `trace` is the peer_transfer span's context: the TCP path embeds it in
  /// the PeerFetch frame so the holder's spans stitch into the trace. Note
  /// the context carries span ids only — never the requester (§6.2).
  using PeerFetchFn = std::function<std::optional<Document>(
      ClientId holder, DocStore::Key key, const obs::TraceContext& trace)>;

  explicit ProxyCore(const Params& params);

  /// How peer fetches reach holders (in-process call or TCP connection).
  void set_peer_fetch(PeerFetchFn fn) { peer_fetch_ = std::move(fn); }
  /// Mirrors proxy-side envelopes into `trace` (nullptr detaches; not owned).
  void set_trace(MessageTrace* trace) { trace_ = trace; }
  /// Records per-stage spans (cache_probe, index_lookup, peer_transfer,
  /// origin_fetch) for sampled requests (nullptr detaches; not owned).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Proxy-side request handling; avoid_peers=true skips the index (the
  /// requester's retry path after a failed watermark, §6.1). `trace` is the
  /// requesting span's context; stage spans attach under it when sampled.
  Reply handle_fetch(ClientId requester, const Url& url, bool avoid_peers,
                     const obs::TraceContext& trace = {});

  /// Applies an index update iff the MAC verifies under the claimed
  /// sender's key.
  bool apply_index_update(ClientId claimed_sender, bool is_add,
                          DocStore::Key key, const crypto::Md5Digest& mac);

  /// Simulates a proxy crash/restart: the RAM cache and browser index are
  /// lost (the RSA watermark keys and client MAC keys persist — they are
  /// provisioned state, not runtime state). With a disk tier configured the
  /// store reopens and rebuilds its index from the segment files, so the
  /// restarted proxy warm-starts instead of going back to the origin for
  /// everything. Callers rebuild the browser index by replaying the clients'
  /// holdings.
  void restart();

  std::uint32_t num_clients() const {
    return static_cast<std::uint32_t>(mac_keys_.size());
  }
  OriginServer& origin() { return origin_; }
  /// The proxy's two-tier object store (RAM DocStore + optional disk tier).
  store::TieredObjectStore& object_store() { return proxy_cache_; }
  const store::TieredObjectStore& object_store() const { return proxy_cache_; }
  const index::BrowserIndex& index() const { return index_; }
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }
  const crypto::RsaPrivateKey& private_key() const { return keys_.priv; }
  const ProxyStats& stats() const { return stats_; }

 private:
  void record(MsgKind kind, std::string from, std::string to,
              DocStore::Key key);

  /// Registry mirrors of the ProxyStats protocol counters, resolved once at
  /// construction so the per-request cost is one relaxed atomic increment.
  /// These are what makes the live time-series useful: request rate, hit
  /// ratio, and false-forward rate become per-interval deltas instead of
  /// being visible only as the running totals of the `proxy` introspection
  /// section.
  struct RequestCounters {
    obs::Counter& requests;
    obs::Counter& served_proxy;
    obs::Counter& served_peer;
    obs::Counter& served_origin;
    obs::Counter& false_forwards;
    RequestCounters();
  };

  OriginServer origin_;
  crypto::RsaKeyPair keys_;
  store::TieredObjectStore proxy_cache_;
  index::BrowserIndex index_;
  std::vector<std::string> mac_keys_;
  PeerFetchFn peer_fetch_;
  MessageTrace* trace_ = nullptr;   ///< optional, not owned
  obs::Tracer* tracer_ = nullptr;   ///< optional, not owned
  ProxyStats stats_;
  RequestCounters counters_;
};

}  // namespace baps::runtime
