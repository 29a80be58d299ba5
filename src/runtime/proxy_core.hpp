// The proxy side of the BAPS protocol, independent of any transport: the
// proxy cache, the browser index, the origin connection, the watermark key
// pair (§6.1), and HMAC-authenticated index maintenance. BapsSystem embeds
// one behind the in-process loopback transport; ProxyServer serves the same
// core over TCP. Behaviour here is the single source of truth — both
// transports produce identical FetchOutcome streams because they dispatch
// into the same code.
//
// A fetch is one decision path with two drivers. begin_fetch() probes the
// proxy cache and the browser index and either answers (a proxy hit, or an
// origin fetch when no holder is known) or names the holder to ask.
// finish_fetch() takes the holder's answer: a delivery is a peer hit, no
// delivery is a counted false forward recovered from the origin. The
// loopback runs the two back to back around an in-process serve; the
// proxy's event loop parks the requesting session between them while the
// PeerFetch is on the wire, so no other session waits on the holder.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
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

  /// A fetch waiting on a holder's copy: ask `holder` for `key` — only the
  /// holder and the key, never the requester (§6.2) — and hand the answer
  /// to finish_fetch().
  struct NeedPeer {
    ClientId holder = 0;
    DocStore::Key key = 0;
    Url url;
    /// The request's context: the origin stage attaches under it if the
    /// holder does not deliver.
    obs::TraceContext trace;
    /// The open peer_transfer span, ended by finish_fetch(). Its context
    /// rides the PeerFetch frame so the holder's spans stitch into the
    /// trace; it carries span ids only.
    obs::Span transfer;
  };
  using Step = std::variant<Reply, NeedPeer>;

  explicit ProxyCore(const Params& params);

  /// Mirrors proxy-side envelopes into `trace` (nullptr detaches; not owned).
  void set_trace(MessageTrace* trace) { trace_ = trace; }
  /// Records per-stage spans (cache_probe, index_lookup, peer_transfer,
  /// origin_fetch) for sampled requests (nullptr detaches; not owned).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Proxy-side request handling up to the peer step; avoid_peers=true
  /// skips the index (the requester's retry path after a failed watermark,
  /// §6.1). `trace` is the requesting span's context; stage spans attach
  /// under it when sampled. Returns the Reply, or NeedPeer when the index
  /// names a holder.
  Step begin_fetch(ClientId requester, const Url& url, bool avoid_peers,
                   const obs::TraceContext& trace = {});

  /// Completes a fetch begin_fetch() sent to a holder. `delivered` is the
  /// holder's copy; nullopt — stale entry, dead peer, timeout or a bad
  /// frame — is a false forward: the entry is dropped and the origin
  /// serves the document.
  Reply finish_fetch(NeedPeer&& need, std::optional<Document> delivered);

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
  const index::BrowserIndex& index() const { return index_; }
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }
  const crypto::RsaPrivateKey& private_key() const { return keys_.priv; }
  const ProxyStats& stats() const { return stats_; }

 private:
  void record(MsgKind kind, std::string from, std::string to,
              DocStore::Key key);
  /// Step 3: the origin fetch, where the proxy issues the watermark.
  Reply from_origin(const Url& url, DocStore::Key key, bool false_forward,
                    const obs::TraceContext& trace);

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
    obs::Counter& stale_index_hits;
    RequestCounters();
  };

  OriginServer origin_;
  crypto::RsaKeyPair keys_;
  store::TieredObjectStore proxy_cache_;
  index::BrowserIndex index_;
  std::vector<std::string> mac_keys_;
  MessageTrace* trace_ = nullptr;   ///< optional, not owned
  obs::Tracer* tracer_ = nullptr;   ///< optional, not owned
  ProxyStats stats_;
  RequestCounters counters_;
};

}  // namespace baps::runtime
