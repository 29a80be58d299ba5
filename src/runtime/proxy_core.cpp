#include "runtime/proxy_core.hpp"

#include "crypto/watermark.hpp"
#include "obs/registry.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::runtime {

std::vector<std::string> derive_client_mac_keys(std::uint64_t seed,
                                                std::uint32_t num_clients) {
  std::vector<std::string> keys;
  keys.reserve(num_clients);
  baps::SplitMix64 key_mixer(seed ^ 0x4D41434B4559ULL);
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    keys.push_back("k" + std::to_string(key_mixer.next()));
  }
  return keys;
}

crypto::Md5Digest index_update_mac(std::string_view mac_key, ClientId sender,
                                   bool is_add, std::uint64_t key) {
  std::string msg = is_add ? "add:" : "remove:";
  msg += std::to_string(sender);
  msg += ':';
  msg += std::to_string(key);
  return crypto::hmac_md5(mac_key, msg);
}

ProxyCore::RequestCounters::RequestCounters()
    : requests(obs::Registry::global().counter("proxy_fetch_requests_total")),
      served_proxy(obs::Registry::global().counter(
          "proxy_fetch_served_total", {{"source", "proxy-cache"}})),
      served_peer(obs::Registry::global().counter(
          "proxy_fetch_served_total", {{"source", "remote-browser"}})),
      served_origin(obs::Registry::global().counter(
          "proxy_fetch_served_total", {{"source", "origin-server"}})),
      false_forwards(
          obs::Registry::global().counter("proxy_false_forwards_total")) {
  // Resolving the handles above eagerly registers the whole family (zeros
  // included), so the sampler's first interval and fetch-free reports still
  // carry every proxy_* instrument; same contract for the staleness counter.
  obs::Registry::global().counter("stale_index_hits_total");
}

ProxyCore::ProxyCore(const Params& params)
    : origin_(params.seed),
      keys_(crypto::generate_rsa_keypair(params.rsa_modulus_bits,
                                         params.seed ^ 0x4B455953454544ULL)),
      proxy_cache_(store::TieredObjectStore::Params{params.proxy_cache_bytes,
                                                    params.store}),
      index_(params.num_clients),
      mac_keys_(derive_client_mac_keys(params.seed, params.num_clients)) {
  BAPS_REQUIRE(params.num_clients > 0, "proxy needs at least one client");
  std::string store_error;
  BAPS_REQUIRE(proxy_cache_.open(&store_error),
               "cannot open object store: " + store_error);
}

void ProxyCore::record(MsgKind kind, std::string from, std::string to,
                       DocStore::Key key) {
  if (trace_ != nullptr) {
    trace_->record(kind, std::move(from), std::move(to), key);
  }
}

bool ProxyCore::apply_index_update(ClientId claimed_sender, bool is_add,
                                   DocStore::Key key,
                                   const crypto::Md5Digest& mac) {
  BAPS_REQUIRE(claimed_sender < mac_keys_.size(), "client id out of range");
  // The proxy recomputes the MAC under the claimed sender's key: only the
  // real owner of that key can mutate its own index entries.
  const crypto::Md5Digest expected =
      index_update_mac(mac_keys_[claimed_sender], claimed_sender, is_add, key);
  if (!crypto::digest_equal(mac, expected)) {
    ++stats_.rejected_index_updates;
    return false;
  }
  if (is_add) {
    index_.add(claimed_sender, key);
  } else {
    index_.remove(claimed_sender, key);
  }
  return true;
}

void ProxyCore::restart() {
  // RAM tier and browser index are lost; the disk tier reopens and rebuilds
  // its index from the segment files — that surviving index is the warm
  // start.
  std::string store_error;
  BAPS_ENSURE(proxy_cache_.restart(&store_error),
              "cannot reopen object store: " + store_error);
  index_.clear();
}

ProxyCore::Reply ProxyCore::handle_fetch(ClientId requester, const Url& url,
                                         bool avoid_peers,
                                         const obs::TraceContext& trace) {
  BAPS_REQUIRE(requester < mac_keys_.size(), "client id out of range");
  const DocStore::Key key = url_key(url);
  counters_.requests.inc();
  bool false_forward = false;
  // One branch on the unsampled path: `traced` is false and every stage()
  // call below hands back an inert span.
  const bool traced = tracer_ != nullptr && trace.sampled;
  const auto stage = [&](obs::SpanKind kind) {
    return traced ? tracer_->start_span(kind, trace) : obs::Span();
  };

  // 1. The proxy's own cache.
  {
    const obs::Span probe = stage(obs::SpanKind::kCacheProbe);
    if (auto doc = proxy_cache_.get(key)) {
      ++stats_.proxy_hits;
      counters_.served_proxy.inc();
      return {std::move(*doc), FetchOutcome::Source::kProxy, false};
    }
  }

  // 2. The browser index. The peer-fetch message deliberately carries only
  //    the document key: the holder never learns who asked (§6.2).
  if (!avoid_peers) {
    std::optional<ClientId> holder;
    {
      const obs::Span lookup = stage(obs::SpanKind::kIndexLookup);
      holder = index_.find_holder(key, requester);
    }
    if (holder.has_value()) {
      record(MsgKind::kPeerFetch, "proxy", client_name(*holder), key);
      std::optional<Document> doc;
      {
        const obs::Span transfer = stage(obs::SpanKind::kPeerTransfer);
        doc = peer_fetch_ ? peer_fetch_(*holder, key, transfer.context())
                          : std::nullopt;
      }
      if (doc.has_value()) {
        record(MsgKind::kPeerDeliver, client_name(*holder), "proxy", key);
        ++stats_.peer_hits;
        counters_.served_peer.inc();
        return {std::move(*doc), FetchOutcome::Source::kRemoteBrowser, false};
      }
      // Stale index entry (or dead peer): no delivery came back.
      ++stats_.false_forwards;
      counters_.false_forwards.inc();
      false_forward = true;
      obs::Registry::global().counter("stale_index_hits_total").inc();
      index_.remove(*holder, key);
    }
  }

  // 3. The origin server. The proxy issues the watermark here — the only
  //    place documents enter the system (§6.1).
  const obs::Span origin_span = stage(obs::SpanKind::kOriginFetch);
  record(MsgKind::kOriginFetch, "proxy", "origin", key);
  std::string body = origin_.fetch(url);
  record(MsgKind::kOriginResponse, "origin", "proxy", key);
  ++stats_.origin_fetches;
  counters_.served_origin.inc();
  Document doc{std::move(body), crypto::Watermark{}};
  {
    const obs::Span sign =
        traced ? tracer_->start_span(obs::SpanKind::kSign,
                                     origin_span.context())
               : obs::Span();
    doc.mark = crypto::issue_watermark(doc.body, keys_.priv);
  }
  proxy_cache_.put(key, doc);
  return {std::move(doc), FetchOutcome::Source::kOrigin, false_forward};
}

}  // namespace baps::runtime
