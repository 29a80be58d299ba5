#include "sim/ttl_study.hpp"

#include "util/assert.hpp"

namespace baps::sim {
namespace {

/// One TTL-enforcing cache layer plus its bookkeeping. A browser layer of
/// the browsers-aware study also keeps its entries in `index` exact: every
/// copy it gains, replaces or expires is added to or removed from it.
class TtlLayer {
 public:
  TtlLayer(std::uint64_t capacity, cache::PolicyKind policy, double ttl,
           TtlStudyMetrics& metrics, index::BrowserIndex* index = nullptr,
           trace::ClientId client = 0)
      : cache_(capacity, policy),
        ttl_(ttl),
        metrics_(metrics),
        index_(index),
        client_(client) {}

  /// Serves whatever copy is cached and unexpired — stale or not. Returns
  /// the cached size.
  std::optional<std::uint64_t> lookup(const trace::Request& r) {
    return cache_.touch(r.doc, r.timestamp, [this](trace::DocId doc) {
      unlist(doc);
      ++metrics_.expirations;
    });
  }

  void fill(const trace::Request& r) {
    cache_.erase(r.doc);  // replace any expired-or-stale leftover record
    const double expires_at =
        ttl_ == cache::ExpiringCache::kNeverExpires
            ? cache::ExpiringCache::kNeverExpires
            : r.timestamp + ttl_;
    const bool cached =
        cache_.insert(r.doc, r.size, expires_at,
                      [this](trace::DocId doc, std::uint64_t) { unlist(doc); });
    if (cached && index_ != nullptr) index_->add(client_, r.doc);
  }

 private:
  void unlist(trace::DocId doc) {
    if (index_ != nullptr) index_->remove(client_, doc);
  }

  cache::ExpiringCache cache_;
  double ttl_;
  TtlStudyMetrics& metrics_;
  index::BrowserIndex* index_;  ///< null: proxy layer, or no browser index
  trace::ClientId client_;
};

}  // namespace

TtlStudyMetrics run_ttl_study(const TtlStudyConfig& config,
                              const trace::Trace& trace) {
  BAPS_REQUIRE(config.browser_cache_bytes.size() == trace.num_clients(),
               "need one browser cache size per client");
  BAPS_REQUIRE(config.ttl_seconds > 0.0, "ttl must be positive");
  TtlStudyMetrics metrics;

  index::BrowserIndex index(trace.num_clients());
  index::BrowserIndex* const listed = config.browsers_aware ? &index : nullptr;
  TtlLayer proxy(config.proxy_cache_bytes, config.policy, config.ttl_seconds,
                 metrics);
  std::vector<TtlLayer> browsers;
  browsers.reserve(trace.num_clients());
  for (std::uint32_t c = 0; c < trace.num_clients(); ++c) {
    browsers.emplace_back(config.browser_cache_bytes[c], config.policy,
                          config.ttl_seconds, metrics, listed, c);
  }

  const auto record_hit = [&](const trace::Request& r,
                              std::uint64_t served_size, bool remote) {
    metrics.hits.hit();
    if (remote) ++metrics.remote_hits;
    if (served_size == r.size) {
      ++metrics.fresh_hits;
    } else {
      ++metrics.stale_hits;
      if (remote) ++metrics.stale_remote_hits;
    }
  };

  for (const trace::Request& r : trace.requests()) {
    TtlLayer& browser = browsers[r.client];
    // No oracle anywhere: whatever unexpired copy exists gets served.
    if (const auto size = browser.lookup(r)) {
      record_hit(r, *size, /*remote=*/false);
      continue;
    }
    if (const auto size = proxy.lookup(r)) {
      record_hit(r, *size, /*remote=*/false);
      browser.fill(trace::Request{r.timestamp, r.client, r.doc, *size});
      continue;
    }
    if (config.browsers_aware) {
      if (const auto holder = index.find_holder(r.doc, r.client)) {
        if (const auto size = browsers[*holder].lookup(r)) {
          record_hit(r, *size, /*remote=*/true);
          browser.fill(trace::Request{r.timestamp, r.client, r.doc, *size});
          continue;
        }
        index.remove(*holder, r.doc);  // expired under us: repair the index
      }
    }
    // Origin fetch: always fresh, fills proxy + browser.
    metrics.hits.miss();
    proxy.fill(r);
    browser.fill(r);
  }
  return metrics;
}

}  // namespace baps::sim
