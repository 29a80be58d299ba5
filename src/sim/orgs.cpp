#include "sim/orgs.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"

namespace baps::sim {
namespace {

std::vector<cache::TieredCache> make_browsers(const SimConfig& config,
                                              std::uint32_t num_clients) {
  BAPS_REQUIRE(config.browser_cache_bytes.size() == num_clients,
               "need one browser cache size per client");
  std::vector<cache::TieredCache> browsers;
  browsers.reserve(num_clients);
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    browsers.emplace_back(config.browser_cache_bytes[c],
                          config.memory_fraction, config.policy);
    if (c < config.client_distinct_docs.size()) {
      browsers.back().reserve(config.client_distinct_docs[c]);
    }
  }
  return browsers;
}

/// Empties one browser cache for a churn departure: `fn(doc)` runs before
/// each erase so callers can propagate the removal to their directory
/// structures (or not — a silent wipe is the stale-index failure shape).
/// Docs are wiped in sorted order for cross-run determinism; erase()
/// notifies nobody, so nothing else observes the wipe.
template <typename PerDoc>
std::uint64_t wipe_browser(cache::TieredCache& browser, PerDoc&& fn) {
  std::vector<trace::DocId> docs;
  docs.reserve(browser.count());
  browser.full().for_each(
      [&docs](trace::DocId doc, std::uint64_t) { docs.push_back(doc); });
  std::sort(docs.begin(), docs.end());
  for (const trace::DocId doc : docs) {
    fn(doc);
    browser.erase(doc);
  }
  return docs.size();
}

}  // namespace

// ---------------------------------------------------------------------------
// 1. proxy-cache-only

ProxyOnlyOrg::ProxyOnlyOrg(const SimConfig& config, std::uint32_t num_clients)
    : Organization(config, num_clients),
      proxy_(config.proxy_cache_bytes, config.memory_fraction, config.policy) {
  proxy_.reserve(config.distinct_docs);
}

void ProxyOnlyOrg::process(const trace::Request& r) {
  if (const auto hit = lookup_current(proxy_, r)) {
    record_proxy_hit(r, hit->tier);
    return;
  }
  record_miss(r);
  proxy_.insert(r.doc, r.size);
}

// ---------------------------------------------------------------------------
// 2. local-browser-cache-only

LocalBrowserOnlyOrg::LocalBrowserOnlyOrg(const SimConfig& config,
                                         std::uint32_t num_clients)
    : Organization(config, num_clients),
      browsers_(make_browsers(config, num_clients)) {}

void LocalBrowserOnlyOrg::wipe_client(trace::ClientId client) {
  metrics_.churn_wiped_docs +=
      wipe_browser(browsers_[client], [](trace::DocId) {});
}

void LocalBrowserOnlyOrg::process(const trace::Request& r) {
  cache::TieredCache& browser = browsers_[r.client];
  if (const auto hit = lookup_current(browser, r)) {
    record_local_browser_hit(r, hit->tier);
    return;
  }
  record_miss(r);
  browser.insert(r.doc, r.size);
}

// ---------------------------------------------------------------------------
// 3. global-browsers-cache-only

GlobalBrowsersOnlyOrg::GlobalBrowsersOnlyOrg(const SimConfig& config,
                                             std::uint32_t num_clients)
    : Organization(config, num_clients),
      browsers_(make_browsers(config, num_clients)),
      index_(num_clients, config.doc_universe, config.client_distinct_docs) {}

void GlobalBrowsersOnlyOrg::fill_browser(trace::ClientId client,
                                         const trace::Request& r) {
  // Replaced documents leave the index before the new one joins it.
  const auto evicted = [this, client](trace::DocId doc, std::uint64_t) {
    index_.remove(client, doc);
  };
  if (browsers_[client].insert(r.doc, r.size, evicted)) {
    index_.add(client, r.doc);
  }
}

void GlobalBrowsersOnlyOrg::wipe_client(trace::ClientId client) {
  metrics_.churn_wiped_docs += wipe_browser(
      browsers_[client],
      [this, client](trace::DocId doc) { index_.remove(client, doc); });
}

void GlobalBrowsersOnlyOrg::process(const trace::Request& r) {
  cache::TieredCache& browser = browsers_[r.client];
  const auto on_stale = [this, &r](trace::DocId doc) {
    index_.remove(r.client, doc);
  };
  if (const auto hit = lookup_current(browser, r, on_stale)) {
    record_local_browser_hit(r, hit->tier);
    return;
  }
  // Replicated index lookup: one remote probe, direct client→client forward.
  if (const auto holder = index_.find_holder(r.doc, r.client)) {
    cache::TieredCache& remote = browsers_[*holder];
    const auto probe = remote.touch_expected(r.doc, r.size);
    BAPS_ENSURE(probe.outcome != cache::LookupOutcome::kMiss,
                "immediate index out of sync with browser cache");
    if (probe.outcome == cache::LookupOutcome::kHit) {
      record_remote_browser_hit(r, probe.tier, /*hops=*/1);
      // §3.2 item 3: the requester does NOT cache a document fetched from
      // another browser in this organization.
      return;
    }
    ++metrics_.stale_remote_probes;
  }
  record_miss(r);
  fill_browser(r.client, r);
}

// ---------------------------------------------------------------------------
// 4. proxy-and-local-browser

ProxyAndLocalBrowserOrg::ProxyAndLocalBrowserOrg(const SimConfig& config,
                                                 std::uint32_t num_clients)
    : Organization(config, num_clients),
      browsers_(make_browsers(config, num_clients)),
      proxy_(config.proxy_cache_bytes, config.memory_fraction, config.policy) {
  proxy_.reserve(config.distinct_docs);
}

void ProxyAndLocalBrowserOrg::fill_browser(trace::ClientId client,
                                           const trace::Request& r) {
  browsers_[client].insert(r.doc, r.size);
}

void ProxyAndLocalBrowserOrg::wipe_client(trace::ClientId client) {
  metrics_.churn_wiped_docs +=
      wipe_browser(browsers_[client], [](trace::DocId) {});
}

void ProxyAndLocalBrowserOrg::process(const trace::Request& r) {
  cache::TieredCache& browser = browsers_[r.client];
  if (const auto hit = lookup_current(browser, r)) {
    record_local_browser_hit(r, hit->tier);
    return;
  }
  if (const auto hit = lookup_current(proxy_, r)) {
    record_proxy_hit(r, hit->tier);
    fill_browser(r.client, r);  // the document passes through the browser
    return;
  }
  record_miss(r);
  proxy_.insert(r.doc, r.size);
  fill_browser(r.client, r);
}

// ---------------------------------------------------------------------------
// 5. browsers-aware-proxy-server

BrowsersAwareOrg::BrowsersAwareOrg(const SimConfig& config,
                                   std::uint32_t num_clients)
    : Organization(config, num_clients),
      browsers_(make_browsers(config, num_clients)),
      proxy_(config.proxy_cache_bytes, config.memory_fraction,
             config.policy) {
  proxy_.reserve(config.distinct_docs);
  if (config.index_kind == IndexKind::kExact) {
    exact_index_ = std::make_unique<index::BrowserIndex>(
        num_clients, config.doc_universe, config.client_distinct_docs);
    if (config.index_mode == IndexMode::kImmediate) {
      auto immediate =
          std::make_unique<index::ImmediateUpdateProtocol>(*exact_index_);
      immediate_ = immediate.get();
      protocol_ = std::move(immediate);
    } else {
      protocol_ = std::make_unique<index::PeriodicUpdateProtocol>(
          *exact_index_, num_clients, config.index_threshold);
    }
  } else {
    summary_index_ = std::make_unique<index::SummaryIndex>(
        num_clients, config.bloom_expected_docs_per_client,
        config.bloom_target_fp);
  }
}

std::optional<trace::ClientId> BrowsersAwareOrg::index_lookup(
    trace::DocId doc, trace::ClientId requester) const {
  if (exact_index_) return exact_index_->find_holder(doc, requester);
  return summary_index_->find_candidate(doc, requester);
}

void BrowsersAwareOrg::fill_browser(trace::ClientId client,
                                    const trace::Request& r) {
  // Each replacement is the paper's invalidation message (§2), sent before
  // the new document's addition.
  const auto evicted = [this, client](trace::DocId doc, std::uint64_t) {
    index_remove(client, doc);
  };
  if (browsers_[client].insert(r.doc, r.size, evicted)) {
    index_insert(client, r.doc);
  }
}

void BrowsersAwareOrg::wipe_client(trace::ClientId client) {
  // Silent wipe: no index_remove calls, so the proxy's view of this client
  // goes stale — its entries are discovered (and counted as false forwards)
  // only when the next lookup probes the empty browser.
  metrics_.churn_wiped_docs +=
      wipe_browser(browsers_[client], [](trace::DocId) {});
}

void BrowsersAwareOrg::process(const trace::Request& r) {
  cache::TieredCache& browser = browsers_[r.client];
  const auto on_stale = [this, &r](trace::DocId doc) {
    index_remove(r.client, doc);
  };
  if (const auto hit = lookup_current(browser, r, on_stale)) {
    record_local_browser_hit(r, hit->tier);
    return;
  }
  if (const auto hit = lookup_current(proxy_, r)) {
    record_proxy_hit(r, hit->tier);
    fill_browser(r.client, r);
    return;
  }
  // Proxy and local caches missed: consult the browser index (§2).
  if (const auto holder = index_lookup(r.doc, r.client)) {
    cache::TieredCache& remote = browsers_[*holder];
    const auto probe = remote.touch_expected(r.doc, r.size);
    if (probe.outcome == cache::LookupOutcome::kMiss) {
      // Stale index entry (periodic mode, or a churn departure) or Bloom
      // false positive: the probe comes back empty.
      ++metrics_.false_forwards;
      // Under churn the proxy invalidates the entry it just disproved —
      // otherwise a departed client's stale entries cost a false forward on
      // every future lookup. Gated on churn so the zero-churn replay stays
      // bit-identical (immediate mode never reaches here without churn).
      if (churn_active() && exact_index_) exact_index_->remove(*holder, r.doc);
    } else if (probe.outcome == cache::LookupOutcome::kHit) {
      const int hops = config_.relay_via_proxy ? 2 : 1;
      record_remote_browser_hit(r, probe.tier, hops);
      fill_browser(r.client, r);  // the requester's browser keeps a copy
      return;
    } else {
      ++metrics_.stale_remote_probes;
    }
  }
  record_miss(r);
  proxy_.insert(r.doc, r.size);
  fill_browser(r.client, r);
}

void BrowsersAwareOrg::finish() {
  if (protocol_) {
    protocol_->flush_all();
    metrics_.index_messages = protocol_->messages_sent();
  } else {
    metrics_.index_messages = summary_messages_;
  }
}

// ---------------------------------------------------------------------------

namespace {

// One kind dispatch per trace: the per-request process() call is on the
// concrete type, so it inlines into the replay loop. Only BrowsersAwareOrg
// has end-of-trace work.
template <typename Org>
Metrics run_concrete(const SimConfig& config, const trace::Trace& trace) {
  Org org(config, trace.num_clients());
  for (const trace::Request& r : trace.requests()) {
    org.churn_step(r);  // inlines to a null check when churn is off
    org.process(r);
  }
  if constexpr (requires { org.finish(); }) org.finish();
  return org.metrics();
}

}  // namespace

Metrics run_organization(OrgKind kind, const SimConfig& config,
                         const trace::Trace& trace) {
  switch (kind) {
    case OrgKind::kProxyOnly:
      return run_concrete<ProxyOnlyOrg>(config, trace);
    case OrgKind::kLocalBrowserOnly:
      return run_concrete<LocalBrowserOnlyOrg>(config, trace);
    case OrgKind::kGlobalBrowsersOnly:
      return run_concrete<GlobalBrowsersOnlyOrg>(config, trace);
    case OrgKind::kProxyAndLocalBrowser:
      return run_concrete<ProxyAndLocalBrowserOrg>(config, trace);
    case OrgKind::kBrowsersAware:
      return run_concrete<BrowsersAwareOrg>(config, trace);
  }
  BAPS_REQUIRE(false, "unknown organization kind");
  return {};
}

}  // namespace baps::sim
