// Concrete implementations of the five caching organizations (§3.2). Each
// has its own process(const trace::Request&); requests must arrive in trace
// order.
#pragma once

#include <memory>
#include <vector>

#include "index/browser_index.hpp"
#include "index/summary_index.hpp"
#include "index/update_protocol.hpp"
#include "sim/organization.hpp"

namespace baps::sim {

/// 1. proxy-cache-only: no browser caches; every request goes to the proxy.
class ProxyOnlyOrg final : public Organization {
 public:
  ProxyOnlyOrg(const SimConfig& config, std::uint32_t num_clients);
  void process(const trace::Request& r);

 private:
  cache::TieredCache proxy_;
};

/// 2. local-browser-cache-only: private browser caches, no proxy.
class LocalBrowserOnlyOrg final : public Organization {
 public:
  LocalBrowserOnlyOrg(const SimConfig& config, std::uint32_t num_clients);
  void process(const trace::Request& r);

 protected:
  void wipe_client(trace::ClientId client) override;

 private:
  std::vector<cache::TieredCache> browsers_;
};

/// 3. global-browsers-cache-only: browser caches shared through a replicated
/// index, no proxy cache. A browser does NOT cache documents fetched from
/// another browser (§3.2 item 3).
class GlobalBrowsersOnlyOrg final : public Organization {
 public:
  GlobalBrowsersOnlyOrg(const SimConfig& config, std::uint32_t num_clients);
  void process(const trace::Request& r);

 protected:
  /// The index is replicated across all browsers here: every one of them
  /// observes a departure, so the index stays exactly synced (the in-process
  /// invariant check requires it).
  void wipe_client(trace::ClientId client) override;

 private:
  void fill_browser(trace::ClientId client, const trace::Request& r);

  std::vector<cache::TieredCache> browsers_;
  index::BrowserIndex index_;
};

/// 4. proxy-and-local-browser: the conventional hierarchy.
class ProxyAndLocalBrowserOrg final : public Organization {
 public:
  ProxyAndLocalBrowserOrg(const SimConfig& config, std::uint32_t num_clients);
  void process(const trace::Request& r);

 protected:
  void wipe_client(trace::ClientId client) override;

 private:
  void fill_browser(trace::ClientId client, const trace::Request& r);

  std::vector<cache::TieredCache> browsers_;
  cache::TieredCache proxy_;
};

/// 5. browsers-aware-proxy-server: hierarchy + browser index + remote hits.
class BrowsersAwareOrg final : public Organization {
 public:
  BrowsersAwareOrg(const SimConfig& config, std::uint32_t num_clients);
  void process(const trace::Request& r);
  /// End of trace: flushes the index protocol and closes its accounting.
  void finish();

 protected:
  /// A departing browser wipes silently — no invalidation messages reach
  /// the proxy, so its index entries go stale (the §5 failure shape; the
  /// resulting empty probes are counted as false forwards).
  void wipe_client(trace::ClientId client) override;

 private:
  void fill_browser(trace::ClientId client, const trace::Request& r);

  // The index mutation helpers run on every browser insert/evict; the
  // immediate-mode protocol (the paper's default and the replay hot path)
  // is fast-pathed through a concrete pointer so the call inlines instead
  // of going through the UpdateProtocol vtable.
  void index_insert(trace::ClientId client, trace::DocId doc) {
    if (immediate_ != nullptr) {
      immediate_->on_cache_insert(client, doc);
    } else if (protocol_) {
      protocol_->on_cache_insert(client, doc);
    } else {
      summary_index_->add(client, doc);
      ++summary_messages_;
    }
  }

  void index_remove(trace::ClientId client, trace::DocId doc) {
    if (immediate_ != nullptr) {
      immediate_->on_cache_remove(client, doc);
    } else if (protocol_) {
      protocol_->on_cache_remove(client, doc);
    } else {
      summary_index_->remove(client, doc);
      ++summary_messages_;
    }
  }

  /// The index's best candidate holder for `doc`, or nullopt.
  std::optional<trace::ClientId> index_lookup(trace::DocId doc,
                                              trace::ClientId requester) const;

  std::vector<cache::TieredCache> browsers_;
  cache::TieredCache proxy_;
  // Exactly one of the two indexes is active, per config_.index_kind.
  std::unique_ptr<index::BrowserIndex> exact_index_;
  std::unique_ptr<index::UpdateProtocol> protocol_;  // exact mode only
  index::ImmediateUpdateProtocol* immediate_ = nullptr;  // == protocol_.get()
  std::unique_ptr<index::SummaryIndex> summary_index_;
  std::uint64_t summary_messages_ = 0;
};

}  // namespace baps::sim
