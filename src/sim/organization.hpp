// The state and accounting the five web caching organizations of §3.2
// share. Each concrete organization (orgs.hpp) consumes a trace
// request-by-request through its own process(), maintains whatever
// caches/indexes its scheme prescribes, and accumulates Metrics;
// run_organization() picks the concrete type once per trace. All five share
// the §3.2 ground rules:
//   * replacement policy per SimConfig (the paper: LRU);
//   * a hit on a document whose size has changed counts as a miss and the
//     stale copy is discarded;
//   * caches are two-tier (RAM/disk) for §4.2's memory accounting.
//
// Latency/overhead accounting (§4.2, §5):
//   * local browser hit: tiered cache read;
//   * proxy hit: tiered read at the proxy + an uncontended LAN delivery to
//     the client;
//   * remote browser hit: tiered read at the peer + a *shared-bus* LAN
//     transfer (one hop direct, two hops when relayed via the proxy) — only
//     these transfers contend, matching the paper's overhead definition;
//   * miss: WAN origin fetch.
#pragma once

#include <memory>
#include <optional>

#include "cache/tiered_cache.hpp"
#include "fault/churn.hpp"
#include "net/lan_model.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "trace/record.hpp"
#include "util/assert.hpp"

namespace baps::sim {

class Organization {
 public:
  virtual ~Organization() = default;

  /// One churn decision per request, called by the driver BEFORE process().
  /// With churn disabled (config.churn_rate == 0) this is a null check and
  /// nothing else — the zero-churn replay stays bit-identical.
  void churn_step(const trace::Request& r) {
    if (churn_) churn_step_slow(r);
  }

  const Metrics& metrics() const { return metrics_; }

 protected:
  Organization(const SimConfig& config, std::uint32_t num_clients);

  /// Looks up `r.doc` in `cache` applying the size-change rule: a cached
  /// copy at a different size is erased and reported as a miss
  /// (metrics_.size_change_misses incremented). `on_stale_erase` fires when
  /// that happens, so index-maintaining organizations can propagate the
  /// removal. A template so call-site lambdas inline instead of constructing
  /// a std::function per request.
  template <typename OnStale>
  std::optional<cache::TieredLookup> lookup_current(cache::TieredCache& cache,
                                                    const trace::Request& r,
                                                    OnStale&& on_stale_erase) {
    const cache::TieredProbe probe = cache.touch_expected(r.doc, r.size);
    if (probe.outcome == cache::LookupOutcome::kMiss) return std::nullopt;
    if (probe.outcome == cache::LookupOutcome::kStale) {
      // §3.2: a hit on a size-changed document is a miss; drop the stale
      // copy.
      cache.erase(r.doc);
      ++metrics_.size_change_misses;
      on_stale_erase(r.doc);
      return std::nullopt;
    }
    return cache::TieredLookup{r.size, probe.tier};
  }
  std::optional<cache::TieredLookup> lookup_current(cache::TieredCache& cache,
                                                    const trace::Request& r) {
    return lookup_current(cache, r, [](trace::DocId) {});
  }

  // The record_* helpers run once per request; defined here so the org
  // process() loops in orgs.cpp inline them instead of calling across TUs.

  void record_local_browser_hit(const trace::Request& r,
                                cache::HitTier tier) {
    metrics_.hits.hit();
    metrics_.byte_hits.hit(r.size);
    ++metrics_.local_browser_hits;
    metrics_.local_browser_hit_bytes += r.size;
    count_memory_bytes(r, tier);
    const double t = latency_.cache_read(r.size, tier);
    metrics_.total_service_time_s += t;
    metrics_.total_hit_latency_s += t;
    metrics_.observe_latency(t);
  }

  void record_proxy_hit(const trace::Request& r, cache::HitTier tier) {
    metrics_.hits.hit();
    metrics_.byte_hits.hit(r.size);
    ++metrics_.proxy_hits;
    metrics_.proxy_hit_bytes += r.size;
    count_memory_bytes(r, tier);
    // Proxy→client delivery rides the LAN but is not part of the paper's
    // remote-browser overhead; it is uncontended here.
    const double t =
        latency_.cache_read(r.size, tier) + lan_.transfer_time(r.size);
    metrics_.total_service_time_s += t;
    metrics_.total_hit_latency_s += t;
    metrics_.observe_latency(t);
  }

  /// hops: 1 for direct client→client forwarding, 2 for proxy relay.
  void record_remote_browser_hit(const trace::Request& r, cache::HitTier tier,
                                 int hops) {
    BAPS_REQUIRE(hops == 1 || hops == 2,
                 "remote hits take one or two LAN hops");
    metrics_.hits.hit();
    metrics_.byte_hits.hit(r.size);
    ++metrics_.remote_browser_hits;
    metrics_.remote_browser_hit_bytes += r.size;
    count_memory_bytes(r, tier);
    double t = latency_.cache_read(r.size, tier);
    for (int h = 0; h < hops; ++h) {
      const net::TransferResult x = lan_.transfer(r.timestamp, r.size);
      metrics_.remote_transfer_time_s += x.transfer_s;
      metrics_.remote_contention_time_s += x.wait_s;
      metrics_.remote_transfer_bytes += r.size;
      t += x.transfer_s + x.wait_s;
    }
    metrics_.total_service_time_s += t;
    metrics_.total_hit_latency_s += t;
    metrics_.observe_latency(t);
  }

  void record_miss(const trace::Request& r) {
    metrics_.hits.miss();
    metrics_.byte_hits.miss(r.size);
    ++metrics_.misses;
    metrics_.miss_bytes += r.size;
    const double t = latency_.origin_fetch(r.size);
    metrics_.total_service_time_s += t;
    metrics_.observe_latency(t);
  }

  void count_memory_bytes(const trace::Request& r, cache::HitTier tier) {
    if (tier == cache::HitTier::kMemory) {
      metrics_.memory_hit_bytes += r.size;
    } else {
      metrics_.disk_hit_bytes += r.size;
    }
  }

  /// A churned client's browser cache empties. Each organization decides
  /// what its directory structures learn about it: the replicated index of
  /// organization 3 stays synced (every browser sees every departure), the
  /// browsers-aware proxy of organization 5 is left with stale entries —
  /// the §5 failure shape the false-forward counter measures.
  virtual void wipe_client(trace::ClientId client) { (void)client; }

  /// True when clients churn. Churn-gated behavior (e.g. stale-index
  /// invalidation on a disproved probe) keys off this.
  bool churn_active() const { return churn_ != nullptr; }

  SimConfig config_;
  std::uint32_t num_clients_;
  LatencyModel latency_;
  net::LanModel lan_;
  Metrics metrics_;
  std::unique_ptr<fault::ChurnModel> churn_;  ///< null when churn is off

 private:
  void churn_step_slow(const trace::Request& r);
};

/// Convenience: run a whole trace through a fresh organization.
Metrics run_organization(OrgKind kind, const SimConfig& config,
                         const trace::Trace& trace);

}  // namespace baps::sim
