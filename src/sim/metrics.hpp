// Simulation metrics: everything the paper's figures and overhead tables
// report, gathered in one result struct.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/stats.hpp"

namespace baps::sim {

/// Where a request was served from.
enum class HitLocation { kLocalBrowser, kProxy, kRemoteBrowser, kMiss };

struct Metrics {
  // --- headline ratios (Figures 2, 4–7) ---------------------------------
  baps::RatioCounter hits;        ///< request-weighted
  baps::RatioCounter byte_hits;   ///< byte-weighted

  // --- hit-location breakdowns (Figure 3) -------------------------------
  std::uint64_t local_browser_hits = 0;
  std::uint64_t proxy_hits = 0;
  std::uint64_t remote_browser_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t local_browser_hit_bytes = 0;
  std::uint64_t proxy_hit_bytes = 0;
  std::uint64_t remote_browser_hit_bytes = 0;
  std::uint64_t miss_bytes = 0;

  // --- memory-tier accounting (§4.2) -------------------------------------
  std::uint64_t memory_hit_bytes = 0;  ///< hit bytes served from RAM tiers
  std::uint64_t disk_hit_bytes = 0;    ///< hit bytes served from disk tiers

  // --- size-change misses (§3.2 rule) ------------------------------------
  std::uint64_t size_change_misses = 0;

  // --- overheads (§5) -----------------------------------------------------
  double remote_transfer_time_s = 0.0;   ///< LAN time for remote-browser hits
  double remote_contention_time_s = 0.0; ///< bus waiting for those transfers
  std::uint64_t remote_transfer_bytes = 0;
  std::uint64_t index_messages = 0;      ///< browser→proxy index traffic
  std::uint64_t false_forwards = 0;      ///< index said yes, browser said no
  std::uint64_t stale_remote_probes = 0; ///< remote copy had changed size

  // --- client churn (§5 spirit) -------------------------------------------
  std::uint64_t churn_departures = 0;  ///< clients that left mid-trace
  std::uint64_t churn_rejoins = 0;     ///< departed clients that came back
  std::uint64_t churn_wiped_docs = 0;  ///< browser docs lost to departures

  // --- service time (denominator for §5's "portion of total workload
  //     service time") ----------------------------------------------------
  double total_service_time_s = 0.0;
  double total_hit_latency_s = 0.0;  ///< service time excluding miss fetches

  /// Per-request service-time distribution, log10-seconds over [1 µs, 1000 s)
  /// — spans memory reads through WAN fetches of tail documents.
  baps::Histogram log_latency{-6.0, 3.0, 90};

  void observe_latency(double seconds) {
    // Sub-µs samples land in the histogram's explicit underflow bucket (the
    // domain floor is 1 µs = log10 −6); the clamp only keeps log10 finite
    // for nonpositive inputs, it no longer drops samples below the first
    // bucket.
    log_latency.add(std::log10(std::max(seconds, 1e-300)));
  }
  /// Request-latency quantile in seconds (bucket resolution). Well-defined
  /// at the edges: under/overflow mass resolves to the domain bounds, so the
  /// result is always within [1 µs, 1000 s].
  double latency_quantile(double q) const {
    return std::pow(10.0, log_latency.quantile(q));
  }

  // Derived helpers ---------------------------------------------------------
  double hit_ratio() const { return hits.ratio(); }
  double byte_hit_ratio() const { return byte_hits.ratio(); }

  /// Fraction of hit *bytes* served from memory tiers, normalized by total
  /// requested bytes (the paper's "memory byte hit ratio").
  double memory_byte_hit_ratio() const {
    const auto total = byte_hits.total();
    return total ? static_cast<double>(memory_hit_bytes) /
                       static_cast<double>(total)
                 : 0.0;
  }

  double remote_overhead_fraction() const {
    return total_service_time_s > 0.0
               ? (remote_transfer_time_s + remote_contention_time_s) /
                     total_service_time_s
               : 0.0;
  }

  double contention_fraction_of_comm() const {
    const double comm = remote_transfer_time_s + remote_contention_time_s;
    return comm > 0.0 ? remote_contention_time_s / comm : 0.0;
  }
};

/// Exact comparison down to the floating-point bit patterns (`==` would
/// conflate +0.0/-0.0 and choke on NaN; a determinism contract is about the
/// bits). This is the check behind the parallel-vs-sequential sweep test and
/// perfbench's replay cross-check.
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

inline bool bit_identical(const Metrics& a, const Metrics& b) {
  return a.hits.hits() == b.hits.hits() && a.hits.total() == b.hits.total() &&
         a.byte_hits.hits() == b.byte_hits.hits() &&
         a.byte_hits.total() == b.byte_hits.total() &&
         a.local_browser_hits == b.local_browser_hits &&
         a.proxy_hits == b.proxy_hits &&
         a.remote_browser_hits == b.remote_browser_hits &&
         a.misses == b.misses &&
         a.local_browser_hit_bytes == b.local_browser_hit_bytes &&
         a.proxy_hit_bytes == b.proxy_hit_bytes &&
         a.remote_browser_hit_bytes == b.remote_browser_hit_bytes &&
         a.miss_bytes == b.miss_bytes &&
         a.memory_hit_bytes == b.memory_hit_bytes &&
         a.disk_hit_bytes == b.disk_hit_bytes &&
         a.size_change_misses == b.size_change_misses &&
         a.remote_transfer_bytes == b.remote_transfer_bytes &&
         a.index_messages == b.index_messages &&
         a.false_forwards == b.false_forwards &&
         a.stale_remote_probes == b.stale_remote_probes &&
         a.churn_departures == b.churn_departures &&
         a.churn_rejoins == b.churn_rejoins &&
         a.churn_wiped_docs == b.churn_wiped_docs &&
         same_bits(a.remote_transfer_time_s, b.remote_transfer_time_s) &&
         same_bits(a.remote_contention_time_s, b.remote_contention_time_s) &&
         same_bits(a.total_service_time_s, b.total_service_time_s) &&
         same_bits(a.total_hit_latency_s, b.total_hit_latency_s) &&
         a.log_latency.buckets() == b.log_latency.buckets() &&
         a.log_latency.underflow() == b.log_latency.underflow() &&
         a.log_latency.overflow() == b.log_latency.overflow() &&
         a.log_latency.count() == b.log_latency.count();
}

}  // namespace baps::sim
