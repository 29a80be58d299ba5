// High-level experiment runner: the public API a downstream user drives.
//
// Wraps trace loading, §3.2 cache sizing, the five organizations, and the
// parameter sweeps behind a few calls; every figure-level bench binary and
// example is written against this header.
//
// Parallelism: sweeps fan out one simulation per (organization, cache size)
// or per client fraction onto a fixed thread pool. Each simulation owns all
// of its mutable state; the trace is shared immutably (CP.31: pass by
// reference only into joined tasks).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "sim/organization.hpp"
#include "trace/record.hpp"
#include "trace/stats.hpp"
#include "util/thread_pool.hpp"

namespace baps::core {

using sim::Metrics;
using sim::OrgKind;

/// Invoked after each completed sweep task with (done, total). Called under
/// the sweep's result lock, so keep it cheap (print a line, bump a bar).
using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;

/// §3.2 browser-cache sizing rules.
enum class BrowserSizing {
  kMinimum,  ///< C_proxy / (10 N) per client (Figures 2–3)
  kAverage,  ///< relative_size × average infinite browser size (Figures 4–7)
};

/// One experiment point: everything but the organization and the trace.
struct RunSpec {
  /// Proxy cache = relative_cache_size × infinite proxy cache size; with
  /// kAverage sizing, browser caches scale by the same fraction.
  double relative_cache_size = 0.1;
  BrowserSizing sizing = BrowserSizing::kMinimum;

  cache::PolicyKind policy = cache::PolicyKind::kLru;
  double memory_fraction = 0.1;
  sim::IndexMode index_mode = sim::IndexMode::kImmediate;
  double index_threshold = 0.1;
  sim::IndexKind index_kind = sim::IndexKind::kExact;
  std::uint64_t bloom_expected_docs_per_client = 4096;
  double bloom_target_fp = 0.001;
  bool relay_via_proxy = false;
  net::LanParams lan{};
  sim::LatencyParams latency{};

  /// Client churn (§5 spirit): per-request probability of a churn event and
  /// the seed of its stream. 0 disables churn (bit-identical replay).
  double churn_rate = 0.0;
  std::uint64_t churn_seed = 0;
};

/// Materializes a SimConfig from a spec and the trace's statistics.
sim::SimConfig build_config(const trace::TraceStats& stats,
                            const RunSpec& spec);

/// Runs one organization over the trace. Publishes per-run observability to
/// the global registry: wall time into `runner_run_seconds{org}` and the
/// resulting request counts into `sim_requests_total{org}` /
/// `sim_hits_total{org,location}` / `sim_misses_total{org}`.
Metrics run_one(OrgKind kind, const trace::Trace& trace,
                const trace::TraceStats& stats, const RunSpec& spec);

// ---------------------------------------------------------------------------
// Cache-size sweeps (Figures 2, 4, 5, 6, 7).

struct CacheSizePoint {
  double relative_cache_size = 0.0;
  std::map<OrgKind, Metrics> by_org;
};

/// Runs `orgs` × `relative_sizes` in parallel on `pool` (sequentially when
/// pool is null). The spec's relative_cache_size is overridden per point.
std::vector<CacheSizePoint> sweep_cache_sizes(
    const trace::Trace& trace, const std::vector<double>& relative_sizes,
    const std::vector<OrgKind>& orgs, const RunSpec& spec,
    ThreadPool* pool = nullptr, ProgressFn progress = nullptr);

// ---------------------------------------------------------------------------
// Client-count scaling (Figure 8).

struct ClientScalingPoint {
  double client_fraction = 0.0;
  std::uint32_t num_clients = 0;
  Metrics browsers_aware;
  Metrics proxy_and_local;
  /// (BAPS − P+LB) / P+LB, in percent — the paper's increment metric.
  double hit_ratio_increment_pct = 0.0;
  double byte_hit_ratio_increment_pct = 0.0;
};

/// For each fraction, restricts the trace to the first fraction of clients
/// and compares BAPS against proxy-and-local-browser. Per the paper, the
/// proxy cache size is FIXED at spec.relative_cache_size × the infinite
/// cache size of the FULL trace, regardless of the client subset.
std::vector<ClientScalingPoint> client_scaling_sweep(
    const trace::Trace& trace, const std::vector<double>& client_fractions,
    const RunSpec& spec, ThreadPool* pool = nullptr,
    ProgressFn progress = nullptr);

}  // namespace baps::core
