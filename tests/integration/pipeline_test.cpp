// Cross-module integration tests: full pipelines from workload generation
// through simulation to metrics, analytic cross-checks between independent
// code paths, and end-to-end determinism.
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "runtime/system.hpp"
#include "trace/analysis.hpp"

namespace baps {
namespace {

using core::OrgKind;

const trace::Trace& shared_trace() {
  static const trace::Trace t =
      trace::load_preset_scaled(trace::Preset::kNlanrBo1, 0.1);
  return t;
}

TEST(PipelineTest, InfiniteCachesReachTheTraceStatsBound) {
  // Independent cross-check: a proxy-only organization with an infinite
  // cache must measure exactly the max hit ratio TraceStats computes — two
  // completely separate implementations of the same quantity.
  const trace::TraceStats stats = trace::compute_stats(shared_trace());
  sim::SimConfig cfg;
  cfg.proxy_cache_bytes = stats.total_bytes + 1;  // effectively infinite
  const sim::Metrics m =
      sim::run_organization(OrgKind::kProxyOnly, cfg, shared_trace());
  EXPECT_DOUBLE_EQ(m.hit_ratio(), stats.max_hit_ratio);
  EXPECT_DOUBLE_EQ(m.byte_hit_ratio(), stats.max_byte_hit_ratio);
}

TEST(PipelineTest, InfiniteBrowsersAwareAlsoReachesTheBound) {
  // With infinite browser caches AND an infinite proxy, BAPS can do no
  // better than the re-reference bound — and no worse.
  const trace::TraceStats stats = trace::compute_stats(shared_trace());
  sim::SimConfig cfg;
  cfg.proxy_cache_bytes = stats.total_bytes + 1;
  cfg.browser_cache_bytes.assign(stats.num_clients, stats.total_bytes + 1);
  const sim::Metrics m =
      sim::run_organization(OrgKind::kBrowsersAware, cfg, shared_trace());
  EXPECT_DOUBLE_EQ(m.hit_ratio(), stats.max_hit_ratio);
}

TEST(PipelineTest, NoOrganizationExceedsTheReReferenceBound) {
  const trace::TraceStats stats = trace::compute_stats(shared_trace());
  core::RunSpec spec;
  spec.relative_cache_size = 0.20;
  spec.sizing = core::BrowserSizing::kAverage;
  for (const OrgKind kind : sim::kAllOrganizations) {
    const sim::Metrics m =
        core::run_one(kind, shared_trace(), stats, spec);
    EXPECT_LE(m.hit_ratio(), stats.max_hit_ratio + 1e-12)
        << sim::org_name(kind);
    EXPECT_LE(m.byte_hit_ratio(), stats.max_byte_hit_ratio + 1e-12)
        << sim::org_name(kind);
  }
}

TEST(PipelineTest, SimulationIsFullyDeterministic) {
  // Byte-identical metrics on every rerun, also while a time-series sampler
  // ticks on the global registry, as in bench_replay --ts-interval.
  const trace::TraceStats stats = trace::compute_stats(shared_trace());
  core::RunSpec spec;
  spec.relative_cache_size = 0.05;
  const auto run = [&] {
    return obs::metrics_to_json(core::run_one(OrgKind::kBrowsersAware,
                                              shared_trace(), stats, spec))
        .dump();
  };
  const std::string first = run();
  obs::TimeSeriesSampler sampler({/*interval_seconds=*/0.002});
  sampler.start();
  for (int i = 0; i < 1000 && sampler.intervals_captured() < 4; ++i) {
    ASSERT_EQ(run(), first) << "rerun " << i;
  }
  EXPECT_GE(sampler.intervals_captured(), 4u);
}

TEST(PipelineTest, TraceExportReimportPreservesSimulationResults) {
  // generator → plain-log writer → parser → simulator must agree with the
  // direct path (URL interning preserves document identity).
  std::stringstream buf;
  trace::write_plain_log(shared_trace(), buf);
  const trace::ParseResult parsed = trace::parse_plain_log(buf, "reimport");
  ASSERT_EQ(parsed.trace.size(), shared_trace().size());

  // Pin identical byte sizes for both runs: the reimported trace only
  // numbers clients that actually appear, so derived (per-N) sizing rules
  // would legitimately differ. With equal per-browser and proxy capacities
  // the simulations must agree exactly — ids are just labels.
  const trace::TraceStats stats = trace::compute_stats(shared_trace());
  const std::uint64_t proxy_bytes = sim::proxy_cache_bytes_for(stats, 0.05);
  const std::uint64_t browser_bytes =
      sim::min_browser_cache_bytes(proxy_bytes, stats.num_clients);

  sim::SimConfig direct_cfg;
  direct_cfg.proxy_cache_bytes = proxy_bytes;
  direct_cfg.browser_cache_bytes.assign(shared_trace().num_clients(),
                                        browser_bytes);
  sim::SimConfig reimport_cfg = direct_cfg;
  reimport_cfg.browser_cache_bytes.assign(parsed.trace.num_clients(),
                                          browser_bytes);

  const sim::Metrics direct = sim::run_organization(
      OrgKind::kBrowsersAware, direct_cfg, shared_trace());
  const sim::Metrics reimported = sim::run_organization(
      OrgKind::kBrowsersAware, reimport_cfg, parsed.trace);
  EXPECT_EQ(direct.hits.hits(), reimported.hits.hits());
  EXPECT_EQ(direct.byte_hits.hits(), reimported.byte_hits.hits());
  EXPECT_EQ(direct.remote_browser_hits, reimported.remote_browser_hits);
}

TEST(PipelineTest, LatencyQuantilesAreOrderedAndPlausible) {
  const trace::TraceStats stats = trace::compute_stats(shared_trace());
  core::RunSpec spec;
  spec.relative_cache_size = 0.10;
  const sim::Metrics m =
      core::run_one(OrgKind::kBrowsersAware, shared_trace(), stats, spec);
  const double p50 = m.latency_quantile(0.5);
  const double p99 = m.latency_quantile(0.99);
  EXPECT_LT(p50, p99);
  EXPECT_GT(p50, 1e-6);   // at least a memory read
  EXPECT_LT(p99, 1000.0); // below the histogram ceiling
  EXPECT_EQ(m.log_latency.count(), m.hits.total());
}

TEST(PipelineTest, ServiceTimeDecomposesByHitLocation) {
  // total_hit_latency + (total - hit) must equal total_service_time: miss
  // fetches are the only component excluded from hit latency.
  const trace::TraceStats stats = trace::compute_stats(shared_trace());
  core::RunSpec spec;
  spec.relative_cache_size = 0.10;
  for (const OrgKind kind : sim::kAllOrganizations) {
    const sim::Metrics m = core::run_one(kind, shared_trace(), stats, spec);
    double miss_time = 0.0;
    const sim::LatencyModel lat(spec.latency);
    // Recompute miss time from first principles over the trace is overkill;
    // instead verify the decomposition bound: hit latency ≤ total, and the
    // difference is consistent with per-miss origin costs (≥ RTT each).
    const double difference = m.total_service_time_s - m.total_hit_latency_s;
    miss_time = static_cast<double>(m.misses) * spec.latency.origin_rtt_s;
    EXPECT_GE(difference + 1e-9, miss_time) << sim::org_name(kind);
  }
}

TEST(PipelineTest, AnalysisAndStatsAgreeOnColdMisses) {
  // stack_distances_of's cold misses == unique docs... except mutations
  // never create new DocIds, so cold misses equal TraceStats::unique_docs.
  const trace::TraceStats stats = trace::compute_stats(shared_trace());
  const trace::StackDistanceHistogram h =
      trace::stack_distances_of(shared_trace());
  EXPECT_EQ(h.cold_misses, stats.unique_docs);
  EXPECT_EQ(h.cold_misses + h.rereferences, stats.num_requests);
}

TEST(PipelineTest, WatermarkSurvivesTraceDrivenReplayThroughRuntime) {
  // Replay a (tiny) slice of a generated trace through the live protocol
  // engine: every single delivery must verify, whatever path it took.
  runtime::BapsSystem::Params p;
  p.num_clients = shared_trace().num_clients() < 8
                      ? shared_trace().num_clients()
                      : 8;
  p.proxy_cache_bytes = 32 << 10;
  p.browser_cache_bytes = 32 << 10;
  runtime::BapsSystem sys(p);
  std::size_t replayed = 0;
  for (const trace::Request& r : shared_trace().requests()) {
    if (r.client >= p.num_clients) continue;
    const auto out =
        sys.browse(r.client, shared_trace().url_of(r.doc));
    ASSERT_TRUE(out.verified);
    if (++replayed >= 1500) break;
  }
  EXPECT_EQ(sys.tamper_detections(), 0u);
  EXPECT_EQ(sys.rejected_index_updates(), 0u);
  EXPECT_GT(sys.local_hits() + sys.proxy_hits() + sys.peer_hits(), 0u);
}

}  // namespace
}  // namespace baps
