#include "core/runner.hpp"

#include <gtest/gtest.h>

#include "trace/generator.hpp"
#include "trace/presets.hpp"
#include "util/assert.hpp"

namespace baps::core {
namespace {

// One shared scaled-down preset keeps the suite fast; the full-size runs
// live in the bench binaries.
const trace::Trace& shared_trace() {
  static const trace::Trace t =
      trace::load_preset_scaled(trace::Preset::kNlanrUc, 0.12);
  return t;
}

const trace::TraceStats& shared_stats() {
  static const trace::TraceStats s = trace::compute_stats(shared_trace());
  return s;
}

TEST(BuildConfigTest, MinimumSizingFollowsRule) {
  RunSpec spec;
  spec.relative_cache_size = 0.10;
  spec.sizing = BrowserSizing::kMinimum;
  const sim::SimConfig cfg = build_config(shared_stats(), spec);
  EXPECT_EQ(cfg.proxy_cache_bytes,
            sim::proxy_cache_bytes_for(shared_stats(), 0.10));
  ASSERT_EQ(cfg.browser_cache_bytes.size(), shared_stats().num_clients);
  EXPECT_EQ(cfg.browser_cache_bytes[0],
            sim::min_browser_cache_bytes(cfg.proxy_cache_bytes,
                                         shared_stats().num_clients));
}

TEST(BuildConfigTest, AverageSizingScalesWithRelativeSize) {
  RunSpec small, large;
  small.sizing = large.sizing = BrowserSizing::kAverage;
  small.relative_cache_size = 0.05;
  large.relative_cache_size = 0.20;
  const auto cs = build_config(shared_stats(), small);
  const auto cl = build_config(shared_stats(), large);
  EXPECT_GT(cl.browser_cache_bytes[0], cs.browser_cache_bytes[0]);
  EXPECT_GT(cl.proxy_cache_bytes, cs.proxy_cache_bytes);
}

// --- the paper's headline qualitative claims, end to end -------------------

TEST(HeadlineTest, BapsBeatsProxyAndLocalBrowser) {
  RunSpec spec;
  spec.relative_cache_size = 0.10;
  spec.sizing = BrowserSizing::kMinimum;
  const Metrics baps = run_one(OrgKind::kBrowsersAware, shared_trace(),
                               shared_stats(), spec);
  const Metrics pal = run_one(OrgKind::kProxyAndLocalBrowser, shared_trace(),
                              shared_stats(), spec);
  EXPECT_GT(baps.hit_ratio(), pal.hit_ratio());
  EXPECT_GT(baps.byte_hit_ratio(), pal.byte_hit_ratio());
  EXPECT_GT(baps.remote_browser_hits, 0u);
}

TEST(HeadlineTest, OrganizationOrderingMatchesPaper) {
  // §4.1: BAPS is best; P+LB only slightly beats proxy-only;
  // local-browser-only is worst (minimum cache sizes).
  RunSpec spec;
  spec.relative_cache_size = 0.10;
  spec.sizing = BrowserSizing::kMinimum;
  std::map<OrgKind, Metrics> m;
  for (const OrgKind k : sim::kAllOrganizations) {
    m.emplace(k, run_one(k, shared_trace(), shared_stats(), spec));
  }
  const auto hr = [&](OrgKind k) { return m.at(k).hit_ratio(); };
  EXPECT_GT(hr(OrgKind::kBrowsersAware), hr(OrgKind::kProxyAndLocalBrowser));
  // "proxy-and-local-browser only slightly outperforms proxy-cache-only":
  // with minimum browser caches they are near-identical — allow noise.
  EXPECT_GE(hr(OrgKind::kProxyAndLocalBrowser),
            hr(OrgKind::kProxyOnly) - 0.005);
  EXPECT_GT(hr(OrgKind::kProxyOnly), hr(OrgKind::kLocalBrowserOnly));
  EXPECT_GT(hr(OrgKind::kBrowsersAware), hr(OrgKind::kGlobalBrowsersOnly));
}

TEST(SweepTest, CacheSizeSweepIsMonotoneInSizePerOrg) {
  RunSpec spec;
  spec.sizing = BrowserSizing::kMinimum;
  const std::vector<double> sizes = {0.02, 0.10, 0.25};
  const auto points = sweep_cache_sizes(
      shared_trace(), sizes,
      {OrgKind::kProxyAndLocalBrowser, OrgKind::kBrowsersAware}, spec);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    for (const auto& [org, m] : points[i].by_org) {
      // Bigger caches can only help on these workloads.
      EXPECT_GE(m.hit_ratio() + 0.01,
                points[i - 1].by_org.at(org).hit_ratio())
          << sim::org_name(org) << " at size " << sizes[i];
    }
  }
}

TEST(SweepTest, ParallelAndSequentialSweepsAgreeExactly) {
  // Each point owns all of its mutable state, so running the points on a
  // pool must reproduce the sequential sweep down to the floating-point
  // bits, for every organization, under cache pressure, with and without
  // client churn.
  const std::vector<double> sizes = {0.05, 0.15};
  const std::vector<OrgKind> orgs(std::begin(sim::kAllOrganizations),
                                  std::end(sim::kAllOrganizations));
  for (const double churn_rate : {0.0, 0.01}) {
    RunSpec spec;
    spec.sizing = BrowserSizing::kMinimum;
    spec.churn_rate = churn_rate;
    spec.churn_seed = 7;
    const auto seq = sweep_cache_sizes(shared_trace(), sizes, orgs, spec);
    ThreadPool pool(4);
    const auto par =
        sweep_cache_sizes(shared_trace(), sizes, orgs, spec, &pool);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      for (const OrgKind org : orgs) {
        EXPECT_TRUE(
            sim::bit_identical(seq[i].by_org.at(org), par[i].by_org.at(org)))
            << sim::org_name(org) << " at size " << sizes[i] << ", churn "
            << churn_rate;
      }
    }
  }
}

TEST(SweepTest, RejectsEmptyInputs) {
  RunSpec spec;
  EXPECT_THROW(
      sweep_cache_sizes(shared_trace(), {}, {OrgKind::kProxyOnly}, spec),
      baps::InvariantError);
  EXPECT_THROW(sweep_cache_sizes(shared_trace(), {0.1}, {}, spec),
               baps::InvariantError);
  EXPECT_THROW(client_scaling_sweep(shared_trace(), {}, spec),
               baps::InvariantError);
}

TEST(ClientScalingTest, IncrementGrowsWithPopulation) {
  RunSpec spec;
  spec.relative_cache_size = 0.10;
  spec.sizing = BrowserSizing::kAverage;
  ThreadPool pool(4);
  const auto points = client_scaling_sweep(
      shared_trace(), {0.25, 1.0}, spec, &pool);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_LT(points[0].num_clients, points[1].num_clients);
  // Figure 8's shape: more clients → more sharable browser space → larger
  // BAPS increment.
  EXPECT_GT(points[1].hit_ratio_increment_pct,
            points[0].hit_ratio_increment_pct);
  EXPECT_GT(points[1].hit_ratio_increment_pct, 0.0);
}

TEST(ClientScalingTest, SmallPopulationGainIsSmall) {
  // Figure 7's limit case: 3 clients → accumulated browser space is tiny
  // relative to the proxy → increment nearly vanishes.
  const trace::Trace canet = trace::load_preset_scaled(
      trace::Preset::kCanet2, 0.15);
  RunSpec spec;
  spec.relative_cache_size = 0.10;
  spec.sizing = BrowserSizing::kAverage;
  const auto points = client_scaling_sweep(canet, {1.0}, spec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].num_clients, 3u);
  EXPECT_LT(points[0].hit_ratio_increment_pct, 5.0);
  EXPECT_GE(points[0].hit_ratio_increment_pct, -0.5);
}

}  // namespace
}  // namespace baps::core
