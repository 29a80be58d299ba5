// Organization-level golden test: all five organizations replayed over the
// BU-95 preset at --scale 0.05 with the default RunSpec must reproduce the
// metrics captured before the flat-memory hot-path rewrite. Integer counters
// are compared exactly — hit/miss/eviction sequences are the simulator's
// contract, and any change to LRU tie-breaking, index round-robin order, or
// the size-change rule shows up here. Accumulated latencies are doubles, so
// they get a tight relative tolerance instead (summation order is part of
// the contract too, but we leave one knob for future compiler FP changes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/runner.hpp"
#include "sim/orgs.hpp"
#include "sim/ttl_study.hpp"
#include "trace/generator.hpp"
#include "trace/presets.hpp"
#include "trace/stats.hpp"

namespace baps::sim {
namespace {

struct Golden {
  OrgKind kind;
  std::uint64_t hits, misses;
  std::uint64_t byte_hits;
  std::uint64_t local, proxy, remote;
  std::uint64_t local_b, proxy_b, remote_b, miss_b;
  std::uint64_t mem_b, disk_b;
  std::uint64_t size_miss, idx_msgs, false_fwd, stale, remote_xfer_b;
  double svc, hitlat, rxfer, rcont;
};

// Captured from the pre-rewrite simulator (BU-95, scale 0.05, defaults).
constexpr std::uint64_t kRequests = 7500;
constexpr std::uint64_t kByteTotal = 194421333;
const Golden kGolden[] = {
    {OrgKind::kProxyOnly, 4965, 2535, 16581174, 0, 4965, 0, 0, 16581174, 0,
     177840159, 10585955, 5995219, 6, 0, 0, 0, 0, 5918.5232012000815,
     538.08065719998979, 0.0, 0.0},
    {OrgKind::kLocalBrowserOnly, 1806, 5694, 3245285, 1806, 0, 0, 3245285, 0,
     0, 191176048, 560123, 2685162, 0, 0, 0, 0, 0, 8765.1075080001283,
     12.290739999999785, 0.0, 0.0},
    // Re-captured when BrowserIndex round-robin became per-doc (the global
    // cursor coupled holder choice across documents, which blocked doc
    // sharding); only this organization leans on multi-holder rotation.
    {OrgKind::kGlobalBrowsersOnly, 3126, 4374, 4213960, 1280, 0, 1846,
     3023661, 0, 1190299, 190207373, 1015076, 3198884, 0, 0, 0, 7, 1190299,
     7630.1183249329715, 212.80035693286547, 185.55223919999798,
     13.079809732863296},
    {OrgKind::kProxyAndLocalBrowser, 4967, 2533, 16665490, 1806, 3161, 0,
     3245285, 13420205, 0, 177755843, 8014636, 8650854, 6, 0, 0, 0, 0,
     5743.4933400001119, 366.39985199999154, 0.0, 0.0},
    {OrgKind::kBrowsersAware, 4977, 2523, 16684691, 1804, 3159, 14, 3244796,
     13411528, 28367, 177736642, 8009156, 8675535, 6, 10279, 0, 1, 28367,
     5734.5311920001113, 367.74491999999151, 1.4226936000000001, 0.0},
};

void expect_near_rel(double actual, double expected, const char* what) {
  const double tol = expected == 0.0 ? 1e-12 : std::abs(expected) * 1e-9;
  EXPECT_NEAR(actual, expected, tol) << what;
}

void expect_golden(const Metrics& m, const Golden& g) {
  EXPECT_EQ(m.hits.total(), kRequests);
  EXPECT_EQ(m.hits.hits(), g.hits);
  EXPECT_EQ(m.byte_hits.total(), kByteTotal);
  EXPECT_EQ(m.byte_hits.hits(), g.byte_hits);
  EXPECT_EQ(m.misses, g.misses);
  EXPECT_EQ(m.local_browser_hits, g.local);
  EXPECT_EQ(m.proxy_hits, g.proxy);
  EXPECT_EQ(m.remote_browser_hits, g.remote);
  EXPECT_EQ(m.local_browser_hit_bytes, g.local_b);
  EXPECT_EQ(m.proxy_hit_bytes, g.proxy_b);
  EXPECT_EQ(m.remote_browser_hit_bytes, g.remote_b);
  EXPECT_EQ(m.miss_bytes, g.miss_b);
  EXPECT_EQ(m.memory_hit_bytes, g.mem_b);
  EXPECT_EQ(m.disk_hit_bytes, g.disk_b);
  EXPECT_EQ(m.size_change_misses, g.size_miss);
  EXPECT_EQ(m.index_messages, g.idx_msgs);
  EXPECT_EQ(m.false_forwards, g.false_fwd);
  EXPECT_EQ(m.stale_remote_probes, g.stale);
  EXPECT_EQ(m.remote_transfer_bytes, g.remote_xfer_b);

  expect_near_rel(m.total_service_time_s, g.svc, "total_service_time_s");
  expect_near_rel(m.total_hit_latency_s, g.hitlat, "total_hit_latency_s");
  expect_near_rel(m.remote_transfer_time_s, g.rxfer,
                  "remote_transfer_time_s");
  expect_near_rel(m.remote_contention_time_s, g.rcont,
                  "remote_contention_time_s");
}

TEST(GoldenMetricsTest, AllFiveOrganizationsMatchSeedCapture) {
  const trace::Trace t =
      trace::load_preset_scaled(trace::Preset::kBu95, 0.05);
  const trace::TraceStats stats = trace::compute_stats(t);
  const core::RunSpec spec;  // defaults: LRU, minimum sizing, 10%

  for (const Golden& g : kGolden) {
    SCOPED_TRACE(org_name(g.kind));
    expect_golden(
        run_organization(g.kind, core::build_config(stats, spec), t), g);
  }
}

// The browser-eviction paths the default run above never reaches: the
// periodic index protocol, the Bloom summary index and silent churn wipes.
// Average browser sizing makes remote hits (and with them index lookups,
// false forwards and stale probes) common enough to pin. Captured before
// eviction notification moved from cache listeners to insert callbacks.
struct AwareVariant {
  const char* name;
  core::RunSpec spec;
  Golden golden;
  std::uint64_t departures, rejoins, wiped;
};

std::vector<AwareVariant> aware_variants() {
  core::RunSpec base;
  base.sizing = core::BrowserSizing::kAverage;
  core::RunSpec periodic = base;
  periodic.index_mode = IndexMode::kPeriodic;
  core::RunSpec summary = base;
  summary.index_kind = IndexKind::kBloomSummary;
  summary.bloom_expected_docs_per_client = 256;
  summary.bloom_target_fp = 0.05;
  core::RunSpec churn = base;
  churn.churn_rate = 0.002;
  churn.churn_seed = 7;
  const OrgKind k = OrgKind::kBrowsersAware;
  return {
      {"periodic", periodic,
       {k, 5098, 2402, 17085230, 3062, 1947, 89, 9690443, 7118192, 276595,
        177336103, 5376262, 11708968, 12, 1795, 0, 3, 276595,
        5498.3273476001395, 258.94969959999719, 9.1212760000000035, 0.0},
       0, 0, 0},
      {"summary", summary,
       {k, 5098, 2402, 17085230, 3062, 1947, 89, 9690443, 7118192, 276595,
        177336103, 5377092, 11708138, 12, 6958, 16, 3, 276595,
        5498.3274516001402, 258.94980359999721, 9.1212760000000035, 0.0},
       0, 0, 0},
      {"churn", churn,
       {k, 5093, 2407, 17080168, 3056, 1953, 84, 9681576, 7118214, 280378,
        177341165, 5372521, 11707647, 12, 6938, 4, 3, 280378,
        5503.4809136001395, 259.02227359999733, 8.6243024000000066, 0.0},
       8, 6, 169},
  };
}

TEST(GoldenMetricsTest, BrowsersAwareIndexVariantsMatchCapture) {
  const trace::Trace t =
      trace::load_preset_scaled(trace::Preset::kBu95, 0.05);
  const trace::TraceStats stats = trace::compute_stats(t);
  for (const AwareVariant& v : aware_variants()) {
    SCOPED_TRACE(v.name);
    const Metrics m = run_organization(
        v.golden.kind, core::build_config(stats, v.spec), t);
    expect_golden(m, v.golden);
    EXPECT_EQ(m.churn_departures, v.departures);
    EXPECT_EQ(m.churn_rejoins, v.rejoins);
    EXPECT_EQ(m.churn_wiped_docs, v.wiped);
  }
}

// The TTL study's expiry and capacity-eviction paths, with and without the
// browser index they maintain: a mutating synthetic workload, 120-s TTLs and
// browser caches small enough to evict. Captured alongside the rows above.
TEST(GoldenMetricsTest, TtlStudyMatchesCapture) {
  trace::GeneratorParams gp;
  gp.num_requests = 15'000;
  gp.num_clients = 8;
  gp.shared_docs = 1'200;
  gp.private_docs_per_client = 100;
  gp.mutation_prob = 0.01;
  gp.mean_interarrival = 0.25;
  const trace::Trace t = trace::generate_trace("ttlgolden", gp, 99);
  TtlStudyConfig cfg;
  cfg.proxy_cache_bytes = 512 << 10;
  cfg.browser_cache_bytes.assign(8, 64 << 10);
  cfg.ttl_seconds = 120.0;

  struct Row {
    bool browsers_aware;
    std::uint64_t hits, fresh, stale, stale_remote, remote, expirations;
  };
  for (const Row& row : {Row{true, 5586, 5384, 202, 51, 820, 366},
                         Row{false, 5065, 4945, 120, 0, 0, 84}}) {
    SCOPED_TRACE(row.browsers_aware ? "browsers-aware" : "plain");
    cfg.browsers_aware = row.browsers_aware;
    const TtlStudyMetrics m = run_ttl_study(cfg, t);
    EXPECT_EQ(m.hits.total(), 15'000u);
    EXPECT_EQ(m.hits.hits(), row.hits);
    EXPECT_EQ(m.fresh_hits, row.fresh);
    EXPECT_EQ(m.stale_hits, row.stale);
    EXPECT_EQ(m.stale_remote_hits, row.stale_remote);
    EXPECT_EQ(m.remote_hits, row.remote);
    EXPECT_EQ(m.expirations, row.expirations);
  }
}

}  // namespace
}  // namespace baps::sim
