#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/runner.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "trace/presets.hpp"

namespace baps::obs {
namespace {

const trace::Trace& shared_trace() {
  static const trace::Trace t =
      trace::load_preset_scaled(trace::Preset::kNlanrUc, 0.05);
  return t;
}

std::vector<core::CacheSizePoint> shared_sweep() {
  core::RunSpec spec;
  spec.sizing = core::BrowserSizing::kMinimum;
  return core::sweep_cache_sizes(
      shared_trace(), {0.05, 0.10},
      {core::OrgKind::kProxyAndLocalBrowser, core::OrgKind::kBrowsersAware},
      spec);
}

TEST(MetricsJsonTest, CountersAreExactAndRatiosConsistent) {
  sim::Metrics m;
  m.hits.hit(3);
  m.hits.miss(1);
  m.byte_hits.hit(3000);
  m.byte_hits.miss(500);
  m.local_browser_hits = 1;
  m.proxy_hits = 1;
  m.remote_browser_hits = 1;
  m.misses = 1;

  const JsonValue j = metrics_to_json(m);
  EXPECT_EQ(j.at("hits").at("count").as_uint(), 3u);
  EXPECT_EQ(j.at("hits").at("total").as_uint(), 4u);
  EXPECT_DOUBLE_EQ(j.at("hits").at("ratio").as_double(), 0.75);
  EXPECT_EQ(j.at("locations").at("miss").at("count").as_uint(), 1u);
}

TEST(ReportTest, BuildsValidatesAndRoundTrips) {
  const auto points = shared_sweep();

  PhaseTimers phases;
  phases.add("sweep", 0.25);

  const ReportBuilder builder =
      ReportBuilder("report_test")
          .set_title("round trip")
          .set_trace(shared_trace())
          .add_phases(phases)
          .add_sweep(points)
          .set_registry(Registry::global().snapshot());
  const JsonValue report = builder.build();

  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;

  // Dump → parse → the emitted hit-ratio fields must match the in-memory
  // Metrics EXACTLY (%.17g doubles survive the round trip bit-for-bit).
  const auto parsed = json_parse(report.dump(2), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(validate_report(*parsed, &error)) << error;

  const JsonValue& sweep = *parsed->find("sweep");
  ASSERT_EQ(sweep.as_array().size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const JsonValue& entry = sweep.as_array()[i];
    EXPECT_EQ(entry.at("relative_cache_size").as_double(),
              points[i].relative_cache_size);
    const auto& orgs = entry.at("orgs").as_array();
    ASSERT_EQ(orgs.size(), points[i].by_org.size());
    for (const auto& org_entry : orgs) {
      const std::string org = org_entry.at("org").as_string();
      const sim::Metrics* m = nullptr;
      for (const auto& [kind, metrics] : points[i].by_org) {
        if (sim::org_name(kind) == org) m = &metrics;
      }
      ASSERT_NE(m, nullptr) << "unknown org " << org;
      const JsonValue& mj = org_entry.at("metrics");
      EXPECT_EQ(mj.at("hits").at("count").as_uint(), m->hits.hits());
      EXPECT_EQ(mj.at("hits").at("total").as_uint(), m->hits.total());
      EXPECT_EQ(mj.at("hits").at("ratio").as_double(), m->hit_ratio());
      EXPECT_EQ(mj.at("byte_hits").at("ratio").as_double(),
                m->byte_hit_ratio());
    }
  }

  // Phases survived.
  const JsonValue& ph = *parsed->find("phases");
  ASSERT_EQ(ph.as_array().size(), 1u);
  EXPECT_EQ(ph.as_array()[0].at("name").as_string(), "sweep");
}

TEST(ReportTest, WriteProducesAParseableFile) {
  const std::string path =
      ::testing::TempDir() + "/baps_report_test_out.json";
  std::string error;
  ASSERT_TRUE(ReportBuilder("report_test")
                  .add_sweep(shared_sweep())
                  .write(path, &error))
      << error;

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = json_parse(buf.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(validate_report(*parsed, &error)) << error;
  EXPECT_EQ(parsed->at("tool").as_string(), "report_test");
}

TEST(ReportTest, ClientScalingSectionValidatesWithTraceLabels) {
  core::RunSpec spec;
  spec.relative_cache_size = 0.10;
  const auto points =
      core::client_scaling_sweep(shared_trace(), {0.5, 1.0}, spec);

  const JsonValue report = ReportBuilder("report_test")
                               .add_client_scaling(points, "NLANR-uc")
                               .build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
  const auto& entries = report.at("client_scaling").as_array();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].at("trace").as_string(), "NLANR-uc");
  EXPECT_EQ(entries[1].at("num_clients").as_uint(),
            points[1].num_clients);
}

/// validate_report must reject `report`, without throwing, with an error
/// that names `family` and the violated `rule`.
void expect_rejected(const JsonValue& report, const std::string& family,
                     const std::string& rule) {
  std::string error;
  bool valid = true;
  EXPECT_NO_THROW(valid = validate_report(report, &error));
  EXPECT_FALSE(valid);
  EXPECT_NE(error.find(family), std::string::npos) << error;
  EXPECT_NE(error.find(rule), std::string::npos) << error;
}

JsonValue& first_sweep_metrics(JsonValue& report) {
  return *report.find("sweep")
              ->as_array()[0]
              .find("orgs")
              ->as_array()[0]
              .find("metrics");
}

TEST(ValidateTest, RejectsCorruptedReports) {
  // Wrong schema id.
  JsonValue bad;
  bad.set("schema", JsonValue("nope.v0"));
  bad.set("tool", JsonValue("x"));
  expect_rejected(bad, "report", "schema");

  // A tampered ratio must be caught by the recompute check.
  JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  first_sweep_metrics(report).find("hits")->set("ratio", JsonValue(0.123456));
  expect_rejected(report, "hits", "ratio");
}

TEST(ValidateTest, RejectsSweepMetricsMissingALocation) {
  JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  JsonObject& locations =
      first_sweep_metrics(report).find("locations")->as_object();
  locations.erase(std::remove_if(locations.begin(), locations.end(),
                                 [](const auto& kv) {
                                   return kv.first == "proxy";
                                 }),
                  locations.end());
  expect_rejected(report, "locations.proxy", "needs an integer hits");
}

TEST(ValidateTest, RejectsNegativeHitCount) {
  JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  first_sweep_metrics(report).find("hits")->set("count", JsonValue(-1));
  expect_rejected(report, "hits", "integer count");
}

/// One counter or gauge instance as the registry section serializes it.
JsonValue sample_json(const std::string& name, JsonObject labels,
                      double value) {
  return json_object({{"name", JsonValue(name)},
                      {"labels", JsonValue(std::move(labels))},
                      {"value", JsonValue(value)}});
}

JsonValue report_with_registry(JsonArray counters, JsonArray gauges,
                               JsonArray histograms) {
  JsonValue registry;
  registry.set("counters", JsonValue(std::move(counters)));
  registry.set("gauges", JsonValue(std::move(gauges)));
  registry.set("histograms", JsonValue(std::move(histograms)));
  JsonValue report;
  report.set("schema", JsonValue(kReportSchema));
  report.set("tool", JsonValue("report_test"));
  report.set("registry", std::move(registry));
  return report;
}

JsonValue report_with_counters(JsonArray counters) {
  return report_with_registry(std::move(counters), {}, {});
}

JsonValue report_with_gauges(JsonArray gauges) {
  return report_with_registry({}, std::move(gauges), {});
}

TEST(TransportMetricsTest, AcceptsConsistentWireCounters) {
  const JsonValue report = report_with_counters({
      sample_json("wire_frames_total", {{"dir", "tx"}, {"kind", "hello"}},
                  3),
      sample_json("wire_frames_total", {{"dir", "tx"}, {"kind", "bye"}}, 2),
      sample_json("wire_frames_total", {{"dir", "rx"}, {"kind", "hello"}},
                  5),
      sample_json("wire_bytes_total", {{"dir", "tx"}}, 5 * 16 + 40),
      sample_json("wire_bytes_total", {{"dir", "rx"}}, 5 * 16),
      sample_json("netio_timeouts_total", {{"op", "read"}}, 1),
  });
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(TransportMetricsTest, RejectsBadDirLabel) {
  expect_rejected(report_with_counters({
                      sample_json("wire_frames_total",
                                  {{"dir", "up"}, {"kind", "hello"}}, 1),
                  }),
                  "wire_frames_total", "dir label must be one of tx, rx");
}

TEST(TransportMetricsTest, RejectsFrameBytesBelowTheHeaderFloor) {
  // 10 frames can never cost fewer than 10 headers of bytes.
  expect_rejected(report_with_counters({
                      sample_json("wire_frames_total",
                                  {{"dir", "tx"}, {"kind", "hello"}}, 10),
                      sample_json("wire_bytes_total", {{"dir", "tx"}}, 100),
                  }),
                  "wire_frames_total{dir=tx}",
                  "exceeds wire_bytes_total{dir=tx}");
}

TEST(TransportMetricsTest, RejectsNegativeTransportCounters) {
  expect_rejected(report_with_counters({
                      sample_json("netio_retries_total", {{"op", "fetch"}},
                                  -1),
                  }),
                  "netio_retries_total", "finite non-negative");
}

TEST(TransportMetricsTest, MonotonicityAcceptsGrowthAndNewCounters) {
  const JsonValue earlier = report_with_counters({
      sample_json("wire_frames_total", {{"dir", "tx"}, {"kind", "hello"}},
                  3),
  });
  const JsonValue later = report_with_counters({
      sample_json("wire_frames_total", {{"dir", "tx"}, {"kind", "hello"}},
                  7),
      sample_json("netio_timeouts_total", {{"op", "read"}}, 2),
  });
  std::string error;
  EXPECT_TRUE(validate_transport_monotonicity(earlier, later, &error))
      << error;
}

TEST(TransportMetricsTest, MonotonicityRejectsACounterGoingBackwards) {
  const JsonValue earlier = report_with_counters({
      sample_json("wire_bytes_total", {{"dir", "rx"}}, 640),
  });
  const JsonValue later = report_with_counters({
      sample_json("wire_bytes_total", {{"dir", "rx"}}, 639),
  });
  std::string error;
  EXPECT_FALSE(validate_transport_monotonicity(earlier, later, &error));
  EXPECT_NE(error.find("backwards"), std::string::npos) << error;
}

TEST(TransportMetricsTest, MonotonicityDistinguishesLabelSets) {
  // tx dropping while rx grows must still fail: instances are matched by
  // their full label set, not just the name.
  const JsonValue earlier = report_with_counters({
      sample_json("wire_bytes_total", {{"dir", "tx"}}, 100),
      sample_json("wire_bytes_total", {{"dir", "rx"}}, 100),
  });
  const JsonValue later = report_with_counters({
      sample_json("wire_bytes_total", {{"dir", "tx"}}, 50),
      sample_json("wire_bytes_total", {{"dir", "rx"}}, 200),
  });
  std::string error;
  EXPECT_FALSE(validate_transport_monotonicity(earlier, later, &error));
  EXPECT_NE(error.find("dir=tx"), std::string::npos) << error;
}

TEST(TransportMetricsTest, ReportsWithoutWireCountersPassTrivially) {
  const JsonValue report = ReportBuilder("report_test")
                               .add_sweep(shared_sweep())
                               .build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
  EXPECT_TRUE(
      validate_transport_monotonicity(report, report, &error))
      << error;
}

TEST(ReplayMetricsTest, AcceptsLabeledPositiveGauges) {
  const JsonValue report = report_with_gauges({
      sample_json("replay_requests_per_second",
                  {{"org", "browsers-aware-proxy-server"}}, 2.5e6),
      sample_json("replay_requests_per_second", {{"org", "proxy-cache-only"}},
                  7.1e6),
      sample_json("some_other_gauge", {}, 0.0),  // not the family: ignored
  });
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(ReplayMetricsTest, RejectsMissingOrgLabel) {
  expect_rejected(report_with_gauges({
                      sample_json("replay_requests_per_second", {}, 1.0e6),
                  }),
                  "replay_requests_per_second", "org label");
}

TEST(ReplayMetricsTest, RejectsNonPositiveThroughput) {
  expect_rejected(report_with_gauges({
                      sample_json("replay_requests_per_second",
                                  {{"org", "proxy-cache-only"}}, 0.0),
                  }),
                  "replay_requests_per_second", "finite and positive");
}

TEST(ReplayMetricsTest, ReportsWithoutReplayGaugesPassTrivially) {
  const JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(FaultMetricsTest, AcceptsKindLabeledFaultCounters) {
  const JsonValue report = report_with_counters({
      sample_json("fault_injected_total", {{"kind", "drop_frame"}}, 7),
      sample_json("fault_recovered_total", {{"kind", "drop_frame"}}, 7),
      sample_json("fault_injected_total", {{"kind", "peer_depart"}}, 3),
      sample_json("stale_index_hits_total", {}, 2),
  });
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(FaultMetricsTest, RejectsRecoveredExceedingInjected) {
  expect_rejected(
      report_with_counters({
          sample_json("fault_injected_total", {{"kind", "corrupt_frame"}}, 2),
          sample_json("fault_recovered_total", {{"kind", "corrupt_frame"}},
                      3),
      }),
      "fault_recovered_total{kind=corrupt_frame}",
      "exceeds fault_injected_total{kind=corrupt_frame}");
}

TEST(FaultMetricsTest, RejectsRecoveredForAKindNeverInjected) {
  expect_rejected(report_with_counters({
                      sample_json("fault_recovered_total",
                                  {{"kind", "slow_peer"}}, 1),
                  }),
                  "fault_recovered_total{kind=slow_peer}",
                  "exceeds fault_injected_total");
}

TEST(FaultMetricsTest, RelationSumsEveryInstanceOfAKind) {
  // Instances that differ only in a label outside the group sum into it.
  const JsonValue summed = report_with_counters({
      sample_json("fault_injected_total", {{"kind", "drop_frame"}}, 9),
      sample_json("fault_recovered_total",
                  {{"kind", "drop_frame"}, {"host", "a"}}, 4),
      sample_json("fault_recovered_total",
                  {{"kind", "drop_frame"}, {"host", "b"}}, 5),
  });
  std::string error;
  EXPECT_TRUE(validate_report(summed, &error)) << error;
  expect_rejected(report_with_counters({
                      sample_json("fault_injected_total",
                                  {{"kind", "drop_frame"}}, 8),
                      sample_json("fault_recovered_total",
                                  {{"kind", "drop_frame"}, {"host", "a"}}, 4),
                      sample_json("fault_recovered_total",
                                  {{"kind", "drop_frame"}, {"host", "b"}}, 5),
                  }),
                  "fault_recovered_total{kind=drop_frame} (9)",
                  "exceeds fault_injected_total{kind=drop_frame} (8)");
}

TEST(FaultMetricsTest, RejectsMissingKindLabel) {
  expect_rejected(report_with_counters({
                      sample_json("fault_injected_total", {}, 1),
                  }),
                  "fault_injected_total", "kind label");
}

TEST(FaultMetricsTest, RejectsNegativeStaleIndexHits) {
  expect_rejected(report_with_counters({
                      sample_json("stale_index_hits_total", {}, -1),
                  }),
                  "stale_index_hits_total", "finite non-negative");
}

TEST(FaultMetricsTest, ReportsWithoutFaultCountersPassTrivially) {
  const JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

JsonValue stage_hist_json(const std::string& name, const std::string& key,
                          const std::string& value, double count) {
  JsonObject labels;
  if (!value.empty()) labels.emplace_back(key, JsonValue(value));
  return json_object({{"name", JsonValue(name)},
                      {"labels", JsonValue(std::move(labels))},
                      {"count", JsonValue(count)}});
}

JsonValue store_stage_json(const std::string& op, double count) {
  return stage_hist_json("store_stage_seconds", "op", op, count);
}

TEST(StoreMetricsTest, AcceptsConsistentStoreFamily) {
  const JsonValue report = report_with_registry(
      {
          sample_json("store_probes_total", {}, 10),
          sample_json("store_hits_total", {}, 7),
          sample_json("store_misses_total", {}, 3),
          sample_json("store_demotions_total", {}, 12),
          sample_json("store_promotions_total", {}, 7),
          sample_json("store_integrity_failures_total", {}, 0),
          sample_json("store_bytes_total", {{"dir", "read"}}, 9000),
          sample_json("store_bytes_total", {{"dir", "written"}}, 15000),
      },
      {},
      {
          store_stage_json("probe", 10),
          store_stage_json("demote", 12),
          store_stage_json("promote", 7),
      });
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(StoreMetricsTest, RejectsProbesNotSplittingIntoHitsAndMisses) {
  expect_rejected(report_with_counters({
                      sample_json("store_probes_total", {}, 10),
                      sample_json("store_hits_total", {}, 7),
                      // One probe unaccounted for.
                      sample_json("store_misses_total", {}, 2),
                  }),
                  "store_hits_total + store_misses_total",
                  "!= store_probes_total");
}

TEST(StoreMetricsTest, RejectsBytesWithoutReadOrWrittenDir) {
  expect_rejected(report_with_counters({
                      sample_json("store_bytes_total", {{"dir", "sideways"}},
                                  100),
                  }),
                  "store_bytes_total",
                  "dir label must be one of read, written");
}

TEST(StoreMetricsTest, RejectsNegativeStoreCounter) {
  expect_rejected(report_with_counters({
                      sample_json("store_integrity_failures_total", {}, -1),
                  }),
                  "store_integrity_failures_total", "finite non-negative");
}

TEST(StoreMetricsTest, RejectsStageHistogramWithoutOpLabel) {
  expect_rejected(report_with_registry({}, {}, {store_stage_json("", 3)}),
                  "store_stage_seconds", "op label");
}

TEST(StoreMetricsTest, StoreCountersJoinMonotonicityChecks) {
  const JsonValue earlier =
      report_with_counters({sample_json("store_hits_total", {}, 5)});
  const JsonValue later =
      report_with_counters({sample_json("store_hits_total", {}, 4)});
  std::string error;
  EXPECT_FALSE(validate_transport_monotonicity(earlier, later, &error));
  EXPECT_NE(error.find("store_hits_total"), std::string::npos) << error;
  EXPECT_TRUE(validate_transport_monotonicity(later, earlier, &error))
      << error;
}

TEST(StoreMetricsTest, ReportsWithoutStoreInstrumentsPassTrivially) {
  const JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(TraceMetricsTest, RejectsStageHistogramWithoutStageLabel) {
  expect_rejected(
      report_with_registry(
          {}, {}, {stage_hist_json("trace_stage_seconds", "stage", "", 1)}),
      "trace_stage_seconds", "stage label");
}

TEST(TraceMetricsTest, StageLabelMustNameASpanKind) {
  // Every kind the tracer registers validates, so a new SpanKind needs its
  // name in the rule table.
  Registry registry;
  register_trace_metric_families(&registry);
  const JsonValue eager = ReportBuilder("report_test")
                              .add_sweep(shared_sweep())
                              .set_registry(registry.snapshot())
                              .build();
  std::string error;
  EXPECT_TRUE(validate_report(eager, &error)) << error;
  expect_rejected(
      report_with_registry(
          {}, {}, {stage_hist_json("trace_stage_seconds", "stage", "rsa", 1)}),
      "trace_stage_seconds", "stage label");
}

TEST(LatencyMetricsTest, RejectsQuantilesDecreasingWithinAStage) {
  expect_rejected(report_with_gauges({
                      sample_json("latency_quantile_seconds",
                                  {{"q", "p50"}, {"stage", "fetch"}}, 0.2),
                      sample_json("latency_quantile_seconds",
                                  {{"q", "p99"}, {"stage", "fetch"}}, 0.1),
                      // Another stage is its own distribution.
                      sample_json("latency_quantile_seconds",
                                  {{"q", "p50"}, {"stage", "peer"}}, 0.5),
                  }),
                  "latency_quantile_seconds{stage=fetch}", "monotone");
}

TEST(NetioMetricsTest, AcceptsConsistentConnloadFamily) {
  const JsonValue report = report_with_registry(
      {
          sample_json("netio_connections_total", {}, 10000),
          sample_json("netio_epoll_wakeups_total", {}, 123456),
          sample_json("connload_established_total", {}, 10000),
          sample_json("connload_roundtrips_total", {}, 10000),
      },
      {
          sample_json("netio_connections_active", {}, 0),
          sample_json("connload_connections_peak", {}, 10000),
          sample_json("connload_accept_rate_per_second", {}, 9360.4),
          sample_json("connload_roundtrip_quantile_seconds", {{"q", "p50"}},
                      0.016),
          sample_json("connload_roundtrip_quantile_seconds", {{"q", "p99"}},
                      0.048),
          sample_json("connload_roundtrip_quantile_seconds", {{"q", "p999"}},
                      0.058),
      },
      {});
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(NetioMetricsTest, RejectsNonMonotoneQuantiles) {
  expect_rejected(report_with_gauges({
                      sample_json("connload_roundtrip_quantile_seconds",
                                  {{"q", "p50"}}, 0.050),
                      sample_json("connload_roundtrip_quantile_seconds",
                                  {{"q", "p99"}}, 0.048),
                      sample_json("connload_roundtrip_quantile_seconds",
                                  {{"q", "p999"}}, 0.058),
                  }),
                  "connload_roundtrip_quantile_seconds", "monotone");
}

TEST(NetioMetricsTest, RejectsALoneQuantileInstance) {
  expect_rejected(report_with_gauges({
                      sample_json("connload_roundtrip_quantile_seconds",
                                  {{"q", "p50"}}, 0.016),
                  }),
                  "connload_roundtrip_quantile_seconds", "missing q=");
}

TEST(NetioMetricsTest, RejectsBadQuantileLabel) {
  expect_rejected(report_with_gauges({
                      sample_json("connload_roundtrip_quantile_seconds",
                                  {{"q", "p42"}}, 0.016),
                  }),
                  "connload_roundtrip_quantile_seconds",
                  "q label must be one of p50, p99, p999");
}

TEST(NetioMetricsTest, RejectsPeakAboveEstablished) {
  expect_rejected(
      report_with_registry(
          {sample_json("connload_established_total", {}, 100)},
          {sample_json("connload_connections_peak", {}, 101)}, {}),
      "connload_connections_peak", "exceeds connload_established_total");
}

TEST(NetioMetricsTest, RejectsNegativeNetioGauge) {
  expect_rejected(report_with_gauges({
                      sample_json("netio_connections_active", {}, -1),
                  }),
                  "netio_connections_active", "finite non-negative");
}

TEST(NetioMetricsTest, ReportsWithoutNetioInstrumentsPassTrivially) {
  const JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

}  // namespace
}  // namespace baps::obs
