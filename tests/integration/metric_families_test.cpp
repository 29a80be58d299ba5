// Every documented metric family must exist in a registry snapshot taken
// right after the eager registration calls — BEFORE any traffic. A family
// that only appears once traffic touches it makes time-series streams and
// dashboards grow columns mid-run and makes fault-free reports silently
// omit the fault counters; eager registration pins the full schema from
// interval #0. Registry::global() is shared across tests in this binary, so
// these are presence assertions, not value assertions. Each family must
// also have a row in report_check's family table (obs/report.cpp), so a new
// family cannot skip validation.
#include <gtest/gtest.h>

#include <string>

#include "fault/fault_plan.hpp"
#include "netio/netio_metrics.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "store/tiered_store.hpp"

namespace baps {
namespace {

bool has_counter(const obs::Snapshot& snap, const std::string& name,
                 const obs::Labels& labels = {}) {
  return snap.counter(name, labels) != nullptr;
}

bool has_histogram(const obs::Snapshot& snap, const std::string& name,
                   const obs::Labels& labels) {
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name == name && h.labels == labels) return true;
  }
  return false;
}

bool has_gauge(const obs::Snapshot& snap, const std::string& name) {
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name == name) return true;
  }
  return false;
}

TEST(MetricFamiliesTest, EagerRegistrationCoversEveryDocumentedFamily) {
  store::register_store_metric_families();
  fault::register_fault_metric_families();
  obs::register_trace_metric_families();
  const obs::Snapshot snap = obs::Registry::global().snapshot();

  // Durable store family (report_check's store validator needs probes,
  // hits, misses present together and both bytes directions).
  for (const char* name :
       {"store_probes_total", "store_hits_total", "store_misses_total",
        "store_demotions_total", "store_promotions_total",
        "store_integrity_failures_total"}) {
    EXPECT_TRUE(has_counter(snap, name)) << name;
  }
  EXPECT_TRUE(has_counter(snap, "store_bytes_total", {{"dir", "read"}}));
  EXPECT_TRUE(has_counter(snap, "store_bytes_total", {{"dir", "written"}}));
  for (const char* op : {"probe", "demote", "promote"}) {
    EXPECT_TRUE(has_histogram(snap, "store_stage_seconds", {{"op", op}}))
        << op;
  }

  // Fault-injection family: every kind, both directions, always labeled
  // (report_check rejects unlabeled fault counters).
  for (const char* kind :
       {"peer_disconnect", "peer_depart", "peer_join", "slow_peer",
        "drop_frame", "corrupt_frame", "proxy_restart"}) {
    EXPECT_TRUE(has_counter(snap, "fault_injected_total", {{"kind", kind}}))
        << kind;
    EXPECT_TRUE(has_counter(snap, "fault_recovered_total", {{"kind", kind}}))
        << kind;
  }
  EXPECT_TRUE(has_counter(snap, "stale_index_hits_total"));

  // Tracing family: every span kind as a labeled counter and a labeled
  // stage histogram.
  for (const char* kind :
       {"client_fetch", "index_lookup", "cache_probe", "peer_transfer",
        "origin_fetch", "frame_send", "frame_recv", "sign", "verify"}) {
    EXPECT_TRUE(has_counter(snap, "trace_spans_total", {{"kind", kind}}))
        << kind;
    EXPECT_TRUE(has_histogram(snap, "trace_stage_seconds", {{"stage", kind}}))
        << kind;
  }
}

TEST(MetricFamiliesTest, NetioFamiliesRegisterEagerly) {
  netio::register_netio_metric_families();
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_TRUE(has_gauge(snap, "netio_connections_active"));
  for (const char* name :
       {"netio_connections_total", "netio_accept_errors_total",
        "netio_epoll_wakeups_total", "netio_epoll_accept_backpressure_total",
        "netio_epoll_writeq_stall_total", "netio_epoll_idle_closes_total",
        "netio_epoll_hello_timeouts_total", "netio_epoll_drained_total",
        "netio_pool_reuse_total",
        "netio_pool_dial_total", "netio_pool_discard_total"}) {
    EXPECT_TRUE(has_counter(snap, name)) << name;
  }

  // Idempotent like the other families: re-registering resolves the same
  // instruments instead of duplicating them.
  netio::register_netio_metric_families();
  const obs::Snapshot again = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.counters.size(), again.counters.size());
  EXPECT_EQ(snap.gauges.size(), again.gauges.size());
}

TEST(MetricFamiliesTest, EagerRegistrationIsIdempotent) {
  store::register_store_metric_families();
  fault::register_fault_metric_families();
  obs::register_trace_metric_families();
  const obs::Snapshot before = obs::Registry::global().snapshot();
  store::register_store_metric_families();
  fault::register_fault_metric_families();
  obs::register_trace_metric_families();
  const obs::Snapshot after = obs::Registry::global().snapshot();
  // Re-registering resolves the same instruments; no duplicates appear.
  EXPECT_EQ(before.counters.size(), after.counters.size());
  EXPECT_EQ(before.histograms.size(), after.histograms.size());
  std::size_t store_probes = 0;
  for (const obs::CounterSample& c : after.counters) {
    if (c.name == "store_probes_total") ++store_probes;
  }
  EXPECT_EQ(store_probes, 1u);
}

TEST(MetricFamiliesTest, EveryRegisteredFamilyHasAValidationRule) {
  store::register_store_metric_families();
  fault::register_fault_metric_families();
  obs::register_trace_metric_families();
  netio::register_netio_metric_families();
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  ASSERT_FALSE(snap.counters.empty());
  for (const obs::CounterSample& c : snap.counters) {
    EXPECT_TRUE(obs::has_validation_rule(c.name, obs::MetricKind::kCounter))
        << c.name;
  }
  for (const obs::GaugeSample& g : snap.gauges) {
    EXPECT_TRUE(obs::has_validation_rule(g.name, obs::MetricKind::kGauge))
        << g.name;
  }
  for (const obs::HistogramSample& h : snap.histograms) {
    EXPECT_TRUE(obs::has_validation_rule(h.name, obs::MetricKind::kHistogram))
        << h.name;
  }
  // The table is keyed by kind too: a counter row does not cover a gauge.
  EXPECT_FALSE(obs::has_validation_rule("store_probes_total",
                                        obs::MetricKind::kGauge));
}

}  // namespace
}  // namespace baps
