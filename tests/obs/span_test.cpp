#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/registry.hpp"

namespace baps::obs {
namespace {

Tracer::Params always_on(std::uint64_t seed = 7) {
  Tracer::Params p;
  p.seed = seed;
  p.sample_rate = 1.0;
  p.service = "test";
  return p;
}

TEST(TraceSampledTest, EdgesAndDeterminism) {
  EXPECT_FALSE(trace_sampled(1, 0.0, 42));
  EXPECT_FALSE(trace_sampled(1, -0.5, 42));
  EXPECT_TRUE(trace_sampled(1, 1.0, 42));
  EXPECT_TRUE(trace_sampled(1, 1.5, 42));
  // Pure function: same inputs, same answer, every time.
  for (std::uint64_t id = 1; id < 200; ++id) {
    EXPECT_EQ(trace_sampled(9, 0.3, id), trace_sampled(9, 0.3, id));
  }
}

TEST(TraceSampledTest, RateMatchesSampledFraction) {
  const double rate = 0.25;
  int sampled = 0;
  const int n = 20000;
  for (int id = 1; id <= n; ++id) {
    if (trace_sampled(3, rate, static_cast<std::uint64_t>(id))) ++sampled;
  }
  const double fraction = static_cast<double>(sampled) / n;
  EXPECT_NEAR(fraction, rate, 0.02);
}

TEST(TraceSampledTest, TwoProcessesAgree) {
  // The cross-process contract: any two tracers configured with the same
  // seed make the same decision for a given trace id.
  Registry r1, r2;
  Tracer::Params p;
  p.seed = 11;
  p.sample_rate = 0.5;
  Tracer a(p, &r1);
  Tracer b(p, &r2);
  for (int i = 0; i < 100; ++i) {
    const TraceContext ctx = a.make_root_context();
    EXPECT_EQ(ctx.sampled,
              trace_sampled(p.seed, p.sample_rate, ctx.trace_id));
  }
}

TEST(TracerTest, RootContextsAreSeedDeterministic) {
  Registry r1, r2;
  Tracer a(always_on(21), &r1);
  Tracer b(always_on(21), &r2);
  for (int i = 0; i < 32; ++i) {
    const TraceContext ca = a.make_root_context();
    const TraceContext cb = b.make_root_context();
    EXPECT_EQ(ca.trace_id, cb.trace_id) << "root " << i;
    EXPECT_NE(ca.trace_id, 0u);
  }
}

TEST(TracerTest, SpanTreeSharesTraceIdAndParentLinks) {
  Registry reg;
  Tracer tracer(always_on(), &reg);
  Span root = tracer.start_root_span(SpanKind::kClientFetch);
  ASSERT_TRUE(root.recording());
  const TraceContext root_ctx = root.context();
  EXPECT_TRUE(root_ctx.sampled);

  Span child = tracer.start_span(SpanKind::kCacheProbe, root_ctx);
  const TraceContext child_ctx = child.context();
  EXPECT_EQ(child_ctx.trace_id, root_ctx.trace_id);
  EXPECT_NE(child_ctx.span_id, root_ctx.span_id);
  Span grandchild = tracer.start_span(SpanKind::kPeerTransfer, child_ctx);
  const TraceContext gc_ctx = grandchild.context();
  grandchild.end();
  child.end();
  root.end();

  const std::vector<SpanRecord> spans = tracer.recent_spans();
  ASSERT_EQ(spans.size(), 3u);
  std::map<std::uint64_t, SpanRecord> by_id;
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.trace_id, root_ctx.trace_id);
    by_id[s.span_id] = s;
  }
  // Exactly one root; each child's parent resolves to a recorded span.
  EXPECT_EQ(by_id.at(root_ctx.span_id).parent_id, 0u);
  EXPECT_EQ(by_id.at(child_ctx.span_id).parent_id, root_ctx.span_id);
  EXPECT_EQ(by_id.at(gc_ctx.span_id).parent_id, child_ctx.span_id);
}

TEST(TracerTest, UnsampledTraceRecordsNothingButPropagates) {
  // A fractional rate leaves some traces unsampled; those must propagate a
  // coherent (unsampled) context while recording nothing.
  Registry reg;
  Tracer::Params p;
  p.seed = 5;
  p.sample_rate = 0.5;
  Tracer tracer(p, &reg);
  TraceContext ctx;
  for (int i = 0; i < 64 && !ctx.valid(); ++i) {
    const TraceContext candidate = tracer.make_root_context();
    if (!candidate.sampled) ctx = candidate;
  }
  ASSERT_TRUE(ctx.valid()) << "seed 5 produced no unsampled trace in 64";
  EXPECT_FALSE(ctx.sampled);
  Span child = tracer.start_span(SpanKind::kCacheProbe, ctx);
  EXPECT_FALSE(child.recording());
  // Callees still see the same (unsampled) context.
  EXPECT_EQ(child.context().trace_id, ctx.trace_id);
  child.end();
  EXPECT_EQ(tracer.spans_recorded(), 0u);
  // And the registry is untouched — the bit-identical-metrics contract.
  const Snapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(TracerTest, DisabledTracerRootSpanIsInert) {
  // Rate 0 is "tracing off": start_root_span must not mint a context at
  // all. FreeWhenOffTest checks the same on the runtimes that call it.
  Registry reg;
  Tracer::Params p;
  p.seed = 5;
  p.sample_rate = 0.0;
  Tracer tracer(p, &reg);
  Span root = tracer.start_root_span(SpanKind::kClientFetch);
  EXPECT_FALSE(root.recording());
  EXPECT_FALSE(root.context().valid());
  root.end();
  EXPECT_EQ(tracer.spans_recorded(), 0u);
  EXPECT_TRUE(reg.snapshot().counters.empty());
}

TEST(TracerTest, RecordSpanAdoptsForeignContext) {
  // The receive path: context learned from decoded bytes, span timed by the
  // caller.
  Registry reg;
  Tracer tracer(always_on(), &reg);
  TraceContext foreign;
  foreign.trace_id = 0xABCDEF;
  foreign.span_id = 77;
  foreign.sampled = true;
  tracer.record_span(SpanKind::kFrameRecv, foreign, 100, 250);
  const std::vector<SpanRecord> spans = tracer.recent_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 0xABCDEFu);
  EXPECT_EQ(spans[0].parent_id, 77u);
  EXPECT_EQ(spans[0].duration_ns(), 150u);

  // Unsampled foreign contexts record nothing.
  foreign.sampled = false;
  tracer.record_span(SpanKind::kFrameRecv, foreign, 100, 250);
  EXPECT_EQ(tracer.spans_recorded(), 1u);
}

TEST(TracerTest, CountsAndStageHistogramsLand) {
  Registry reg;
  Tracer tracer(always_on(), &reg);
  for (int i = 0; i < 3; ++i) {
    Span root = tracer.start_root_span(SpanKind::kClientFetch);
    Span child = tracer.start_span(SpanKind::kOriginFetch, root.context());
  }
  const Snapshot snap = reg.snapshot();
  const CounterSample* fetches =
      snap.counter("trace_spans_total", {{"kind", "client_fetch"}});
  ASSERT_NE(fetches, nullptr);
  EXPECT_EQ(fetches->value, 3u);
  const CounterSample* origins =
      snap.counter("trace_spans_total", {{"kind", "origin_fetch"}});
  ASSERT_NE(origins, nullptr);
  EXPECT_EQ(origins->value, 3u);
  std::set<std::string> stages;
  for (const HistogramSample& h : snap.histograms) {
    if (h.name != "trace_stage_seconds") continue;
    EXPECT_EQ(h.count, 3u);
    for (const auto& [k, v] : h.labels) {
      if (k == "stage") stages.insert(v);
    }
  }
  EXPECT_EQ(stages, (std::set<std::string>{"client_fetch", "origin_fetch"}));
}

TEST(TracerTest, RecentRingEvictsOldestAndCounts) {
  Registry reg;
  Tracer::Params p = always_on();
  p.recent_capacity = 4;
  Tracer tracer(p, &reg);
  std::vector<std::uint64_t> trace_ids;
  for (int i = 0; i < 7; ++i) {
    Span root = tracer.start_root_span(SpanKind::kClientFetch);
    trace_ids.push_back(root.context().trace_id);
  }
  EXPECT_EQ(tracer.spans_recorded(), 7u);
  EXPECT_EQ(tracer.spans_evicted(), 3u);
  const std::vector<SpanRecord> spans = tracer.recent_spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first unwrap: the survivors are the last four, in order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].trace_id, trace_ids[3 + i]) << "slot " << i;
  }
  // max_spans trims from the front (keeps the newest).
  const std::vector<SpanRecord> last_two = tracer.recent_spans(2);
  ASSERT_EQ(last_two.size(), 2u);
  EXPECT_EQ(last_two[1].trace_id, trace_ids.back());
}

TEST(TracerTest, SlowTracesKeepTheSlowestRoots) {
  Registry reg;
  Tracer::Params p = always_on();
  p.slow_trace_k = 2;
  Tracer tracer(p, &reg);
  // Synthesized root spans with controlled durations; record_span with a
  // parent-less sampled context produces parent_id 0 == a root.
  const std::uint64_t durations[] = {50, 500, 10, 300};
  std::uint64_t slowest = 0, second = 0;
  for (std::uint64_t d : durations) {
    TraceContext ctx = tracer.make_root_context();
    tracer.record_span(SpanKind::kClientFetch, ctx, 1000, 1000 + d);
    if (d >= 500) slowest = ctx.trace_id;
    if (d == 300) second = ctx.trace_id;
  }
  const std::vector<Tracer::SlowTrace> slow = tracer.slow_traces();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].trace_id, slowest);
  EXPECT_EQ(slow[0].root_duration_ns, 500u);
  EXPECT_EQ(slow[1].trace_id, second);
  ASSERT_EQ(slow[1].spans.size(), 1u);
}

TEST(TracerTest, ExportsSpanEventsToSink) {
  Registry reg;
  Tracer tracer(always_on(), &reg);
  MemorySink sink;
  tracer.set_sink(&sink);
  Span root = tracer.start_root_span(SpanKind::kClientFetch);
  const std::uint64_t trace_id = root.context().trace_id;
  root.end();
  const auto events = sink.named("span");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("service").as_string(), "test");
  EXPECT_EQ(events[0].at("kind").as_string(), "client_fetch");
  EXPECT_EQ(events[0].at("trace_id").as_uint(), trace_id);
}

TEST(SampleQuantileTest, InterpolatesAndClampsTails) {
  HistogramSample s;
  s.name = "h";
  s.lo = 0.0;
  s.hi = 10.0;
  s.scale = HistScale::kLinear;
  s.buckets = {10, 0, 0, 0, 0, 0, 0, 0, 0, 10};  // mass at both ends
  s.count = 20;
  EXPECT_EQ(sample_quantile(s, 0.0), 0.0);
  // Median falls between the two occupied buckets; anything in (1, 9) is a
  // defensible estimate, and the interpolation must stay inside the domain.
  const double p50 = sample_quantile(s, 0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 10.0);
  EXPECT_LE(sample_quantile(s, 1.0), 10.0);

  // Under/overflow mass resolves to the domain edges.
  HistogramSample t;
  t.lo = 1.0;
  t.hi = 2.0;
  t.buckets = {0, 0};
  t.underflow = 5;
  t.overflow = 5;
  t.count = 10;
  EXPECT_EQ(sample_quantile(t, 0.1), 1.0);
  EXPECT_EQ(sample_quantile(t, 0.9), 2.0);

  HistogramSample empty;
  empty.buckets = {0};
  EXPECT_EQ(sample_quantile(empty, 0.5), 0.0);
}

TEST(SampleQuantileTest, MonotoneInQ) {
  HistogramSample s;
  s.lo = 0.0;
  s.hi = 8.0;
  s.buckets = {1, 3, 7, 2, 5, 0, 4, 1};
  for (const std::uint64_t b : s.buckets) s.count += b;
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = sample_quantile(s, q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(WithLatencyQuantilesTest, DerivesSortedMonotoneGauges) {
  Registry reg;
  Tracer tracer(always_on(), &reg);
  TraceContext ctx = tracer.make_root_context();
  // A spread of durations so the quantiles differ.
  for (std::uint64_t us = 1; us <= 100; ++us) {
    tracer.record_span(SpanKind::kPeerTransfer, ctx, 0, us * 1000);
  }
  const Snapshot snap = with_latency_quantiles(reg.snapshot());
  std::vector<double> qs;
  for (const GaugeSample& g : snap.gauges) {
    if (g.name != "latency_quantile_seconds") continue;
    std::string q, stage;
    for (const auto& [k, v] : g.labels) {
      if (k == "q") q = v;
      if (k == "stage") stage = v;
    }
    EXPECT_EQ(stage, "peer_transfer");
    qs.push_back(g.value);
  }
  // Labels sort "p50" < "p95" < "p999" < "p99" lexically; collect by name
  // instead of relying on order for the monotonicity check.
  ASSERT_EQ(qs.size(), 4u);
  for (const double v : qs) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);  // all observations were under a millisecond * 100
  }
  // The snapshot stays sorted by (name, labels) after the append.
  for (std::size_t i = 1; i < snap.gauges.size(); ++i) {
    const auto& a = snap.gauges[i - 1];
    const auto& b = snap.gauges[i];
    EXPECT_LE(std::tie(a.name, a.labels), std::tie(b.name, b.labels));
  }
}

TEST(SortSnapshotTest, OrdersByNameThenLabels) {
  Registry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha", {{"x", "2"}}).inc();
  reg.counter("alpha", {{"x", "1"}}).inc();
  reg.gauge("mid").set(1.0);
  reg.gauge("aaa").set(2.0);
  const Snapshot snap = reg.snapshot();  // snapshot() sorts
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[0].labels, (Labels{{"x", "1"}}));
  EXPECT_EQ(snap.counters[1].labels, (Labels{{"x", "2"}}));
  EXPECT_EQ(snap.counters[2].name, "zeta");
  EXPECT_EQ(snap.gauges[0].name, "aaa");
  EXPECT_EQ(snap.gauges[1].name, "mid");
}

}  // namespace
}  // namespace baps::obs
