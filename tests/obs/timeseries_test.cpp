#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"

namespace baps::obs {
namespace {

const JsonValue* find_named(const JsonValue& rec, const char* section,
                            const std::string& name) {
  const JsonValue* arr = rec.find(section);
  if (arr == nullptr || !arr->is_array()) return nullptr;
  for (const JsonValue& e : arr->as_array()) {
    if (e.at("name").as_string() == name) return &e;
  }
  return nullptr;
}

std::vector<JsonValue> parse_lines(const std::string& jsonl) {
  std::vector<JsonValue> out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string error;
    auto parsed = json_parse(line, &error);
    EXPECT_TRUE(parsed.has_value()) << error << " in: " << line;
    if (parsed) out.push_back(std::move(*parsed));
  }
  return out;
}

TEST(TimeseriesRecordTest, FirstRecordDeltaEqualsValueWithZeroRate) {
  Snapshot cur;
  cur.counters.push_back({"requests_total", {}, 5});
  const JsonValue rec = timeseries_record(Snapshot{}, cur, 0.0, 12.5, 0);
  EXPECT_EQ(rec.at("schema").as_string(), kTimeSeriesSchema);
  EXPECT_EQ(rec.at("seq").as_uint(), 0u);
  const JsonValue* c = find_named(rec, "counters", "requests_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->at("value").as_uint(), 5u);
  EXPECT_EQ(c->at("delta").as_uint(), 5u);
  EXPECT_DOUBLE_EQ(c->at("per_second").as_double(), 0.0);
}

TEST(TimeseriesRecordTest, CounterDeltaAndRate) {
  Snapshot prev, cur;
  prev.counters.push_back({"requests_total", {}, 10});
  cur.counters.push_back({"requests_total", {}, 30});
  const JsonValue rec = timeseries_record(prev, cur, 2.0, 20.0, 3);
  const JsonValue* c = find_named(rec, "counters", "requests_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->at("delta").as_uint(), 20u);
  EXPECT_DOUBLE_EQ(c->at("per_second").as_double(), 10.0);
}

TEST(TimeseriesRecordTest, CounterResetRebaselines) {
  Snapshot prev, cur;
  prev.counters.push_back({"requests_total", {}, 100});
  cur.counters.push_back({"requests_total", {}, 5});
  const JsonValue rec = timeseries_record(prev, cur, 1.0, 1.0, 1);
  const JsonValue* c = find_named(rec, "counters", "requests_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->at("delta").as_uint(), 5u);
  EXPECT_DOUBLE_EQ(c->at("per_second").as_double(), 5.0);
}

TEST(TimeseriesRecordTest, InstrumentRegisteredMidIntervalDeltasAgainstZero) {
  Snapshot prev, cur;
  prev.counters.push_back({"alpha_total", {}, 7});
  cur.counters.push_back({"alpha_total", {}, 7});
  cur.counters.push_back({"beta_total", {}, 4});
  const JsonValue rec = timeseries_record(prev, cur, 1.0, 1.0, 1);
  const JsonValue* a = find_named(rec, "counters", "alpha_total");
  const JsonValue* b = find_named(rec, "counters", "beta_total");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->at("delta").as_uint(), 0u);
  EXPECT_EQ(b->at("delta").as_uint(), 4u);
}

TEST(TimeseriesRecordTest, HistogramDeltaQuantilesDescribeOnlyTheInterval) {
  Registry reg;
  Histogram& h = reg.histogram("latency_seconds", 0.0, 10.0, 10);
  // First interval: a cluster at 1s.
  for (int i = 0; i < 50; ++i) h.observe(1.0);
  const Snapshot prev = reg.snapshot();
  // Second interval: a cluster at 9s. The delta distribution must forget
  // the 1s samples entirely.
  for (int i = 0; i < 50; ++i) h.observe(9.0);
  const Snapshot cur = reg.snapshot();
  const JsonValue rec = timeseries_record(prev, cur, 1.0, 2.0, 1);
  const JsonValue* e = find_named(rec, "histograms", "latency_seconds");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->at("count").as_uint(), 100u);
  EXPECT_EQ(e->at("count_delta").as_uint(), 50u);
  EXPECT_NEAR(e->at("sum_delta").as_double(), 450.0, 1e-9);
  EXPECT_GE(e->at("p50").as_double(), 9.0);
  EXPECT_LE(e->at("p50").as_double(), 10.0);
  EXPECT_LE(e->at("p50").as_double(), e->at("p95").as_double());
  EXPECT_LE(e->at("p95").as_double(), e->at("p99").as_double());
}

TEST(TimeseriesRecordTest, HistogramResetTreatsPrevAsEmpty) {
  Registry reg;
  Histogram& h = reg.histogram("latency_seconds", 0.0, 10.0, 10);
  for (int i = 0; i < 5; ++i) h.observe(2.0);
  const Snapshot prev = reg.snapshot();
  h.reset();
  h.observe(4.0);
  h.observe(4.0);
  const Snapshot cur = reg.snapshot();
  const JsonValue rec = timeseries_record(prev, cur, 1.0, 2.0, 1);
  const JsonValue* e = find_named(rec, "histograms", "latency_seconds");
  ASSERT_NE(e, nullptr);
  // cur.count (2) < prev.count (5): the interval re-baselines to cur alone.
  EXPECT_EQ(e->at("count_delta").as_uint(), 2u);
  EXPECT_GE(e->at("p50").as_double(), 4.0);
  EXPECT_LE(e->at("p99").as_double(), 5.0);
}

TEST(TimeSeriesSamplerTest, ManualTicksExportAValidStream) {
  Registry reg;
  Counter& c = reg.counter("ticks_total");
  std::ostringstream sink;
  TimeSeriesSampler::Params params;
  params.interval_seconds = 3600.0;  // never fires on its own
  TimeSeriesSampler sampler(params, &reg);
  sampler.set_sink(&sink);
  sampler.sample_now();  // seq 0 baseline
  c.inc(10);
  sampler.sample_now();
  c.inc(5);
  sampler.sample_now();
  EXPECT_EQ(sampler.intervals_captured(), 3u);

  const std::vector<JsonValue> lines = parse_lines(sink.str());
  ASSERT_EQ(lines.size(), 3u);
  std::string error;
  EXPECT_TRUE(validate_timeseries_lines(lines, &error)) << error;
  const JsonValue* c1 = find_named(lines[1], "counters", "ticks_total");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->at("delta").as_uint(), 10u);
  const JsonValue* c2 = find_named(lines[2], "counters", "ticks_total");
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c2->at("delta").as_uint(), 5u);
  EXPECT_EQ(c2->at("value").as_uint(), 15u);
}

TEST(TimeSeriesSamplerTest, StartStopThreadProducesValidStream) {
  Registry reg;
  Counter& c = reg.counter("work_total");
  std::ostringstream sink;
  TimeSeriesSampler::Params params;
  params.interval_seconds = 0.01;
  TimeSeriesSampler sampler(params, &reg);
  sampler.set_sink(&sink);
  sampler.start();
  for (int i = 0; i < 5; ++i) {
    c.inc(100);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  for (int i = 0; i < 5000 && sampler.intervals_captured() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  sampler.stop();  // idempotent

  const std::vector<JsonValue> lines = parse_lines(sink.str());
  // seq-0 baseline + the final flush tick, plus at least one periodic tick.
  ASSERT_GE(lines.size(), 3u);
  // The sampler's cost is in its own stream: each record its thread took
  // lists "ts_sampler", while the baseline and the final record, which
  // start() and stop() took on this thread, do not.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bool by_thread = i > 0 && i + 1 < lines.size();
    EXPECT_EQ(find_named(lines[i].at("process"), "threads", "ts_sampler") !=
                  nullptr,
              by_thread)
        << "record " << i;
  }
  std::string error;
  EXPECT_TRUE(validate_timeseries_lines(lines, &error)) << error;
  // The final tick captured the end state: all 500 increments accounted for.
  const JsonValue* last =
      find_named(lines.back(), "counters", "work_total");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->at("value").as_uint(), 500u);
  // Process self-profiling rode along.
  const JsonValue* proc = lines.back().find("process");
  ASSERT_NE(proc, nullptr);
  EXPECT_TRUE(proc->find("cpu_seconds")->is_number());
}

TEST(TimeSeriesSamplerTest, WindowJsonBoundsAndOrdersTheRing) {
  Registry reg;
  Counter& c = reg.counter("n_total");
  TimeSeriesSampler::Params params;
  params.interval_seconds = 3600.0;
  params.ring_capacity = 4;
  TimeSeriesSampler sampler(params, &reg);
  for (int i = 0; i < 7; ++i) {
    c.inc();
    sampler.sample_now();
  }
  const JsonValue all = sampler.window_json();
  EXPECT_EQ(all.at("schema").as_string(), kTimeSeriesWindowSchema);
  ASSERT_EQ(all.at("intervals").as_array().size(), 4u);  // ring-capped
  // Oldest-first: seq strictly increasing across the window.
  const auto& intervals = all.at("intervals").as_array();
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    EXPECT_LT(intervals[i - 1].at("seq").as_uint(),
              intervals[i].at("seq").as_uint());
  }
  EXPECT_EQ(intervals.back().at("seq").as_uint(), 6u);

  const JsonValue two = sampler.window_json(2);
  ASSERT_EQ(two.at("intervals").as_array().size(), 2u);
  EXPECT_EQ(two.at("intervals").as_array().back().at("seq").as_uint(), 6u);
}

TEST(TimeseriesValidatorTest, RejectsEmptyAndBadFirstSeq) {
  std::string error;
  EXPECT_FALSE(validate_timeseries_lines({}, &error));

  Snapshot cur;
  cur.counters.push_back({"a_total", {}, 1});
  const JsonValue rec = timeseries_record(Snapshot{}, cur, 0.0, 1.0, 7);
  EXPECT_FALSE(validate_timeseries_lines({rec}, &error));
  EXPECT_NE(error.find("seq 0"), std::string::npos);
}

TEST(TimeseriesValidatorTest, RejectsDeltaInconsistentWithPreviousRecord) {
  Snapshot a, b, c;
  a.counters.push_back({"a_total", {}, 10});
  b.counters.push_back({"a_total", {}, 3});  // not what record 1 reported
  c.counters.push_back({"a_total", {}, 30});
  const JsonValue r0 = timeseries_record(Snapshot{}, a, 0.0, 1.0, 0);
  // This record's delta (27) disagrees with the cross-record expectation
  // (30 - 10 = 20): the stream lies about its own history.
  const JsonValue r1 = timeseries_record(b, c, 1.0, 2.0, 1);
  std::string error;
  EXPECT_FALSE(validate_timeseries_lines({r0, r1}, &error));
  EXPECT_NE(error.find("delta inconsistent"), std::string::npos);
}

TEST(TimeseriesValidatorTest, RejectsTimeGoingBackwards) {
  Snapshot a;
  a.counters.push_back({"a_total", {}, 1});
  const JsonValue r0 = timeseries_record(Snapshot{}, a, 0.0, 5.0, 0);
  const JsonValue r1 = timeseries_record(a, a, 1.0, 4.0, 1);
  std::string error;
  EXPECT_FALSE(validate_timeseries_lines({r0, r1}, &error));
  EXPECT_NE(error.find("backwards"), std::string::npos);
}

}  // namespace
}  // namespace baps::obs
