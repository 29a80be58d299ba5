#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/thread_pool.hpp"

namespace baps::obs {
namespace {

TEST(RegistryTest, CounterHandleIsStableAndSums) {
  Registry reg;
  Counter& c = reg.counter("requests_total");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name+labels resolves to the same instrument.
  EXPECT_EQ(&reg.counter("requests_total"), &c);
}

TEST(RegistryTest, LabelsDistinguishFamilyMembers) {
  Registry reg;
  Counter& a = reg.counter("hits", {{"org", "baps"}, {"loc", "proxy"}});
  // Label order must not matter: normalized by key.
  Counter& a2 = reg.counter("hits", {{"loc", "proxy"}, {"org", "baps"}});
  Counter& b = reg.counter("hits", {{"org", "baps"}, {"loc", "peer"}});
  EXPECT_EQ(&a, &a2);
  EXPECT_NE(&a, &b);
  a.inc(3);
  b.inc(5);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  const auto* sa = snap.counter("hits", {{"loc", "proxy"}, {"org", "baps"}});
  ASSERT_NE(sa, nullptr);
  EXPECT_EQ(sa->value, 3u);
}

TEST(RegistryTest, ConcurrentIncrementsSumExactly) {
  Registry reg;
  Counter& c = reg.counter("bumps_total");
  Gauge& g = reg.gauge("accumulated");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIncsPerThread = 10000;
  {
    ThreadPool pool(kThreads);
    pool.parallel_for(kThreads, [&](std::size_t) {
      for (std::size_t i = 0; i < kIncsPerThread; ++i) {
        c.inc();
        g.add(1.0);
      }
    });
  }
  EXPECT_EQ(c.value(), kThreads * kIncsPerThread);
  EXPECT_DOUBLE_EQ(reg.gauge("accumulated").value(),
                   static_cast<double>(kThreads * kIncsPerThread));
}

TEST(RegistryTest, HistogramUnderOverflowEdges) {
  Registry reg;
  Histogram& h = reg.histogram("lat", 0.0, 10.0, 10);
  h.observe(-0.5);  // below lo
  h.observe(0.0);   // first interior bucket edge
  h.observe(9.999);
  h.observe(10.0);  // hi is exclusive -> overflow
  h.observe(1e9);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(RegistryTest, Log10HistogramPlacesDecades) {
  Registry reg;
  Histogram& h = reg.histogram("t", -6.0, 3.0, 9, HistScale::kLog10);
  h.observe(1e-7);  // log10 = -7 -> underflow
  h.observe(1e-6);  // -6 -> bucket 0
  h.observe(1.0);   // 0 -> bucket 6
  h.observe(0.0);   // nonpositive -> underflow by convention
  h.observe(1e4);   // 4 -> overflow
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(6), 1u);
  EXPECT_EQ(h.count(), 5u);
}

TEST(RegistryTest, RegistryResetClearsValuesKeepsInstruments) {
  Registry reg;
  Counter& c = reg.counter("n");
  Gauge& g = reg.gauge("v");
  Histogram& h = reg.histogram("h", 0.0, 1.0, 4);
  c.inc(7);
  g.set(3.5);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(&reg.counter("n"), &c);  // handle survives reset
}

TEST(RegistryTest, SnapshotExportsJson) {
  Registry reg;
  reg.counter("reqs", {{"org", "baps"}}).inc(2);
  reg.gauge("depth").set(1.5);
  reg.histogram("h", 0.0, 2.0, 2).observe(0.5);
  const Snapshot snap = reg.snapshot();

  const JsonValue j = to_json(snap);
  ASSERT_NE(j.find("counters"), nullptr);
  ASSERT_EQ(j.at("counters").as_array().size(), 1u);
  const JsonValue& reqs = j.at("counters").as_array()[0];
  EXPECT_EQ(reqs.at("value").as_uint(), 2u);
  EXPECT_EQ(reqs.at("labels").at("org").as_string(), "baps");
  ASSERT_EQ(j.at("gauges").as_array().size(), 1u);
  EXPECT_DOUBLE_EQ(j.at("gauges").as_array()[0].at("value").as_double(), 1.5);
  ASSERT_EQ(j.at("histograms").as_array().size(), 1u);
  EXPECT_EQ(j.at("histograms").as_array()[0].at("count").as_uint(), 1u);
}

TEST(RegistryTest, GlobalRegistryIsSingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(RegistryTest, ConcurrentGaugeAddSubLandsExactly) {
  // Gauge::add/sub must be a single atomic RMW (native fetch_add or the CAS
  // fallback): with adders and subtractors racing, a torn read-modify-write
  // would lose updates and the final value would drift off zero.
  Registry reg;
  Gauge& g = reg.gauge("contended");
  constexpr std::size_t kThreads = 8;  // half add, half sub
  constexpr std::size_t kOpsPerThread = 20000;
  {
    ThreadPool pool(kThreads);
    pool.parallel_for(kThreads, [&](std::size_t t) {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        if (t % 2 == 0) {
          g.add(1.5);
        } else {
          g.sub(1.5);
        }
      }
    });
  }
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(RegistryTest, AddDoubleCasFallbackMatchesNativePath) {
  // The CAS loop is the portability fallback for toolchains without
  // __cpp_lib_atomic_float; exercise it directly so the rarely-compiled
  // path stays correct on toolchains that never select it.
  std::atomic<double> v{1.25};
  detail::add_double_cas(v, 2.5);
  detail::add_double_cas(v, -0.75);
  EXPECT_DOUBLE_EQ(v.load(), 3.0);

  std::atomic<double> contended{0.0};
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 20000;
  {
    ThreadPool pool(kThreads);
    pool.parallel_for(kThreads, [&](std::size_t) {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        detail::add_double_cas(contended, 0.5);
      }
    });
  }
  EXPECT_DOUBLE_EQ(contended.load(),
                   0.5 * static_cast<double>(kThreads * kOpsPerThread));
}

}  // namespace
}  // namespace baps::obs
