#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace baps {
namespace {

TEST(RatioCounterTest, EmptyRatioIsZero) {
  RatioCounter r;
  EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
}

TEST(RatioCounterTest, CountsHitsAndMisses) {
  RatioCounter r;
  r.hit();
  r.hit();
  r.miss();
  r.miss();
  EXPECT_EQ(r.hits(), 2u);
  EXPECT_EQ(r.total(), 4u);
  EXPECT_DOUBLE_EQ(r.ratio(), 0.5);
  EXPECT_DOUBLE_EQ(r.percent(), 50.0);
}

TEST(RatioCounterTest, WeightedCountsModelByteRatios) {
  RatioCounter r;
  r.hit(1000);   // 1000 bytes hit
  r.miss(3000);  // 3000 bytes missed
  EXPECT_DOUBLE_EQ(r.ratio(), 0.25);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), InvariantError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvariantError);
}

TEST(HistogramTest, OutOfRangeLandsInUnderOverflowBuckets) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(50.0);
  h.add(10.0);  // hi is exclusive
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.buckets().front(), 0u);
  EXPECT_EQ(h.buckets().back(), 0u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(HistogramTest, QuantileWellDefinedWithUnderOverflowMass) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);  // underflow
  h.add(5.1);   // interior
  h.add(99.0);  // overflow
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  // The median sample is the interior one.
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
}

TEST(HistogramTest, MedianOfUniformIsCenter) {
  Histogram h(0.0, 1.0, 100);
  Xoshiro256 rng(8);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
}

TEST(HistogramTest, QuantileBoundsChecked) {
  Histogram h(0.0, 1.0, 10);
  EXPECT_THROW(h.quantile(-0.1), InvariantError);
  EXPECT_THROW(h.quantile(1.1), InvariantError);
}

}  // namespace
}  // namespace baps
