#include "index/bloom.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::index {
namespace {

// The sizing and double-hashing helpers, checked through the filter that
// uses them.
TEST(BloomFilterTest, RejectsDegenerateDimensions) {
  EXPECT_THROW(CountingBloomFilter(0, 3), baps::InvariantError);
  EXPECT_THROW(CountingBloomFilter(64, 0), baps::InvariantError);
  EXPECT_THROW(CountingBloomFilter::sized_for(0, 0.01), baps::InvariantError);
  EXPECT_THROW(CountingBloomFilter::sized_for(10, 0.0), baps::InvariantError);
}

TEST(BloomFilterTest, NoFalseNegatives) {
  CountingBloomFilter f = CountingBloomFilter::sized_for(1000, 0.01);
  for (std::uint64_t k = 0; k < 1000; ++k) f.add(k * 7919);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(f.maybe_contains(k * 7919)) << k;
  }
}

TEST(BloomFilterTest, MeasuredFpRateNearTarget) {
  constexpr double kTarget = 0.01;
  CountingBloomFilter f = CountingBloomFilter::sized_for(10'000, kTarget);
  for (std::uint64_t k = 0; k < 10'000; ++k) f.add(k);
  std::uint64_t fp = 0;
  constexpr std::uint64_t kProbes = 100'000;
  for (std::uint64_t k = 0; k < kProbes; ++k) {
    if (f.maybe_contains(1'000'000 + k)) ++fp;
  }
  const double measured = static_cast<double>(fp) / kProbes;
  EXPECT_LT(measured, 3.0 * kTarget);
  // Theory at this load: (1 - e^{-kn/m})^k.
  const double k = f.hash_count();
  const double expected = std::pow(
      1.0 - std::exp(-k * static_cast<double>(f.items()) /
                     static_cast<double>(f.counter_count())),
      k);
  EXPECT_NEAR(measured, expected, 0.01);
}

TEST(BloomFilterTest, SizingFollowsTheoryRoughly) {
  // m ≈ -n ln p / (ln 2)^2 → for n=1000, p=0.01: m ≈ 9585 counters.
  CountingBloomFilter f = CountingBloomFilter::sized_for(1000, 0.01);
  EXPECT_NEAR(static_cast<double>(f.counter_count()), 9585.0, 10.0);
  EXPECT_EQ(f.hash_count(), 7u);  // k ≈ m/n ln2 ≈ 6.6 → 7
}

TEST(CountingBloomTest, AddRemoveRestoresAbsence) {
  CountingBloomFilter f(4096, 4);
  baps::Xoshiro256 rng(5);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(rng());
  for (auto k : keys) f.add(k);
  for (auto k : keys) EXPECT_TRUE(f.maybe_contains(k));
  for (auto k : keys) f.remove(k);
  EXPECT_EQ(f.items(), 0u);
  // With all counters back to zero there can be no false positives at all.
  for (auto k : keys) EXPECT_FALSE(f.maybe_contains(k));
}

TEST(CountingBloomTest, InterleavedChurnKeepsResidentsVisible) {
  CountingBloomFilter f = CountingBloomFilter::sized_for(500, 0.02);
  // Sliding window: holds [i-500, i).
  for (std::uint64_t i = 0; i < 5000; ++i) {
    f.add(i);
    if (i >= 500) f.remove(i - 500);
  }
  for (std::uint64_t i = 4500; i < 5000; ++i) {
    EXPECT_TRUE(f.maybe_contains(i)) << i;  // no false negatives, ever
  }
  EXPECT_EQ(f.items(), 500u);
}

TEST(CountingBloomTest, RemoveFromEmptyThrows) {
  CountingBloomFilter f(64, 2);
  EXPECT_THROW(f.remove(1), baps::InvariantError);
}

TEST(CountingBloomTest, SaturationIsSticky) {
  CountingBloomFilter f(4, 1);  // tiny: collisions guaranteed
  for (int i = 0; i < 100; ++i) f.add(static_cast<std::uint64_t>(i));
  EXPECT_TRUE(f.overflowed());
}

TEST(CountingBloomTest, FourBitsPerCounter) {
  EXPECT_EQ(CountingBloomFilter(100, 3).byte_size(), 50u);
  EXPECT_EQ(CountingBloomFilter(101, 3).byte_size(), 51u);
}

}  // namespace
}  // namespace baps::index
