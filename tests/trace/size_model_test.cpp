#include "trace/size_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace baps::trace {
namespace {

TEST(SizeModelTest, DeterministicPerDocAndSeed) {
  const SizeModel m(SizeModelParams{}, 42);
  EXPECT_EQ(m.size_of(7), m.size_of(7));
  const SizeModel m2(SizeModelParams{}, 42);
  EXPECT_EQ(m.size_of(7), m2.size_of(7));
}

TEST(SizeModelTest, DifferentSeedsDecorrelate) {
  const SizeModel a(SizeModelParams{}, 1);
  const SizeModel b(SizeModelParams{}, 2);
  int same = 0;
  for (DocId d = 0; d < 200; ++d) {
    if (a.size_of(d) == b.size_of(d)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(SizeModelTest, VersionChangesSize) {
  const SizeModel m(SizeModelParams{}, 9);
  int changed = 0;
  for (DocId d = 0; d < 100; ++d) {
    if (m.size_of(d, 0) != m.size_of(d, 1)) ++changed;
  }
  // Sizes are continuous draws; essentially every mutation changes the size.
  EXPECT_GT(changed, 95);
}

TEST(SizeModelTest, RespectsBounds) {
  SizeModelParams p;
  p.min_size = 100;
  p.max_size = 1 << 20;
  const SizeModel m(p, 3);
  for (DocId d = 0; d < 20000; ++d) {
    const std::uint64_t s = m.size_of(d);
    EXPECT_GE(s, p.min_size);
    EXPECT_LE(s, p.max_size);
  }
}

TEST(SizeModelTest, MedianNearLognormalMedian) {
  const SizeModelParams p;  // mu = 8.5 → median ≈ e^8.5 ≈ 4915 bytes
  const SizeModel m(p, 5);
  std::vector<std::uint64_t> sizes;
  for (DocId d = 0; d < 20000; ++d) sizes.push_back(m.size_of(d));
  std::nth_element(sizes.begin(), sizes.begin() + 10000, sizes.end());
  const double median = static_cast<double>(sizes[10000]);
  EXPECT_GT(median, 3500.0);
  EXPECT_LT(median, 7000.0);
}

TEST(SizeModelTest, HeavyTailExists) {
  const SizeModel m(SizeModelParams{}, 6);
  constexpr DocId kDocs = 50000;
  double sum = 0.0;
  double max = 0.0;
  for (DocId d = 0; d < kDocs; ++d) {
    const auto size = static_cast<double>(m.size_of(d));
    sum += size;
    max = std::max(max, size);
  }
  const double mean = sum / kDocs;
  // Mean far above median and max far above mean are the heavy-tail
  // signatures the byte-hit-ratio experiments depend on.
  EXPECT_GT(mean, 8000.0);
  EXPECT_GT(max, 50.0 * mean);
}

}  // namespace
}  // namespace baps::trace
