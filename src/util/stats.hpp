// Streaming statistics accumulators used throughout the simulator and the
// benchmark harnesses: ratio counters and a fixed-resolution histogram good
// enough for latency distributions.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace baps {

/// Numerator/denominator pair reported as a percentage; the shape of every
/// hit-ratio metric in the paper.
class RatioCounter {
 public:
  void hit(std::uint64_t weight = 1) {
    hits_ += weight;
    total_ += weight;
  }
  void miss(std::uint64_t weight = 1) { total_ += weight; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t total() const { return total_; }

  /// Ratio in [0,1]; 0 when empty.
  double ratio() const {
    return total_ ? static_cast<double>(hits_) / static_cast<double>(total_)
                  : 0.0;
  }
  double percent() const { return 100.0 * ratio(); }

 private:
  std::uint64_t hits_ = 0;
  std::uint64_t total_ = 0;
};

/// Fixed-width linear histogram over [lo, hi) with explicit under/overflow
/// buckets: out-of-range samples are counted separately instead of clamped
/// into the edge buckets, so totals always balance AND the interior
/// distribution stays honest about its tails.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets)
      : lo_(lo), hi_(hi), counts_(buckets, 0) {
    BAPS_REQUIRE(hi > lo, "histogram range must be nonempty");
    BAPS_REQUIRE(buckets > 0, "histogram needs at least one bucket");
  }

  void add(double x) {
    ++n_;
    if (x < lo_) {
      ++underflow_;
      return;
    }
    if (x >= hi_) {
      ++overflow_;
      return;
    }
    const double t = (x - lo_) / (hi_ - lo_);
    auto idx = static_cast<std::size_t>(t * static_cast<double>(counts_.size()));
    // Floating-point rounding can push t*buckets to exactly buckets even
    // though x < hi; keep such samples in the last interior bucket.
    if (idx >= counts_.size()) idx = counts_.size() - 1;
    ++counts_[idx];
  }

  /// Total samples, under/overflow included.
  std::uint64_t count() const { return n_; }
  /// Interior buckets only (under/overflow excluded).
  const std::vector<std::uint64_t>& buckets() const { return counts_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

  /// Linear-interpolated quantile, q in [0,1]. Well-defined at the edges:
  /// quantile mass in the underflow bucket resolves to lo and overflow mass
  /// to hi, so the result is always within [lo, hi].
  double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t n_ = 0;
};

}  // namespace baps
