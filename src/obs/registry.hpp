// Thread-safe metrics registry: named, labeled families of counters, gauges,
// and histograms. Handles are resolved once (a mutex-protected map lookup)
// and are then lock-free atomics, cheap enough for hot paths — the thread
// pool, the object caches, and the experiment runner all bump them.
//
// A process-wide default registry (Registry::global()) mirrors the usual
// metrics-library shape: instrumented components publish there unless handed
// an explicit registry, and report writers snapshot it. snapshot() is a
// consistent-enough copy for reporting (individual values are atomic loads);
// reset() zeroes every instrument, which tests use for isolation.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace baps::obs {

/// Sorted key/value label pairs, e.g. {{"org","baps"},{"location","proxy"}}.
/// Order given by the caller is normalized (sorted by key) so the same label
/// set always names the same instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/// CAS loop for atomically adding to a double. The exposed fallback for
/// toolchains without native atomic<double> fetch_add (a C++20 library
/// feature, advertised via __cpp_lib_atomic_float); also unit-tested
/// directly so the rarely-compiled path stays correct everywhere.
inline void add_double_cas(std::atomic<double>& v, double dx) {
  double cur = v.load(std::memory_order_relaxed);
  while (!v.compare_exchange_weak(cur, cur + dx, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Atomic v += dx: native fetch_add where the standard library provides the
/// floating-point overload, CAS loop otherwise. Relaxed ordering either way —
/// instruments are independent cells, not synchronization points.
inline void atomic_add_double(std::atomic<double>& v, double dx) {
#if defined(__cpp_lib_atomic_float)
  v.fetch_add(dx, std::memory_order_relaxed);
#else
  detail::add_double_cas(v, dx);
#endif
}

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, worker count, accumulated seconds).
class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  void add(double dx) { atomic_add_double(v_, dx); }
  void sub(double dx) { atomic_add_double(v_, -dx); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// How a histogram maps an observation onto its [lo, hi) bucket domain.
enum class HistScale {
  kLinear,  ///< buckets over x directly
  kLog10,   ///< buckets over log10(x); x <= 0 counts as underflow
};

/// Fixed-bucket concurrent histogram with explicit under/overflow buckets,
/// total count, and raw sum (for means). Observations never clamp: samples
/// outside [lo, hi) land in the under/overflow buckets so the exported
/// distribution is honest about its tails.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets,
            HistScale scale = HistScale::kLinear);

  void observe(double x);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  HistScale scale() const { return scale_; }
  std::size_t num_buckets() const { return counts_.size(); }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t underflow() const {
    return underflow_.load(std::memory_order_relaxed);
  }
  std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  void reset();

 private:
  double lo_;
  double hi_;
  HistScale scale_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// --------------------------------------------------------------------------
// Snapshots: plain-value copies for exporting.

struct CounterSample {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  Labels labels;
  double lo = 0.0;
  double hi = 0.0;
  HistScale scale = HistScale::kLinear;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;

  double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};

struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// First counter matching name+labels, nullptr if absent.
  const CounterSample* counter(const std::string& name,
                               const Labels& labels = {}) const;
};

/// Sorts every sample vector by (name, labels). Registry::snapshot() output
/// is already sorted; call this after appending derived samples so exported
/// reports stay byte-stable (diffs, federation merges).
void sort_snapshot(Snapshot& snapshot);

/// Quantile estimate (q in [0,1]) from a histogram sample, with linear
/// interpolation inside the chosen bucket. Underflow mass resolves to the
/// domain's low edge and overflow mass to the high edge — tails stay honest
/// but bounded. kLog10 samples are mapped back to the value domain, so the
/// result is in the observed units (e.g. seconds), not log-seconds.
/// Returns 0 for an empty sample.
double sample_quantile(const HistogramSample& sample, double q);

/// JSON exposition used inside report files.
JsonValue to_json(const Snapshot& snapshot);

// --------------------------------------------------------------------------

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolve-once instrument handles. The returned references live as long
  /// as the registry; repeated calls with the same name+labels return the
  /// same instrument. Histogram parameters must agree across calls.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t buckets,
                       HistScale scale = HistScale::kLinear,
                       const Labels& labels = {});

  Snapshot snapshot() const;

  /// Zeroes every registered instrument (instruments stay registered, so
  /// resolved handles remain valid).
  void reset();

  /// The process-wide default registry instrumented components publish to.
  static Registry& global();

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> instrument;
  };

  static std::string key_of(const std::string& name, const Labels& labels);

  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

}  // namespace baps::obs
