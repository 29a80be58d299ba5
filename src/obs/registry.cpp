#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace baps::obs {

Histogram::Histogram(double lo, double hi, std::size_t buckets,
                     HistScale scale)
    : lo_(lo), hi_(hi), scale_(scale), counts_(buckets) {
  BAPS_REQUIRE(hi > lo, "histogram range must be nonempty");
  BAPS_REQUIRE(buckets > 0, "histogram needs at least one bucket");
}

void Histogram::observe(double x) {
  atomic_add_double(sum_, x);
  count_.fetch_add(1, std::memory_order_relaxed);
  double t = x;
  if (scale_ == HistScale::kLog10) {
    if (x <= 0.0) {
      underflow_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    t = std::log10(x);
  }
  if (t < lo_) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (t >= hi_) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const double frac = (t - lo_) / (hi_ - lo_);
  auto idx =
      static_cast<std::size_t>(frac * static_cast<double>(counts_.size()));
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // t just below hi_
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  underflow_.store(0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// --------------------------------------------------------------------------

const CounterSample* Snapshot::counter(const std::string& name,
                                       const Labels& labels) const {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& c : counters) {
    if (c.name == name && c.labels == sorted) return &c;
  }
  return nullptr;
}

namespace {

template <typename Sample>
bool sample_less(const Sample& a, const Sample& b) {
  if (a.name != b.name) return a.name < b.name;
  return a.labels < b.labels;
}

JsonValue labels_json(const Labels& labels) {
  JsonObject o;
  for (const auto& [k, v] : labels) o.emplace_back(k, JsonValue(v));
  return JsonValue(std::move(o));
}

}  // namespace

void sort_snapshot(Snapshot& snapshot) {
  std::stable_sort(snapshot.counters.begin(), snapshot.counters.end(),
                   sample_less<CounterSample>);
  std::stable_sort(snapshot.gauges.begin(), snapshot.gauges.end(),
                   sample_less<GaugeSample>);
  std::stable_sort(snapshot.histograms.begin(), snapshot.histograms.end(),
                   sample_less<HistogramSample>);
}

double sample_quantile(const HistogramSample& sample, double q) {
  if (sample.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(sample.count);
  const auto value_at = [&](double t) {
    // t is a position in the bucket domain; undo the scale.
    return sample.scale == HistScale::kLog10 ? std::pow(10.0, t) : t;
  };
  double seen = static_cast<double>(sample.underflow);
  if (target <= seen) return value_at(sample.lo);
  const double width = (sample.hi - sample.lo) /
                       static_cast<double>(sample.buckets.size());
  for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
    const double n = static_cast<double>(sample.buckets[i]);
    if (target <= seen + n && n > 0.0) {
      const double frac = (target - seen) / n;
      const double t = sample.lo + (static_cast<double>(i) + frac) * width;
      return value_at(t);
    }
    seen += n;
  }
  return value_at(sample.hi);
}

JsonValue to_json(const Snapshot& snapshot) {
  JsonArray counters;
  for (const auto& c : snapshot.counters) {
    counters.push_back(json_object({{"name", JsonValue(c.name)},
                                    {"labels", labels_json(c.labels)},
                                    {"value", JsonValue(c.value)}}));
  }
  JsonArray gauges;
  for (const auto& g : snapshot.gauges) {
    gauges.push_back(json_object({{"name", JsonValue(g.name)},
                                  {"labels", labels_json(g.labels)},
                                  {"value", JsonValue(g.value)}}));
  }
  JsonArray histograms;
  for (const auto& h : snapshot.histograms) {
    JsonArray buckets(h.buckets.begin(), h.buckets.end());
    JsonValue hist;
    hist.set("name", JsonValue(h.name));
    hist.set("labels", labels_json(h.labels));
    hist.set("lo", JsonValue(h.lo));
    hist.set("hi", JsonValue(h.hi));
    hist.set("scale",
             JsonValue(h.scale == HistScale::kLog10 ? "log10" : "linear"));
    hist.set("underflow", JsonValue(h.underflow));
    hist.set("overflow", JsonValue(h.overflow));
    hist.set("buckets", JsonValue(std::move(buckets)));
    hist.set("count", JsonValue(h.count));
    hist.set("sum", JsonValue(h.sum));
    histograms.push_back(std::move(hist));
  }
  return json_object({{"counters", JsonValue(std::move(counters))},
                      {"gauges", JsonValue(std::move(gauges))},
                      {"histograms", JsonValue(std::move(histograms))}});
}

// --------------------------------------------------------------------------

std::string Registry::key_of(const std::string& name, const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  for (const auto& [k, v] : sorted) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  std::scoped_lock lock(mu_);
  auto [it, inserted] = counters_.try_emplace(key_of(name, labels));
  if (inserted) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    it->second = {name, std::move(sorted), std::make_unique<Counter>()};
  }
  return *it->second.instrument;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  std::scoped_lock lock(mu_);
  auto [it, inserted] = gauges_.try_emplace(key_of(name, labels));
  if (inserted) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    it->second = {name, std::move(sorted), std::make_unique<Gauge>()};
  }
  return *it->second.instrument;
}

Histogram& Registry::histogram(const std::string& name, double lo, double hi,
                               std::size_t buckets, HistScale scale,
                               const Labels& labels) {
  std::scoped_lock lock(mu_);
  auto [it, inserted] = histograms_.try_emplace(key_of(name, labels));
  if (inserted) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    it->second = {name, std::move(sorted),
                  std::make_unique<Histogram>(lo, hi, buckets, scale)};
  } else {
    const Histogram& h = *it->second.instrument;
    BAPS_REQUIRE(h.lo() == lo && h.hi() == hi && h.num_buckets() == buckets &&
                     h.scale() == scale,
                 "histogram re-registered with different parameters");
  }
  return *it->second.instrument;
}

Snapshot Registry::snapshot() const {
  std::scoped_lock lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [key, e] : counters_) {
    snap.counters.push_back({e.name, e.labels, e.instrument->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, e] : gauges_) {
    snap.gauges.push_back({e.name, e.labels, e.instrument->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, e] : histograms_) {
    const Histogram& h = *e.instrument;
    HistogramSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.lo = h.lo();
    s.hi = h.hi();
    s.scale = h.scale();
    s.underflow = h.underflow();
    s.overflow = h.overflow();
    s.buckets.resize(h.num_buckets());
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      s.buckets[i] = h.bucket(i);
    }
    s.count = h.count();
    s.sum = h.sum();
    snap.histograms.push_back(std::move(s));
  }
  // The maps iterate in key_of order, which is already (name, labels) — but
  // exporters depend on the ordering contract, so enforce it explicitly
  // rather than leaning on an encoding detail of the key format.
  sort_snapshot(snap);
  return snap;
}

void Registry::reset() {
  std::scoped_lock lock(mu_);
  for (auto& [key, e] : counters_) e.instrument->reset();
  for (auto& [key, e] : gauges_) e.instrument->reset();
  for (auto& [key, e] : histograms_) e.instrument->reset();
}

Registry& Registry::global() {
  static Registry* registry = new Registry();  // leaked: outlives all users
  return *registry;
}

}  // namespace baps::obs
