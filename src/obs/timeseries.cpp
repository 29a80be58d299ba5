#include "obs/timeseries.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <ostream>
#include <utility>

#include "obs/proc_stats.hpp"
#include "obs/timer.hpp"

namespace baps::obs {

namespace {

JsonValue labels_json(const Labels& labels) {
  JsonObject o;
  for (const auto& [k, v] : labels) o.emplace_back(k, JsonValue(v));
  return JsonValue(std::move(o));
}

// (name, labels) ordering shared by all snapshot sample vectors; snapshots
// arrive sorted (Registry::snapshot contract), which the lockstep merges
// below depend on.
template <typename Sample>
int sample_cmp(const Sample& a, const Sample& b) {
  if (a.name != b.name) return a.name < b.name ? -1 : 1;
  if (a.labels != b.labels) return a.labels < b.labels ? -1 : 1;
  return 0;
}

/// Bucket-wise clamped difference cur - prev; a reset (cur.count <
/// prev.count) treats prev as empty so the interval re-baselines instead of
/// going negative.
HistogramSample histogram_delta(const HistogramSample* prev,
                                const HistogramSample& cur) {
  HistogramSample d = cur;
  if (prev == nullptr || cur.count < prev->count ||
      prev->buckets.size() != cur.buckets.size()) {
    return d;
  }
  d.count = cur.count - prev->count;
  d.sum = cur.sum - prev->sum;
  d.underflow =
      cur.underflow >= prev->underflow ? cur.underflow - prev->underflow : 0;
  d.overflow =
      cur.overflow >= prev->overflow ? cur.overflow - prev->overflow : 0;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = cur.buckets[i] >= prev->buckets[i]
                       ? cur.buckets[i] - prev->buckets[i]
                       : 0;
  }
  return d;
}

}  // namespace

JsonValue timeseries_record(const Snapshot& prev, const Snapshot& cur,
                            double interval_seconds, double at_seconds,
                            std::uint64_t seq) {
  JsonValue rec = json_object({});
  rec.set("schema", JsonValue(kTimeSeriesSchema));
  rec.set("seq", JsonValue(seq));
  rec.set("at_seconds", JsonValue(at_seconds));
  rec.set("interval_seconds", JsonValue(interval_seconds));

  JsonArray counters;
  {
    std::size_t j = 0;
    for (const CounterSample& c : cur.counters) {
      while (j < prev.counters.size() &&
             sample_cmp(prev.counters[j], c) < 0) {
        ++j;
      }
      std::uint64_t before = 0;
      if (j < prev.counters.size() && sample_cmp(prev.counters[j], c) == 0) {
        before = prev.counters[j].value;
      }
      // Reset (value < before) re-baselines: the whole current value is the
      // interval's delta.
      const std::uint64_t delta =
          c.value >= before ? c.value - before : c.value;
      const double rate = interval_seconds > 0.0
                              ? static_cast<double>(delta) / interval_seconds
                              : 0.0;
      counters.push_back(json_object({{"name", JsonValue(c.name)},
                                      {"labels", labels_json(c.labels)},
                                      {"value", JsonValue(c.value)},
                                      {"delta", JsonValue(delta)},
                                      {"per_second", JsonValue(rate)}}));
    }
  }
  rec.set("counters", JsonValue(std::move(counters)));

  JsonArray gauges;
  for (const GaugeSample& g : cur.gauges) {
    gauges.push_back(json_object({{"name", JsonValue(g.name)},
                                  {"labels", labels_json(g.labels)},
                                  {"value", JsonValue(g.value)}}));
  }
  rec.set("gauges", JsonValue(std::move(gauges)));

  JsonArray histograms;
  {
    std::size_t j = 0;
    for (const HistogramSample& h : cur.histograms) {
      while (j < prev.histograms.size() &&
             sample_cmp(prev.histograms[j], h) < 0) {
        ++j;
      }
      const HistogramSample* before = nullptr;
      if (j < prev.histograms.size() &&
          sample_cmp(prev.histograms[j], h) == 0) {
        before = &prev.histograms[j];
      }
      const HistogramSample d = histogram_delta(before, h);
      histograms.push_back(json_object(
          {{"name", JsonValue(h.name)},
           {"labels", labels_json(h.labels)},
           {"count", JsonValue(h.count)},
           {"count_delta", JsonValue(d.count)},
           {"sum_delta", JsonValue(d.sum)},
           {"p50", JsonValue(sample_quantile(d, 0.50))},
           {"p95", JsonValue(sample_quantile(d, 0.95))},
           {"p99", JsonValue(sample_quantile(d, 0.99))}}));
    }
  }
  rec.set("histograms", JsonValue(std::move(histograms)));
  return rec;
}

// ---------------------------------------------------------------------------
// TimeSeriesSampler
// ---------------------------------------------------------------------------

TimeSeriesSampler::TimeSeriesSampler(Params params, Registry* registry)
    : params_(params), registry_(registry) {}

TimeSeriesSampler::~TimeSeriesSampler() { stop(); }

void TimeSeriesSampler::set_sink(std::ostream* sink) {
  std::scoped_lock lock(mu_);
  sink_ = sink;
}

void TimeSeriesSampler::start() {
  std::scoped_lock lock(mu_);
  if (running_) return;
  stop_requested_ = false;
  tick_locked(monotonic_seconds());  // seq-0 baseline
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void TimeSeriesSampler::stop() {
  {
    std::scoped_lock lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::scoped_lock lock(mu_);
  tick_locked(monotonic_seconds());  // final interval: the run's end state
  running_ = false;
}

void TimeSeriesSampler::sample_now() {
  std::scoped_lock lock(mu_);
  tick_locked(monotonic_seconds());
}

std::uint64_t TimeSeriesSampler::intervals_captured() const {
  std::scoped_lock lock(mu_);
  return seq_;
}

JsonValue TimeSeriesSampler::window_json(std::size_t max_intervals) const {
  std::scoped_lock lock(mu_);
  JsonValue out = json_object({});
  out.set("schema", JsonValue(kTimeSeriesWindowSchema));
  out.set("interval_seconds", JsonValue(params_.interval_seconds));
  JsonArray intervals;
  std::size_t take = ring_.size();
  if (max_intervals > 0 && max_intervals < take) take = max_intervals;
  for (std::size_t i = ring_.size() - take; i < ring_.size(); ++i) {
    intervals.push_back(ring_[i]);
  }
  out.set("intervals", JsonValue(std::move(intervals)));
  return out;
}

void TimeSeriesSampler::run() {
  // Every record this thread takes lists the sampler's own CPU, so its cost
  // is measured in each stream.
  const ScopedThreadCpu cpu("ts_sampler");
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock,
                 std::chrono::duration<double>(params_.interval_seconds),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    tick_locked(monotonic_seconds());
  }
}

void TimeSeriesSampler::tick_locked(double now_seconds) {
  Snapshot cur = registry_->snapshot();
  const double interval = have_prev_ ? now_seconds - prev_at_seconds_ : 0.0;
  JsonValue rec = timeseries_record(have_prev_ ? prev_ : Snapshot{}, cur,
                                    interval, now_seconds, seq_);

  const ProcessSample ps = sample_process();
  JsonValue proc = json_object({});
  proc.set("valid", JsonValue(ps.valid));
  proc.set("rss_bytes", JsonValue(ps.rss_bytes));
  proc.set("cpu_seconds", JsonValue(ps.cpu_seconds));
  double cpu_delta = have_prev_ ? ps.cpu_seconds - prev_process_cpu_ : 0.0;
  if (cpu_delta < 0.0) cpu_delta = 0.0;
  proc.set("cpu_delta_seconds", JsonValue(cpu_delta));

  JsonArray threads;
  auto samples = ThreadCpuTracker::global().sample();
  std::vector<bool> used(prev_thread_cpu_.size(), false);
  for (const auto& t : samples) {
    // Names repeat (e.g. several "netio_epoll"s); pair each current
    // reading with the first unconsumed previous reading of the same name.
    double before = -1.0;
    for (std::size_t i = 0; i < prev_thread_cpu_.size(); ++i) {
      if (!used[i] && prev_thread_cpu_[i].first == t.name) {
        used[i] = true;
        before = prev_thread_cpu_[i].second;
        break;
      }
    }
    double t_delta = before >= 0.0 ? t.cpu_seconds - before : 0.0;
    if (t_delta < 0.0) t_delta = 0.0;
    threads.push_back(
        json_object({{"name", JsonValue(t.name)},
                     {"cpu_seconds", JsonValue(t.cpu_seconds)},
                     {"cpu_delta_seconds", JsonValue(t_delta)}}));
  }
  proc.set("threads", JsonValue(std::move(threads)));
  rec.set("process", std::move(proc));

  prev_process_cpu_ = ps.cpu_seconds;
  prev_thread_cpu_.clear();
  prev_thread_cpu_.reserve(samples.size());
  for (const auto& t : samples) {
    prev_thread_cpu_.emplace_back(t.name, t.cpu_seconds);
  }

  if (sink_ != nullptr) {
    rec.dump_to(*sink_);
    *sink_ << '\n';
    sink_->flush();
  }
  ring_.push_back(std::move(rec));
  while (ring_.size() > params_.ring_capacity) ring_.pop_front();

  prev_ = std::move(cur);
  have_prev_ = true;
  prev_at_seconds_ = now_seconds;
  ++seq_;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

namespace {

bool vfail(std::string* error, std::size_t line, const std::string& msg) {
  if (error != nullptr) {
    *error = "timeseries line " + std::to_string(line + 1) + ": " + msg;
  }
  return false;
}

/// Stable per-instrument key from the record's name + labels object.
std::string entry_key(const JsonValue& entry) {
  std::string key = entry.at("name").as_string();
  if (const JsonValue* labels = entry.find("labels");
      labels != nullptr && labels->is_object()) {
    for (const auto& [k, v] : labels->as_object()) {
      key += '\x1f';
      key += k;
      key += '\x1e';
      key += v.is_string() ? v.as_string() : v.dump();
    }
  }
  return key;
}

bool finite_number(const JsonValue* v) {
  return v != nullptr && v->is_number() && std::isfinite(v->as_double());
}

}  // namespace

bool validate_timeseries_lines(const std::vector<JsonValue>& lines,
                               std::string* error) {
  if (lines.empty()) {
    if (error != nullptr) *error = "timeseries stream is empty";
    return false;
  }
  std::uint64_t prev_seq = 0;
  double prev_at = 0.0;
  double prev_cpu = 0.0;
  bool have_cpu = false;
  std::map<std::string, std::uint64_t> prev_counters;
  std::map<std::string, std::uint64_t> prev_hist_counts;

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const JsonValue& rec = lines[i];
    if (!rec.is_object()) return vfail(error, i, "record is not an object");
    const JsonValue* schema = rec.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != kTimeSeriesSchema) {
      return vfail(error, i, std::string("schema must be ") +
                                 kTimeSeriesSchema);
    }
    const JsonValue* seq = rec.find("seq");
    if (seq == nullptr || !seq->is_number()) {
      return vfail(error, i, "missing numeric seq");
    }
    const std::uint64_t s = seq->as_uint();
    if (i == 0) {
      if (s != 0) return vfail(error, i, "first record must have seq 0");
    } else if (s <= prev_seq) {
      return vfail(error, i, "seq not strictly increasing");
    }
    prev_seq = s;

    const JsonValue* at = rec.find("at_seconds");
    const JsonValue* interval = rec.find("interval_seconds");
    if (!finite_number(at) || !finite_number(interval)) {
      return vfail(error, i, "missing finite at_seconds/interval_seconds");
    }
    const double at_s = at->as_double();
    const double interval_s = interval->as_double();
    if (interval_s < 0.0) return vfail(error, i, "negative interval_seconds");
    if (i > 0 && at_s < prev_at) {
      return vfail(error, i, "at_seconds went backwards");
    }
    prev_at = at_s;

    const JsonValue* counters = rec.find("counters");
    if (counters == nullptr || !counters->is_array()) {
      return vfail(error, i, "missing counters array");
    }
    std::map<std::string, std::uint64_t> cur_counters;
    for (const JsonValue& c : counters->as_array()) {
      if (!c.is_object() || c.find("name") == nullptr ||
          !c.at("name").is_string()) {
        return vfail(error, i, "counter entry missing name");
      }
      const JsonValue* value = c.find("value");
      const JsonValue* delta = c.find("delta");
      const JsonValue* rate = c.find("per_second");
      if (value == nullptr || !value->is_number() || delta == nullptr ||
          !delta->is_number() || !finite_number(rate)) {
        return vfail(error, i, "counter " + c.at("name").as_string() +
                                   " missing value/delta/per_second");
      }
      const std::uint64_t v = value->as_uint();
      const std::uint64_t d = delta->as_uint();
      const std::string key = entry_key(c);
      std::uint64_t before = 0;
      if (auto it = prev_counters.find(key); it != prev_counters.end()) {
        before = it->second;
      }
      const std::uint64_t expect = v >= before ? v - before : v;
      if (d != expect) {
        return vfail(error, i,
                     "counter " + c.at("name").as_string() +
                         " delta inconsistent with previous record");
      }
      const double r = rate->as_double();
      if (interval_s > 0.0) {
        const double want = static_cast<double>(d) / interval_s;
        const double tol = 1e-6 * std::max(1.0, want);
        if (std::fabs(r - want) > tol) {
          return vfail(error, i, "counter " + c.at("name").as_string() +
                                     " per_second != delta/interval");
        }
      } else if (r != 0.0) {
        return vfail(error, i, "counter " + c.at("name").as_string() +
                                   " nonzero rate with zero interval");
      }
      cur_counters[key] = v;
    }
    prev_counters = std::move(cur_counters);

    const JsonValue* gauges = rec.find("gauges");
    if (gauges == nullptr || !gauges->is_array()) {
      return vfail(error, i, "missing gauges array");
    }
    for (const JsonValue& g : gauges->as_array()) {
      if (!g.is_object() || g.find("name") == nullptr ||
          !finite_number(g.find("value"))) {
        return vfail(error, i, "gauge entry missing name/finite value");
      }
    }

    const JsonValue* histograms = rec.find("histograms");
    if (histograms == nullptr || !histograms->is_array()) {
      return vfail(error, i, "missing histograms array");
    }
    std::map<std::string, std::uint64_t> cur_hists;
    for (const JsonValue& h : histograms->as_array()) {
      if (!h.is_object() || h.find("name") == nullptr ||
          !h.at("name").is_string()) {
        return vfail(error, i, "histogram entry missing name");
      }
      const std::string name = h.at("name").as_string();
      const JsonValue* count = h.find("count");
      const JsonValue* count_delta = h.find("count_delta");
      if (count == nullptr || !count->is_number() || count_delta == nullptr ||
          !count_delta->is_number() || !finite_number(h.find("sum_delta"))) {
        return vfail(error, i,
                     "histogram " + name + " missing count/delta fields");
      }
      const std::uint64_t cnt = count->as_uint();
      const std::uint64_t d = count_delta->as_uint();
      const std::string key = entry_key(h);
      std::uint64_t before = 0;
      if (auto it = prev_hist_counts.find(key); it != prev_hist_counts.end()) {
        before = it->second;
      }
      const std::uint64_t expect = cnt >= before ? cnt - before : cnt;
      if (d != expect) {
        return vfail(error, i, "histogram " + name +
                                   " count_delta inconsistent with previous");
      }
      const JsonValue* p50 = h.find("p50");
      const JsonValue* p95 = h.find("p95");
      const JsonValue* p99 = h.find("p99");
      if (!finite_number(p50) || !finite_number(p95) || !finite_number(p99)) {
        return vfail(error, i, "histogram " + name + " missing quantiles");
      }
      if (p50->as_double() > p95->as_double() ||
          p95->as_double() > p99->as_double()) {
        return vfail(error, i,
                     "histogram " + name + " quantiles not ordered");
      }
      cur_hists[key] = cnt;
    }
    prev_hist_counts = std::move(cur_hists);

    if (const JsonValue* proc = rec.find("process")) {
      if (!proc->is_object()) {
        return vfail(error, i, "process block is not an object");
      }
      if (!finite_number(proc->find("cpu_seconds")) ||
          !finite_number(proc->find("cpu_delta_seconds"))) {
        return vfail(error, i, "process block missing cpu fields");
      }
      const double cpu = proc->at("cpu_seconds").as_double();
      if (have_cpu && cpu + 1e-9 < prev_cpu) {
        return vfail(error, i, "process cpu_seconds went backwards");
      }
      prev_cpu = cpu;
      have_cpu = true;
    }
  }
  return true;
}

bool validate_timeseries_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::vector<JsonValue> lines;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string perr;
    auto parsed = json_parse(line, &perr);
    if (!parsed) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(lineno) + ": " + perr;
      }
      return false;
    }
    lines.push_back(std::move(*parsed));
  }
  return validate_timeseries_lines(lines, error);
}

}  // namespace baps::obs
