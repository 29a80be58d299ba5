// Continuous telemetry: a TimeSeriesSampler that captures Registry snapshots
// on a dedicated thread at a configurable interval, turns each consecutive
// snapshot pair into an interval record — counter deltas and per-second
// rates, histogram delta distributions with windowed p50/p95/p99, gauge
// levels — attaches process self-profiling (RSS, process + named-thread CPU
// time), and exports the records as a `baps.timeseries.v1` JSONL stream
// while keeping the most recent intervals in a bounded ring buffer for live
// queries (the proxy's `timeseries` introspection section, which `baps_top`
// polls, reads the ring via window_json()).
//
// The record math lives in a pure function (timeseries_record) so tests can
// drive reset/wraparound edge cases without threads, and the validator
// (validate_timeseries_lines) enforces the cross-record invariants —
// monotone seq/time, delta consistency with the previous record, rate ≈
// delta/interval, quantile ordering — that report_check --timeseries and
// the check.sh smoke rely on.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace baps::obs {

/// Schema tag on every JSONL interval record.
inline constexpr const char* kTimeSeriesSchema = "baps.timeseries.v1";
/// Schema tag on the live-window envelope served over the wire.
inline constexpr const char* kTimeSeriesWindowSchema =
    "baps.timeseries_window.v1";

/// Builds one interval record from two registry snapshots.
///
/// Delta rules (also enforced by the validator):
///  - counters: delta = cur - prev, except a reset (cur < prev) re-baselines
///    to delta = cur; per_second = delta / interval (0 when interval == 0).
///  - histograms: the delta distribution is the bucket-wise clamped
///    difference; a reset (cur.count < prev.count) treats prev as empty.
///    p50/p95/p99 are quantiles of the delta distribution — latency "over
///    the last interval", not since process start.
///  - gauges: levels, reported as-is.
/// Instruments absent from `prev` (registered mid-interval) delta against
/// zero. The first record of a stream uses an empty prev and interval 0.
JsonValue timeseries_record(const Snapshot& prev, const Snapshot& cur,
                            double interval_seconds, double at_seconds,
                            std::uint64_t seq);

class TimeSeriesSampler {
 public:
  struct Params {
    double interval_seconds = 1.0;
    std::size_t ring_capacity = 120;  ///< intervals kept for live queries
  };

  explicit TimeSeriesSampler(Params params,
                             Registry* registry = &Registry::global());
  ~TimeSeriesSampler();
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// JSONL destination (one record per line, flushed per line). Not owned;
  /// must outlive the sampler or be cleared with nullptr. Set before start().
  void set_sink(std::ostream* sink);

  /// Starts the sampling thread; captures the seq-0 baseline immediately.
  void start();

  /// Stops the thread after capturing one final interval, so short runs
  /// always export their end state. Idempotent.
  void stop();

  /// Captures one interval now (thread-safe; also usable without start()
  /// for manually-paced sampling).
  void sample_now();

  std::uint64_t intervals_captured() const;

  /// Live-window envelope: {"schema": "baps.timeseries_window.v1",
  ///  "interval_seconds": ..., "intervals": [most recent records, oldest
  ///  first]}. max_intervals == 0 means everything in the ring.
  JsonValue window_json(std::size_t max_intervals = 0) const;

 private:
  void run();
  void tick_locked(double now_seconds);

  const Params params_;
  Registry* registry_;
  std::ostream* sink_ = nullptr;

  mutable std::mutex mu_;        // guards everything below + tick execution
  std::condition_variable cv_;   // wakes the thread for prompt stop
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;

  Snapshot prev_;
  bool have_prev_ = false;
  double prev_at_seconds_ = 0.0;
  double prev_process_cpu_ = 0.0;
  std::vector<std::pair<std::string, double>> prev_thread_cpu_;
  std::uint64_t seq_ = 0;
  std::deque<JsonValue> ring_;
};

/// Validates a parsed baps.timeseries.v1 stream (one JsonValue per line).
/// Checks schema tags, strictly increasing seq from 0, non-decreasing time,
/// per-instrument delta/value consistency across consecutive records,
/// per_second ≈ delta/interval, quantile ordering p50 ≤ p95 ≤ p99, and
/// monotone process CPU. Returns false and fills *error on the first
/// violation. An empty stream is invalid.
bool validate_timeseries_lines(const std::vector<JsonValue>& lines,
                               std::string* error);

/// Reads a JSONL file and validates it with validate_timeseries_lines.
bool validate_timeseries_file(const std::string& path, std::string* error);

}  // namespace baps::obs
