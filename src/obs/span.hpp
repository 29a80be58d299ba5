// Span-based distributed tracing. A Tracer mints trace ids, makes the
// sampling decision once per trace (a pure function of seed + trace id, so a
// seeded run samples the same requests every time), and records finished
// spans three ways at once:
//   * as "span" events into an optional EventSink (JsonlSink gives the
//     standard one-object-per-line span log, MemorySink the test surface);
//   * into per-stage latency histograms + span counters in a Registry
//     (trace_stage_seconds{stage=...}, trace_spans_total{kind=...});
//   * into a bounded in-memory ring of recent spans plus a top-K table of
//     the slowest root spans, from which slow_traces() reconstructs the
//     full span tree of the K slowest requests (the exemplar log).
//
// Cost model: an unsampled request takes one branch (context.sampled is
// false and every start_span call returns an inert Span); with no tracer
// attached the instrumented components skip even that. Nothing is recorded,
// no clock is read, and the metrics registry is untouched — which is what
// keeps sampling-off runs bit-identical to untraced ones.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/trace_context.hpp"

namespace baps::obs {

/// Every stage a traced request can pass through. Names are stable wire- and
/// report-visible identifiers; new kinds append.
enum class SpanKind : std::uint8_t {
  kClientFetch = 1,   ///< client-side browse(), the root of a request trace
  kIndexLookup = 2,   ///< proxy: browser-index holder lookup
  kCacheProbe = 3,    ///< proxy: own-cache probe
  kPeerTransfer = 4,  ///< proxy→holder fetch (or holder serving it)
  kOriginFetch = 5,   ///< proxy→origin fetch + watermark issuance
  kFrameSend = 6,     ///< one frame written to a socket
  kFrameRecv = 7,     ///< one frame read from a socket (payload + decode)
  kSign = 8,          ///< proxy: watermark issuance, inside origin_fetch
  kVerify = 9,        ///< client: watermark verification in browse()
};

/// One past the last kind: kinds run 1 .. kSpanKindSlots - 1 without gaps,
/// so per-kind tables index by the kind's value.
inline constexpr std::size_t kSpanKindSlots =
    static_cast<std::size_t>(SpanKind::kVerify) + 1;

std::string span_kind_name(SpanKind kind);

/// Nanoseconds on the monotonic clock; the time base of span timestamps.
inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The deterministic sampling decision: a pure function of (seed, trace_id),
/// so two processes configured with the same seed agree and a rerun of a
/// seeded workload samples exactly the same traces. rate <= 0 never samples,
/// rate >= 1 always does.
bool trace_sampled(std::uint64_t seed, double rate, std::uint64_t trace_id);

/// One finished span, as stored and exported.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 for a root span
  SpanKind kind = SpanKind::kClientFetch;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t duration_ns() const {
    return end_ns >= start_ns ? end_ns - start_ns : 0;
  }
  JsonValue to_json() const;
};

class Tracer;

/// RAII handle for an in-flight span: records itself into the tracer on
/// end() / destruction. Default-constructed (or unsampled) spans are inert —
/// no clock reads, no recording.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { move_from(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      end();
      move_from(other);
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// True when this span will be recorded on end().
  bool recording() const { return tracer_ != nullptr; }

  /// Context to hand to callees (and across the wire): same trace, this
  /// span as the parent. Valid even for inert spans of a sampled=false
  /// trace, so propagation code need not special-case.
  const TraceContext& context() const { return ctx_; }

  void end();

 private:
  friend class Tracer;
  void move_from(Span& other) {
    tracer_ = other.tracer_;
    ctx_ = other.ctx_;
    parent_id_ = other.parent_id_;
    kind_ = other.kind_;
    start_ns_ = other.start_ns_;
    other.tracer_ = nullptr;
  }

  Tracer* tracer_ = nullptr;  ///< null = inert
  TraceContext ctx_;
  std::uint64_t parent_id_ = 0;
  SpanKind kind_ = SpanKind::kClientFetch;
  std::uint64_t start_ns_ = 0;
};

class Tracer {
 public:
  struct Params {
    std::uint64_t seed = 1;
    double sample_rate = 0.0;  ///< [0,1]; 0 disables all recording
    /// Service name stamped on every exported span ("client", "proxyd").
    std::string service;
    /// Ring capacity for recent spans (the stitching / introspection buffer).
    std::size_t recent_capacity = 4096;
    /// How many slowest root spans to keep full exemplar trees for.
    std::size_t slow_trace_k = 8;
  };

  /// Metrics land in `registry` (defaults to the process-global one).
  explicit Tracer(const Params& params, Registry* registry = nullptr);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Span events stream here as they finish (nullptr detaches; not owned).
  void set_sink(EventSink* sink);

  bool enabled() const { return params_.sample_rate > 0.0; }
  const Params& params() const { return params_; }

  /// Mints the context for a new root span: fresh trace id (deterministic in
  /// seed + an internal counter) with the sampling decision applied.
  TraceContext make_root_context();

  /// Starts a span under `parent`. Returns an inert span (still carrying a
  /// propagatable context) unless the parent is sampled and tracing is on.
  Span start_span(SpanKind kind, const TraceContext& parent);

  /// Convenience: new trace + its root span in one step. When the sampler
  /// is off entirely (rate 0) this is a single branch returning an inert
  /// span with no context — a disabled tracer costs a request nothing.
  Span start_root_span(SpanKind kind);

  /// Records an already-timed span under `parent` — for I/O paths that only
  /// learn the trace context after the work is done (a frame's context is
  /// inside the bytes being received). No-op unless the parent is sampled.
  void record_span(SpanKind kind, const TraceContext& parent,
                   std::uint64_t start_ns, std::uint64_t end_ns);

  // --- introspection ------------------------------------------------------
  std::vector<SpanRecord> recent_spans(std::size_t max_spans = 0) const;

  struct SlowTrace {
    std::uint64_t trace_id = 0;
    std::uint64_t root_duration_ns = 0;
    std::vector<SpanRecord> spans;  ///< every retained span of the trace
  };
  /// The K slowest root spans seen so far, slowest first, each with the full
  /// span tree still present in the recent-span ring.
  std::vector<SlowTrace> slow_traces() const;
  JsonValue slow_traces_json() const;

  std::uint64_t spans_recorded() const;
  /// Spans evicted from the recent ring (they were still counted/exported).
  std::uint64_t spans_evicted() const;

 private:
  friend class Span;
  void finish_span(const Span& span, std::uint64_t end_ns);
  void record(const SpanRecord& rec);
  std::uint64_t next_span_id();

  Params params_;
  Registry* registry_;
  // trace_spans_total{kind} and trace_stage_seconds{stage} by kind, resolved
  // on the kind's first record (a tracer that records nothing leaves its
  // registry empty); later spans skip the registry's lookup and lock.
  std::array<std::atomic<Counter*>, kSpanKindSlots> spans_total_{};
  std::array<std::atomic<Histogram*>, kSpanKindSlots> stage_seconds_{};

  mutable std::mutex mu_;
  EventSink* sink_ = nullptr;  ///< optional, not owned
  // Lock-free: minting an id is on the per-request fast path even when the
  // sampler is off, so it must cost one atomic increment, not a mutex.
  std::atomic<std::uint64_t> trace_counter_{0};
  std::atomic<std::uint64_t> span_counter_{0};
  std::uint64_t span_nonce_;  ///< per-process salt for span ids
  std::vector<SpanRecord> recent_;  ///< ring buffer
  std::size_t recent_next_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t evicted_ = 0;
  struct SlowRoot {
    std::uint64_t trace_id = 0;
    std::uint64_t duration_ns = 0;
  };
  std::vector<SlowRoot> slow_;  ///< at most slow_trace_k, unordered
};

/// Derives latency-quantile gauges from the per-stage span histograms:
/// for every `trace_stage_seconds{stage=S}` histogram in `snap`, appends
/// `latency_quantile_seconds{stage=S,q=p50|p95|p99|p999}` gauges computed by
/// sample_quantile(). Snapshots without trace histograms pass through
/// untouched, so report writers can call this unconditionally.
Snapshot with_latency_quantiles(Snapshot snap);

/// Eagerly materializes every trace_* instrument — trace_spans_total{kind}
/// and trace_stage_seconds{stage} for all span kinds, zero-valued — so a
/// first time-series interval (and any report) sees the full family even
/// before a single span finishes. Labels are always present, matching the
/// report_check requirement that every trace instrument carries its
/// kind/stage label.
void register_trace_metric_families(Registry* registry = &Registry::global());

}  // namespace baps::obs
