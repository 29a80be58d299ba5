#include "obs/span.hpp"

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>

namespace baps::obs {
namespace {

// splitmix64: the id/sampling mixer. Full-period, passes statistical tests,
// and crucially is a pure function — both processes of a traced run derive
// the same sampling decision from the same (seed, trace_id).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr char kStageHistName[] = "trace_stage_seconds";
// log10-seconds domain covering 100ns .. 1000s, same shape as
// netio_request_seconds.
constexpr double kStageLo = -7.0;
constexpr double kStageHi = 3.0;
constexpr std::size_t kStageBuckets = 50;

/// trace_spans_total{kind} and trace_stage_seconds{stage} for one kind.
std::pair<Counter*, Histogram*> kind_instruments(Registry* registry,
                                                 SpanKind kind) {
  const std::string name = span_kind_name(kind);
  return {&registry->counter("trace_spans_total", {{"kind", name}}),
          &registry->histogram(kStageHistName, kStageLo, kStageHi,
                               kStageBuckets, HistScale::kLog10,
                               {{"stage", name}})};
}

}  // namespace

std::string span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientFetch: return "client_fetch";
    case SpanKind::kIndexLookup: return "index_lookup";
    case SpanKind::kCacheProbe: return "cache_probe";
    case SpanKind::kPeerTransfer: return "peer_transfer";
    case SpanKind::kOriginFetch: return "origin_fetch";
    case SpanKind::kFrameSend: return "frame_send";
    case SpanKind::kFrameRecv: return "frame_recv";
    case SpanKind::kSign: return "sign";
    case SpanKind::kVerify: return "verify";
  }
  return "unknown";
}

void register_trace_metric_families(Registry* registry) {
  for (std::size_t k = 1; k < kSpanKindSlots; ++k) {
    kind_instruments(registry, static_cast<SpanKind>(k));
  }
}

bool trace_sampled(std::uint64_t seed, double rate, std::uint64_t trace_id) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Top 53 bits of the mix → uniform double in [0, 1).
  const std::uint64_t h = mix64(seed ^ mix64(trace_id));
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
  return u < rate;
}

JsonValue SpanRecord::to_json() const {
  return json_object({
      {"trace_id", JsonValue(trace_id)},
      {"span_id", JsonValue(span_id)},
      {"parent_id", JsonValue(parent_id)},
      {"kind", JsonValue(span_kind_name(kind))},
      {"start_ns", JsonValue(start_ns)},
      {"end_ns", JsonValue(end_ns)},
      {"duration_ns", JsonValue(duration_ns())},
  });
}

void Span::end() {
  if (tracer_ == nullptr) return;
  Tracer* t = tracer_;
  tracer_ = nullptr;  // a second end() is a no-op
  t->finish_span(*this, monotonic_ns());
}

Tracer::Tracer(const Params& params, Registry* registry)
    : params_(params),
      registry_(registry != nullptr ? registry : &Registry::global()),
      // Salt span ids with the address of a per-process object so two
      // processes of one trace never collide; trace ids stay purely
      // seed-derived (the sampler needs that).
      span_nonce_(mix64(params.seed ^
                        reinterpret_cast<std::uintptr_t>(this))) {
  if (params_.recent_capacity == 0) params_.recent_capacity = 1;
  recent_.reserve(params_.recent_capacity);
}

void Tracer::set_sink(EventSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = sink;
}

TraceContext Tracer::make_root_context() {
  const std::uint64_t n =
      trace_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  TraceContext ctx;
  ctx.trace_id = mix64(params_.seed ^ mix64(n));
  if (ctx.trace_id == 0) ctx.trace_id = 1;  // 0 means "no trace"
  ctx.span_id = 0;
  ctx.sampled = trace_sampled(params_.seed, params_.sample_rate, ctx.trace_id);
  return ctx;
}

std::uint64_t Tracer::next_span_id() {
  const std::uint64_t n =
      span_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t id = mix64(span_nonce_ ^ n);
  if (id == 0) id = 1;
  return id;
}

Span Tracer::start_span(SpanKind kind, const TraceContext& parent) {
  Span s;
  if (!parent.valid() || !parent.sampled || !enabled()) {
    // Inert, but still propagatable: callees of an unsampled trace must keep
    // seeing the same (unsampled) context.
    s.ctx_ = parent;
    return s;
  }
  s.tracer_ = this;
  s.ctx_.trace_id = parent.trace_id;
  s.ctx_.span_id = next_span_id();
  s.ctx_.sampled = true;
  s.parent_id_ = parent.span_id;
  s.kind_ = kind;
  s.start_ns_ = monotonic_ns();
  return s;
}

Span Tracer::start_root_span(SpanKind kind) {
  // Rate 0 means "tracing off": nothing this root could mint is observable
  // (unsampled contexts never go on the wire and never record), so the whole
  // call collapses to this one branch, minting no id and reading no clock.
  // FreeWhenOffTest checks that on the loopback and TCP runtimes.
  if (!enabled()) return Span();
  return start_span(kind, make_root_context());
}

void Tracer::finish_span(const Span& span, std::uint64_t end_ns) {
  SpanRecord rec;
  rec.trace_id = span.ctx_.trace_id;
  rec.span_id = span.ctx_.span_id;
  rec.parent_id = span.parent_id_;
  rec.kind = span.kind_;
  rec.start_ns = span.start_ns_;
  rec.end_ns = end_ns;
  record(rec);
}

void Tracer::record_span(SpanKind kind, const TraceContext& parent,
                         std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!enabled() || !parent.valid() || !parent.sampled) return;
  SpanRecord rec;
  rec.trace_id = parent.trace_id;
  rec.span_id = next_span_id();
  rec.parent_id = parent.span_id;
  rec.kind = kind;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  record(rec);
}

void Tracer::record(const SpanRecord& rec) {
  const auto slot = static_cast<std::size_t>(rec.kind);
  Counter* spans = spans_total_[slot].load(std::memory_order_acquire);
  Histogram* stage = stage_seconds_[slot].load(std::memory_order_acquire);
  if (spans == nullptr || stage == nullptr) {
    // Threads racing to resolve a kind get the same instruments.
    std::tie(spans, stage) = kind_instruments(registry_, rec.kind);
    spans_total_[slot].store(spans, std::memory_order_release);
    stage_seconds_[slot].store(stage, std::memory_order_release);
  }
  spans->inc();
  stage->observe(static_cast<double>(rec.duration_ns()) * 1e-9);

  EventSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = sink_;
    ++recorded_;
    if (recent_.size() < params_.recent_capacity) {
      recent_.push_back(rec);
    } else {
      ++evicted_;
      recent_[recent_next_] = rec;
      recent_next_ = (recent_next_ + 1) % params_.recent_capacity;
    }
    if (rec.parent_id == 0 && params_.slow_trace_k > 0) {
      if (slow_.size() < params_.slow_trace_k) {
        slow_.push_back({rec.trace_id, rec.duration_ns()});
      } else {
        auto fastest = std::min_element(
            slow_.begin(), slow_.end(),
            [](const SlowRoot& a, const SlowRoot& b) {
              return a.duration_ns < b.duration_ns;
            });
        if (rec.duration_ns() > fastest->duration_ns) {
          *fastest = {rec.trace_id, rec.duration_ns()};
        }
      }
    }
  }
  if (sink != nullptr) {
    JsonValue span = rec.to_json();
    JsonObject ev{{"event", JsonValue("span")},
                  {"service", JsonValue(params_.service)}};
    for (auto& member : span.as_object()) ev.push_back(std::move(member));
    sink->emit(JsonValue(std::move(ev)));
  }
}

std::vector<SpanRecord> Tracer::recent_spans(std::size_t max_spans) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Oldest-first: the ring's insertion point splits old from new.
  std::vector<SpanRecord> out;
  out.reserve(recent_.size());
  if (recent_.size() == params_.recent_capacity) {
    const auto split = static_cast<std::ptrdiff_t>(recent_next_);
    out.insert(out.end(), recent_.begin() + split, recent_.end());
    out.insert(out.end(), recent_.begin(), recent_.begin() + split);
  } else {
    out = recent_;
  }
  if (max_spans > 0 && out.size() > max_spans) {
    out.erase(out.begin(),
              out.end() - static_cast<std::ptrdiff_t>(max_spans));
  }
  return out;
}

std::vector<Tracer::SlowTrace> Tracer::slow_traces() const {
  std::vector<SlowRoot> roots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    roots = slow_;
  }
  std::sort(roots.begin(), roots.end(),
            [](const SlowRoot& a, const SlowRoot& b) {
              return a.duration_ns > b.duration_ns;
            });
  const std::vector<SpanRecord> all = recent_spans();
  std::vector<SlowTrace> out;
  out.reserve(roots.size());
  for (const SlowRoot& root : roots) {
    SlowTrace st;
    st.trace_id = root.trace_id;
    st.root_duration_ns = root.duration_ns;
    for (const SpanRecord& rec : all) {
      if (rec.trace_id == root.trace_id) st.spans.push_back(rec);
    }
    out.push_back(std::move(st));
  }
  return out;
}

JsonValue Tracer::slow_traces_json() const {
  JsonArray traces;
  for (const SlowTrace& st : slow_traces()) {
    JsonArray spans;
    for (const SpanRecord& rec : st.spans) spans.push_back(rec.to_json());
    traces.push_back(json_object({
        {"trace_id", JsonValue(st.trace_id)},
        {"root_duration_ns", JsonValue(st.root_duration_ns)},
        {"spans", JsonValue(std::move(spans))},
    }));
  }
  return JsonValue(std::move(traces));
}

std::uint64_t Tracer::spans_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t Tracer::spans_evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

Snapshot with_latency_quantiles(Snapshot snap) {
  static const std::pair<const char*, double> kQuantiles[] = {
      {"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}};
  for (const HistogramSample& hist : snap.histograms) {
    if (hist.name != kStageHistName || hist.count == 0) continue;
    std::string stage;
    for (const auto& [k, v] : hist.labels) {
      if (k == "stage") stage = v;
    }
    for (const auto& [qname, q] : kQuantiles) {
      GaugeSample g;
      g.name = "latency_quantile_seconds";
      g.labels = {{"q", qname}, {"stage", stage}};
      g.value = sample_quantile(hist, q);
      snap.gauges.push_back(std::move(g));
    }
  }
  sort_snapshot(snap);
  return snap;
}

}  // namespace baps::obs
