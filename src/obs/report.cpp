#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <string_view>
#include <tuple>

#include "sim/config.hpp"
#include "wire/frame.hpp"

namespace baps::obs {

namespace {

JsonValue ratio_json(const RatioCounter& r) {
  return json_object({{"count", JsonValue(r.hits())},
                      {"total", JsonValue(r.total())},
                      {"ratio", JsonValue(r.ratio())}});
}

}  // namespace

JsonValue metrics_to_json(const sim::Metrics& m) {
  const JsonValue locations = json_object(
      {{"local_browser", json_object({{"hits", JsonValue(m.local_browser_hits)},
                                      {"bytes",
                                       JsonValue(m.local_browser_hit_bytes)}})},
       {"proxy", json_object({{"hits", JsonValue(m.proxy_hits)},
                              {"bytes", JsonValue(m.proxy_hit_bytes)}})},
       {"remote_browser",
        json_object({{"hits", JsonValue(m.remote_browser_hits)},
                     {"bytes", JsonValue(m.remote_browser_hit_bytes)}})},
       {"miss", json_object({{"count", JsonValue(m.misses)},
                             {"bytes", JsonValue(m.miss_bytes)}})}});

  const JsonValue overheads = json_object(
      {{"remote_transfer_time_s", JsonValue(m.remote_transfer_time_s)},
       {"remote_contention_time_s", JsonValue(m.remote_contention_time_s)},
       {"remote_transfer_bytes", JsonValue(m.remote_transfer_bytes)},
       {"index_messages", JsonValue(m.index_messages)},
       {"false_forwards", JsonValue(m.false_forwards)},
       {"stale_remote_probes", JsonValue(m.stale_remote_probes)},
       {"remote_overhead_fraction", JsonValue(m.remote_overhead_fraction())},
       {"contention_fraction_of_comm",
        JsonValue(m.contention_fraction_of_comm())}});

  const JsonValue latency = json_object(
      {{"count", JsonValue(m.log_latency.count())},
       {"p50_s", JsonValue(m.latency_quantile(0.5))},
       {"p90_s", JsonValue(m.latency_quantile(0.9))},
       {"p99_s", JsonValue(m.latency_quantile(0.99))}});

  const JsonValue churn =
      json_object({{"departures", JsonValue(m.churn_departures)},
                   {"rejoins", JsonValue(m.churn_rejoins)},
                   {"wiped_docs", JsonValue(m.churn_wiped_docs)}});

  return json_object(
      {{"hits", ratio_json(m.hits)},
       {"byte_hits", ratio_json(m.byte_hits)},
       {"locations", locations},
       {"memory",
        json_object({{"memory_hit_bytes", JsonValue(m.memory_hit_bytes)},
                     {"disk_hit_bytes", JsonValue(m.disk_hit_bytes)},
                     {"memory_byte_hit_ratio",
                      JsonValue(m.memory_byte_hit_ratio())}})},
       {"size_change_misses", JsonValue(m.size_change_misses)},
       {"overheads", overheads},
       {"service_time",
        json_object({{"total_s", JsonValue(m.total_service_time_s)},
                     {"hit_latency_s", JsonValue(m.total_hit_latency_s)}})},
       {"latency", latency},
       {"churn", churn}});
}

ReportBuilder::ReportBuilder(std::string tool) {
  doc_.set("schema", JsonValue(kReportSchema));
  doc_.set("tool", JsonValue(std::move(tool)));
}

ReportBuilder& ReportBuilder::set_title(std::string title) {
  doc_.set("title", JsonValue(std::move(title)));
  return *this;
}

ReportBuilder& ReportBuilder::set_args(int argc, char** argv) {
  JsonArray args;
  for (int i = 1; i < argc; ++i) args.push_back(JsonValue(argv[i]));
  doc_.set("args", JsonValue(std::move(args)));
  return *this;
}

ReportBuilder& ReportBuilder::set_trace(const trace::Trace& t) {
  std::uint64_t total_bytes = 0;
  for (const auto& r : t.requests()) total_bytes += r.size;
  doc_.set("trace", json_object({{"name", JsonValue(t.name())},
                                 {"requests", JsonValue(t.size())},
                                 {"clients", JsonValue(t.num_clients())},
                                 {"docs", JsonValue(t.num_docs())},
                                 {"total_bytes", JsonValue(total_bytes)}}));
  return *this;
}

ReportBuilder& ReportBuilder::add_phases(const PhaseTimers& phases) {
  doc_.set("phases", phases.to_json());
  return *this;
}

ReportBuilder& ReportBuilder::add_sweep(
    const std::vector<core::CacheSizePoint>& points) {
  // One entry per point, one metrics object per organization.
  JsonArray sweep;
  for (const auto& p : points) {
    JsonArray orgs;
    for (const auto& [org, m] : p.by_org) {
      orgs.push_back(json_object({{"org", JsonValue(sim::org_name(org))},
                                  {"metrics", metrics_to_json(m)}}));
    }
    sweep.push_back(json_object(
        {{"relative_cache_size", JsonValue(p.relative_cache_size)},
         {"orgs", JsonValue(std::move(orgs))}}));
  }
  doc_.set("sweep", JsonValue(std::move(sweep)));
  return *this;
}

ReportBuilder& ReportBuilder::add_client_scaling(
    const std::vector<core::ClientScalingPoint>& points,
    const std::string& trace_label) {
  // Appends across calls so a multi-trace bench (Figure 8 runs three
  // presets) accumulates one flat array.
  if (doc_.find("client_scaling") == nullptr) {
    doc_.set("client_scaling", JsonValue(JsonArray{}));
  }
  JsonArray& out = doc_.find("client_scaling")->as_array();
  for (const auto& p : points) {
    JsonValue entry = json_object(
        {{"client_fraction", JsonValue(p.client_fraction)},
         {"num_clients", JsonValue(p.num_clients)},
         {"browsers_aware", metrics_to_json(p.browsers_aware)},
         {"proxy_and_local", metrics_to_json(p.proxy_and_local)},
         {"hit_ratio_increment_pct", JsonValue(p.hit_ratio_increment_pct)},
         {"byte_hit_ratio_increment_pct",
          JsonValue(p.byte_hit_ratio_increment_pct)}});
    if (!trace_label.empty()) entry.set("trace", JsonValue(trace_label));
    out.push_back(std::move(entry));
  }
  return *this;
}

ReportBuilder& ReportBuilder::set_registry(const Snapshot& snapshot) {
  doc_.set("registry", to_json(snapshot));
  return *this;
}

JsonValue ReportBuilder::build() const { return doc_; }

bool ReportBuilder::write(const std::string& path, std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  doc_.dump_to(out, /*indent=*/2);
  out << '\n';
  out.flush();
  if (!out) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// Validation.

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error && error->empty()) *error = what;
  return false;
}

/// A non-negative integer member; nullopt when absent or of another type.
std::optional<std::uint64_t> count_member(const JsonValue& obj,
                                          const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !(v->is_uint() || (v->is_int() && v->as_int() >= 0))) {
    return std::nullopt;
  }
  return v->as_uint();
}

bool check_ratio(const JsonValue& v, const std::string& where,
                 std::string* error) {
  const auto count = count_member(v, "count");
  const auto total = count_member(v, "total");
  const JsonValue* ratio = v.find("ratio");
  if (!count || !total || ratio == nullptr || !ratio->is_number()) {
    return fail(error, where + ": needs integer count/total, numeric ratio");
  }
  if (*count > *total) return fail(error, where + ": count exceeds total");
  const double recomputed =
      *total ? static_cast<double>(*count) / static_cast<double>(*total)
             : 0.0;
  if (std::fabs(recomputed - ratio->as_double()) > 1e-9) {
    return fail(error, where + ": ratio does not match count/total");
  }
  return true;
}

bool check_metrics(const JsonValue& m, const std::string& where,
                   std::string* error) {
  const JsonValue* hits = m.find("hits");
  const JsonValue* byte_hits = m.find("byte_hits");
  if (hits == nullptr || byte_hits == nullptr) {
    return fail(error, where + ": metrics need hits and byte_hits");
  }
  if (!check_ratio(*hits, where + ".hits", error) ||
      !check_ratio(*byte_hits, where + ".byte_hits", error)) {
    return false;
  }
  // The four locations partition the requests.
  const JsonValue* loc = m.find("locations");
  std::uint64_t sum = 0;
  for (const auto& [name, key] : {std::pair{"local_browser", "hits"},
                                  {"proxy", "hits"},
                                  {"remote_browser", "hits"},
                                  {"miss", "count"}}) {
    const JsonValue* entry = loc != nullptr ? loc->find(name) : nullptr;
    const auto n = entry != nullptr ? count_member(*entry, key) : std::nullopt;
    if (!n) {
      return fail(error, where + ".locations." + name + ": needs an integer " +
                             key);
    }
    sum += *n;
  }
  if (sum != *count_member(*hits, "total")) {
    return fail(error, where + ": location counts do not sum to total");
  }
  return true;
}

// ---- The metric family table ---------------------------------------------

enum class ValueRule { kNonNegative, kPositive };

/// A label every instance must carry: any non-empty string, or one of
/// `allowed` when that is non-empty.
struct LabelRule {
  std::string_view key;
  std::vector<std::string_view> allowed = {};
};

/// One row: the instruments it covers, the labels they need, and the rule
/// their value (counters, gauges) or observation count (histograms) obeys.
/// An instance is checked against every row that matches it.
struct FamilyRule {
  std::string_view family;  ///< exact name, or a prefix when it ends in '_'
  MetricKind kind;
  std::vector<LabelRule> labels = {};
  ValueRule value = ValueRule::kNonNegative;
  /// Eager registration leaves an unlabeled zero member; only instances
  /// holding counts must carry the labels.
  bool unlabeled_zero_ok = false;
};

/// sum(lhs...) × scale  op  sum(rhs), per value of the `group` label (one
/// group when empty). Absent instruments sum to zero.
struct Relation {
  enum Op { kEqual, kAtMost } op;
  std::vector<std::string_view> lhs;
  std::string_view rhs;
  std::string_view group = {};
  double scale = 1.0;
};

/// Quantile gauges of one distribution (one value of `scope`) must not
/// decrease along `order`; `complete` families emit every q together.
struct QuantileRule {
  std::string_view family;
  std::string_view scope;
  const std::vector<std::string_view>& order;
  bool complete = false;
};

const std::vector<std::string_view> kQuantiles = {"p50", "p95", "p99", "p999"};
const std::vector<std::string_view> kConnloadQuantiles = {"p50", "p99",
                                                          "p999"};

constexpr MetricKind kCounter = MetricKind::kCounter;
constexpr MetricKind kGauge = MetricKind::kGauge;
constexpr MetricKind kHistogram = MetricKind::kHistogram;

const FamilyRule kFamilyRules[] = {
    // Transport (netio/netio_metrics.hpp).
    {"wire_", kCounter},
    {"wire_frames_total", kCounter, {{"dir", {"tx", "rx"}}}},
    {"wire_bytes_total", kCounter, {{"dir", {"tx", "rx"}}}},
    {"netio_", kCounter},
    {"netio_", kGauge},
    {"netio_", kHistogram},
    // Connection-load bench (bench_connload).
    {"connload_", kCounter},
    {"connload_", kGauge},
    {"connload_", kHistogram},
    {"connload_roundtrip_quantile_seconds", kGauge,
     {{"q", kConnloadQuantiles}}},
    // Durable store (store/tiered_store.hpp).
    {"store_", kCounter},
    {"store_bytes_total", kCounter, {{"dir", {"read", "written"}}}},
    {"store_stage_seconds", kHistogram, {{"op"}}},
    // Fault injection (fault/fault_plan.hpp).
    {"fault_injected_total", kCounter, {{"kind"}}},
    {"fault_recovered_total", kCounter, {{"kind"}}},
    {"stale_index_hits_total", kCounter},
    // Tracing (obs/span.hpp).
    {"trace_spans_total", kCounter, {{"kind"}}},
    {"trace_stage_seconds", kHistogram, {{"stage"}}},
    {"latency_quantile_seconds", kGauge, {{"q", kQuantiles}, {"stage"}}},
    // Replay bench (bench_replay).
    {"replay_requests_per_second", kGauge, {{"org"}}, ValueRule::kPositive},
    {"replay_latency_quantile_seconds", kGauge, {{"q", kQuantiles}, {"org"}}},
    // Sharded replay (sim/sharded_replay.hpp).
    {"shard_requests_total", kCounter, {{"org"}, {"shard"}},
     ValueRule::kNonNegative, true},
    {"shard_merged_requests_total", kCounter, {{"org"}},
     ValueRule::kNonNegative, true},
    {"shard_", kGauge},
    // Simulator, runtime proxy and worker pool.
    {"sim_", kCounter},
    {"cache_", kCounter},
    {"proxy_", kCounter},
    {"runner_run_seconds", kHistogram},
    {"sweep_seconds", kHistogram},
    {"threadpool_", kCounter},
    {"threadpool_", kGauge},
    {"threadpool_", kHistogram},
    {"events_dropped_total", kCounter},
};

const Relation kRelations[] = {
    // A frame never costs fewer bytes than its header.
    {Relation::kAtMost, {"wire_frames_total"}, "wire_bytes_total", "dir",
     static_cast<double>(wire::kHeaderSize)},
    // A fault is counted as injected even when its recovery fails.
    {Relation::kAtMost, {"fault_recovered_total"}, "fault_injected_total",
     "kind"},
    // Every disk probe resolves to exactly one of hit or miss (a quarantined
    // record counts as a miss: nothing was served).
    {Relation::kEqual, {"store_hits_total", "store_misses_total"},
     "store_probes_total"},
    // The counter half of the sharded engine's merge contract.
    {Relation::kEqual, {"shard_requests_total"}, "shard_merged_requests_total",
     "org"},
    // Peak concurrency counts only connections that completed a connect.
    {Relation::kAtMost, {"connload_connections_peak"},
     "connload_established_total"},
};

const QuantileRule kQuantileRules[] = {
    {"latency_quantile_seconds", "stage", kQuantiles},
    {"replay_latency_quantile_seconds", "org", kQuantiles},
    {"connload_roundtrip_quantile_seconds", "", kConnloadQuantiles, true},
};

bool covers(const FamilyRule& rule, std::string_view name, MetricKind kind) {
  if (rule.kind != kind) return false;
  return rule.family.back() == '_' ? name.substr(0, rule.family.size()) ==
                                         rule.family
                                   : name == rule.family;
}

std::string label_value(const JsonValue* labels, std::string_view key) {
  const JsonValue* v =
      labels != nullptr ? labels->find(std::string(key)) : nullptr;
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

std::string scoped(std::string_view name, std::string_view key,
                   const std::string& value) {
  std::string out(name);
  if (!key.empty()) out += "{" + std::string(key) + "=" + value + "}";
  return out;
}

bool check_instance(const FamilyRule& rule, const std::string& name,
                    const JsonValue* labels, const JsonValue* value,
                    const char* field, std::string* error) {
  const bool number = value != nullptr && value->is_number();
  const double x = number ? value->as_double() : 0.0;
  const bool positive = rule.value == ValueRule::kPositive;
  if (!number || !std::isfinite(x) || x < 0.0 || (positive && x == 0.0)) {
    return fail(error, name + ": " + field + " must be " +
                           (positive ? "finite and positive"
                                     : "a finite non-negative number"));
  }
  const bool unlabeled = labels == nullptr || !labels->is_object() ||
                         labels->as_object().empty();
  if (rule.unlabeled_zero_ok && unlabeled && x == 0.0) return true;
  for (const LabelRule& label : rule.labels) {
    const std::string v = label_value(labels, label.key);
    const auto& allowed = label.allowed;
    if (allowed.empty() ? !v.empty()
                        : std::find(allowed.begin(), allowed.end(), v) !=
                              allowed.end()) {
      continue;
    }
    std::string must = allowed.empty() ? "non-empty" : "one of";
    for (std::string_view a : allowed) {
      must += (a == allowed.front() ? " " : ", ") + std::string(a);
    }
    return fail(error, name + ": " + std::string(label.key) +
                           " label must be " + must);
  }
  return true;
}

struct Instance {
  std::string_view name;
  const JsonValue* labels;
  double value;
};

std::string format_number(double x) { return JsonValue(x).dump(); }

bool check_relation(const Relation& rel, const std::vector<Instance>& seen,
                    std::string* error) {
  std::map<std::string, std::pair<double, double>> groups;  // lhs, rhs
  for (const Instance& i : seen) {
    const bool lhs =
        std::find(rel.lhs.begin(), rel.lhs.end(), i.name) != rel.lhs.end();
    if (!lhs && i.name != rel.rhs) continue;
    auto& sums = groups[label_value(i.labels, rel.group)];
    (lhs ? sums.first : sums.second) += i.value;
  }
  for (const auto& [group, sums] : groups) {
    const double lhs = sums.first * rel.scale;
    const bool ok = rel.op == Relation::kEqual ? lhs == sums.second
                                                : lhs <= sums.second;
    if (ok) continue;
    std::string left = rel.scale != 1.0 ? format_number(rel.scale) + " x " : "";
    for (std::size_t k = 0; k < rel.lhs.size(); ++k) {
      left += (k ? " + " : "") + scoped(rel.lhs[k], rel.group, group);
    }
    return fail(error, left + " (" + format_number(lhs) + ")" +
                           (rel.op == Relation::kEqual ? " != " : " exceeds ") +
                           scoped(rel.rhs, rel.group, group) + " (" +
                           format_number(sums.second) + ")");
  }
  return true;
}

bool check_quantiles(const QuantileRule& rule,
                     const std::vector<Instance>& seen, std::string* error) {
  // scope value -> quantiles seen, indexed by position in rule.order.
  std::map<std::string, std::vector<std::optional<double>>> scopes;
  for (const Instance& i : seen) {
    if (i.name != rule.family) continue;
    auto& qs = scopes[label_value(i.labels, rule.scope)];
    qs.resize(rule.order.size());
    const auto q = std::find(rule.order.begin(), rule.order.end(),
                             label_value(i.labels, "q"));
    if (q != rule.order.end()) {
      qs[static_cast<std::size_t>(q - rule.order.begin())] = i.value;
    }
  }
  for (const auto& [scope, qs] : scopes) {
    const std::string where = scoped(rule.family, rule.scope, scope);
    double prev = 0.0;
    for (std::size_t r = 0; r < qs.size(); ++r) {
      if (!qs[r].has_value()) {
        if (rule.complete) {
          return fail(error,
                      where + ": missing q=" + std::string(rule.order[r]));
        }
        continue;
      }
      if (*qs[r] < prev) {
        return fail(error, where + ": quantiles not monotone in q");
      }
      prev = *qs[r];
    }
  }
  return true;
}

/// Walks every registry instrument through the family table, then checks
/// the relations and quantile orders across instruments.
bool check_registry(const JsonValue& registry, std::string* error) {
  std::vector<Instance> seen;
  for (const auto& [section, kind, field] :
       {std::tuple{"counters", kCounter, "value"},
        std::tuple{"gauges", kGauge, "value"},
        std::tuple{"histograms", kHistogram, "count"}}) {
    const JsonValue* arr = registry.find(section);
    if (arr == nullptr || !arr->is_array()) {
      return fail(error, std::string("registry.") + section + ": not an array");
    }
    for (const JsonValue& inst : arr->as_array()) {
      const JsonValue* name = inst.find("name");
      if (name == nullptr || !name->is_string()) {
        return fail(error, std::string("registry.") + section +
                               ": instrument needs a name");
      }
      const JsonValue* labels = inst.find("labels");
      const JsonValue* value = inst.find(field);
      for (const FamilyRule& rule : kFamilyRules) {
        if (covers(rule, name->as_string(), kind) &&
            !check_instance(rule, name->as_string(), labels, value, field,
                            error)) {
          return false;
        }
      }
      if (value != nullptr && value->is_number()) {
        seen.push_back({name->as_string(), labels, value->as_double()});
      }
    }
  }
  for (const Relation& rel : kRelations) {
    if (!check_relation(rel, seen, error)) return false;
  }
  for (const QuantileRule& rule : kQuantileRules) {
    if (!check_quantiles(rule, seen, error)) return false;
  }
  return true;
}

}  // namespace

bool has_validation_rule(std::string_view name, MetricKind kind) {
  return std::any_of(std::begin(kFamilyRules), std::end(kFamilyRules),
                     [&](const FamilyRule& rule) {
                       return covers(rule, name, kind);
                     });
}

bool validate_report(const JsonValue& report, std::string* error) {
  if (error) error->clear();
  if (!report.is_object()) return fail(error, "report: not a JSON object");
  const JsonValue* schema = report.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != kReportSchema) {
    return fail(error, std::string("report: schema must be ") + kReportSchema);
  }
  const JsonValue* tool = report.find("tool");
  if (!tool || !tool->is_string() || tool->as_string().empty()) {
    return fail(error, "report: missing tool");
  }
  if (const JsonValue* phases = report.find("phases")) {
    if (!phases->is_array()) return fail(error, "phases: not an array");
    for (const auto& p : phases->as_array()) {
      const JsonValue* seconds = p.find("seconds");
      if (!p.find("name") || !seconds || !seconds->is_number() ||
          !p.find("count")) {
        return fail(error, "phases: entry needs name/seconds/count");
      }
      if (seconds->as_double() < 0.0) {
        return fail(error, "phases: negative wall time");
      }
    }
  }
  if (const JsonValue* sweep = report.find("sweep")) {
    if (!sweep->is_array()) return fail(error, "sweep: not an array");
    for (const auto& point : sweep->as_array()) {
      const JsonValue* orgs = point.find("orgs");
      if (!point.find("relative_cache_size") || !orgs || !orgs->is_array()) {
        return fail(error, "sweep: point needs relative_cache_size + orgs");
      }
      for (const auto& entry : orgs->as_array()) {
        const JsonValue* org = entry.find("org");
        const JsonValue* metrics = entry.find("metrics");
        if (!org || !org->is_string() || !metrics) {
          return fail(error, "sweep: org entry needs org + metrics");
        }
        if (!check_metrics(*metrics, "sweep[" + org->as_string() + "]",
                           error)) {
          return false;
        }
      }
    }
  }
  if (const JsonValue* scaling = report.find("client_scaling")) {
    if (!scaling->is_array()) {
      return fail(error, "client_scaling: not an array");
    }
    for (const auto& point : scaling->as_array()) {
      if (!point.find("client_fraction")) {
        return fail(error, "client_scaling: point needs client_fraction");
      }
      for (const char* side : {"browsers_aware", "proxy_and_local"}) {
        if (const JsonValue* metrics = point.find(side)) {
          if (!check_metrics(*metrics, std::string("client_scaling.") + side,
                             error)) {
            return false;
          }
        }
      }
    }
  }
  const JsonValue* registry = report.find("registry");
  return registry == nullptr || check_registry(*registry, error);
}

namespace {

/// The wire_* / netio_* / store_* counters of a report, keyed by name plus
/// labels in serialized order (snapshots sort labels, so keys match across
/// reports from one process). store_* rides along: the durable tier's
/// counters are cumulative across restarts by design. Instances that are
/// not well formed are left to validate_report.
std::map<std::string, double> transport_counters(const JsonValue& report) {
  std::map<std::string, double> out;
  const JsonValue* registry = report.find("registry");
  const JsonValue* counters =
      registry != nullptr ? registry->find("counters") : nullptr;
  if (counters == nullptr || !counters->is_array()) return out;
  for (const auto& inst : counters->as_array()) {
    const JsonValue* name = inst.find("name");
    const JsonValue* value = inst.find("value");
    if (name == nullptr || !name->is_string() || value == nullptr ||
        !value->is_number()) {
      continue;
    }
    std::string key = name->as_string();
    if (key.rfind("wire_", 0) != 0 && key.rfind("netio_", 0) != 0 &&
        key.rfind("store_", 0) != 0) {
      continue;
    }
    if (const JsonValue* labels = inst.find("labels");
        labels != nullptr && labels->is_object()) {
      for (const auto& [k, v] : labels->as_object()) {
        key += "|" + k + "=" + (v.is_string() ? v.as_string() : v.dump());
      }
    }
    out[key] = value->as_double();
  }
  return out;
}

}  // namespace

bool validate_transport_monotonicity(const JsonValue& earlier,
                                     const JsonValue& later,
                                     std::string* error) {
  if (error) error->clear();
  const auto after = transport_counters(later);
  for (const auto& [key, value] : transport_counters(earlier)) {
    const auto it = after.find(key);
    if (it != after.end() && it->second < value) {
      return fail(error, key + ": counter went backwards (" +
                             std::to_string(value) + " -> " +
                             std::to_string(it->second) + ")");
    }
  }
  return true;
}

}  // namespace baps::obs
