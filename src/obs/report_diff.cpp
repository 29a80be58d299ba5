#include "obs/report_diff.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace baps::obs {

namespace {

enum class DocKind { kReport, kHotpath, kUnknown };

DocKind doc_kind(const JsonValue& doc) {
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) return DocKind::kUnknown;
  if (schema->as_string() == "baps.report.v1") return DocKind::kReport;
  if (schema->as_string() == "baps.bench_hotpath.v1") return DocKind::kHotpath;
  return DocKind::kUnknown;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(4);
  os << v;
  return os.str();
}

/// Gauge instances of one metric family from a report's registry section,
/// keyed by their rendered label set.
std::map<std::string, double> report_gauges(const JsonValue& report,
                                            const std::string& metric) {
  std::map<std::string, double> out;
  const JsonValue* registry = report.find("registry");
  const JsonValue* gauges =
      registry != nullptr ? registry->find("gauges") : nullptr;
  if (gauges == nullptr || !gauges->is_array()) return out;
  for (const JsonValue& g : gauges->as_array()) {
    if (!g.is_object()) continue;
    const JsonValue* name = g.find("name");
    const JsonValue* value = g.find("value");
    if (name == nullptr || !name->is_string() ||
        name->as_string() != metric || value == nullptr ||
        !value->is_number() || !std::isfinite(value->as_double())) {
      continue;
    }
    std::string key;
    if (const JsonValue* labels = g.find("labels");
        labels != nullptr && labels->is_object()) {
      for (const auto& [k, v] : labels->as_object()) {
        if (!key.empty()) key += ',';
        key += k + "=" + (v.is_string() ? v.as_string() : v.dump());
      }
    }
    out["{" + key + "}"] = value->as_double();
  }
  return out;
}

/// Per-org req/s from a report: replay_requests_per_second gauges whose only
/// label is `org`. Reports come from outside the program, so a gauge with
/// any other label set is skipped rather than mistaken for a per-org rate.
std::map<std::string, double> report_org_rps(const JsonValue& report) {
  std::map<std::string, double> out;
  const JsonValue* registry = report.find("registry");
  const JsonValue* gauges =
      registry != nullptr ? registry->find("gauges") : nullptr;
  if (gauges == nullptr || !gauges->is_array()) return out;
  for (const JsonValue& g : gauges->as_array()) {
    if (!g.is_object()) continue;
    const JsonValue* name = g.find("name");
    const JsonValue* value = g.find("value");
    const JsonValue* labels = g.find("labels");
    if (name == nullptr || !name->is_string() ||
        name->as_string() != "replay_requests_per_second" ||
        value == nullptr || !value->is_number() || labels == nullptr ||
        !labels->is_object()) {
      continue;
    }
    const auto& obj = labels->as_object();
    if (obj.size() != 1 || obj[0].first != "org" ||
        !obj[0].second.is_string()) {
      continue;
    }
    const double v = value->as_double();
    if (std::isfinite(v) && v > 0.0) out[obj[0].second.as_string()] = v;
  }
  return out;
}

/// Per-org req/s from the newest hotpath entry's `requests_per_second`.
std::map<std::string, double> hotpath_org_rps(const JsonValue& doc) {
  std::map<std::string, double> out;
  const JsonValue* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_array() ||
      entries->as_array().empty()) {
    return out;
  }
  const JsonValue& last = entries->as_array().back();
  const JsonValue* rps = last.find("requests_per_second");
  if (rps == nullptr || !rps->is_object()) return out;
  for (const auto& [org, v] : rps->as_object()) {
    if (v.is_number() && std::isfinite(v.as_double()) && v.as_double() > 0.0) {
      out[org] = v.as_double();
    }
  }
  return out;
}

/// Divides every value by the map's geometric mean (values are positive).
void geomean_normalize(std::map<std::string, double>& m) {
  if (m.empty()) return;
  double log_sum = 0.0;
  for (const auto& [k, v] : m) log_sum += std::log(v);
  const double geomean = std::exp(log_sum / static_cast<double>(m.size()));
  for (auto& [k, v] : m) v /= geomean;
}

double tolerance_for(const ReportDiffOptions& options,
                     const std::string& metric, double mode_default) {
  if (auto it = options.metric_tolerances.find(metric);
      it != options.metric_tolerances.end()) {
    return it->second;
  }
  return options.tolerance_pct >= 0.0 ? options.tolerance_pct : mode_default;
}

void compare_one(const std::string& what, double base, double cur, double tol,
                 ReportDiffResult* result) {
  ++result->compared;
  const double rel = (cur - base) / base * 100.0;
  if (cur < base * (1.0 - tol / 100.0)) {
    result->ok = false;
    result->findings.push_back(what + ": regressed " + fmt(-rel) + "% (" +
                               fmt(base) + " -> " + fmt(cur) +
                               ", tolerance " + fmt(tol) + "%)");
  } else if (rel > tol) {
    result->notes.push_back(what + ": improved " + fmt(rel) + "% (" +
                            fmt(base) + " -> " + fmt(cur) + ")");
  }
}

}  // namespace

ReportDiffResult diff_reports(const JsonValue& baseline,
                              const JsonValue& current,
                              const ReportDiffOptions& options) {
  ReportDiffResult result;
  const DocKind base_kind = doc_kind(baseline);
  const DocKind cur_kind = doc_kind(current);
  if (base_kind == DocKind::kUnknown || cur_kind == DocKind::kUnknown) {
    result.ok = false;
    result.findings.push_back(
        "unrecognized schema: inputs must be baps.report.v1 or "
        "baps.bench_hotpath.v1 documents");
    return result;
  }

  const double inject = options.inject_regression_pct;

  if (base_kind == DocKind::kReport && cur_kind == DocKind::kReport) {
    // Same-machine A/B: absolute values compare directly.
    for (const std::string& metric : options.metric_names) {
      const double tol = tolerance_for(options, metric, /*mode_default=*/20.0);
      auto base = report_gauges(baseline, metric);
      auto cur = report_gauges(current, metric);
      for (const auto& [key, base_v] : base) {
        if (base_v <= 0.0) continue;
        auto it = cur.find(key);
        if (it == cur.end()) {
          result.notes.push_back(metric + key +
                                 ": in baseline only, skipped");
          continue;
        }
        double cur_v = it->second;
        if (inject > 0.0) cur_v *= 1.0 - inject / 100.0;
        compare_one(metric + key, base_v, cur_v, tol, &result);
      }
      for (const auto& [key, cur_v] : cur) {
        if (base.find(key) == base.end()) {
          result.notes.push_back(metric + key + ": in current only, skipped");
        }
      }
    }
    return result;
  }

  // Hotpath mode: normalize shapes before comparing.
  auto base_rps = base_kind == DocKind::kHotpath ? hotpath_org_rps(baseline)
                                                 : report_org_rps(baseline);
  auto cur_rps = cur_kind == DocKind::kHotpath ? hotpath_org_rps(current)
                                               : report_org_rps(current);
  if (base_rps.empty() || cur_rps.empty()) {
    result.ok = false;
    result.findings.push_back(
        "no per-org requests_per_second values to compare (baseline " +
        std::to_string(base_rps.size()) + " orgs, current " +
        std::to_string(cur_rps.size()) + ")");
    return result;
  }
  // Restrict both sides to the shared organizations so the geomeans
  // describe the same population.
  for (auto it = base_rps.begin(); it != base_rps.end();) {
    if (cur_rps.find(it->first) == cur_rps.end()) {
      result.notes.push_back("org " + it->first +
                             ": in baseline only, skipped");
      it = base_rps.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = cur_rps.begin(); it != cur_rps.end();) {
    if (base_rps.find(it->first) == base_rps.end()) {
      result.notes.push_back("org " + it->first +
                             ": in current only, skipped");
      it = cur_rps.erase(it);
    } else {
      ++it;
    }
  }
  if (base_rps.empty()) {
    result.ok = false;
    result.findings.push_back("baseline and current share no organizations");
    return result;
  }
  geomean_normalize(base_rps);
  geomean_normalize(cur_rps);
  result.notes.push_back(
      "cross-machine mode: values geomean-normalized over " +
      std::to_string(base_rps.size()) +
      " shared organizations; comparing relative shape, not absolute req/s");
  const double tol = tolerance_for(options, "replay_requests_per_second",
                                   /*mode_default=*/50.0);
  for (const auto& [org, base_v] : base_rps) {
    double cur_v = cur_rps[org];
    // Injected AFTER normalization: a uniform pre-normalization slowdown
    // would cancel out of the shape comparison by construction.
    if (inject > 0.0) cur_v *= 1.0 - inject / 100.0;
    compare_one("replay_requests_per_second{org=" + org + "} (normalized)",
                base_v, cur_v, tol, &result);
  }
  return result;
}

}  // namespace baps::obs
