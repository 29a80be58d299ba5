// Machine-readable run reports: one stable JSON schema ("baps.report.v1")
// serializing simulation Metrics, sweep results, per-phase wall times, and a
// metrics-registry snapshot. baps_cli --metrics-out and the figure benches
// write these artifacts; tools/report_check and the test suite validate and
// recompute from them.
//
// Schema (all sections except "schema" and "tool" optional):
//   {
//     "schema": "baps.report.v1",
//     "tool": "baps_cli",
//     "title": "...",
//     "args": ["--preset", "bu95", ...],
//     "trace": {"name", "requests", "clients", "docs", "total_bytes"},
//     "phases": [{"name", "seconds", "count"}, ...],
//     "sweep": [{"relative_cache_size", "orgs": [{"org", "metrics"}]}, ...],
//     "client_scaling": [{"client_fraction", "num_clients",
//                         "browsers_aware", "proxy_and_local",
//                         "hit_ratio_increment_pct", ...}, ...],
//     "registry": {"counters": [...], "gauges": [...], "histograms": [...]}
//   }
// Metrics objects carry exact integer counters next to derived ratios so a
// reader can recompute and cross-check every ratio.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/runner.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "sim/metrics.hpp"
#include "trace/record.hpp"

namespace baps::obs {

inline constexpr const char* kReportSchema = "baps.report.v1";

/// Full serialization of one simulation's Metrics: counters exact, derived
/// ratios alongside.
JsonValue metrics_to_json(const sim::Metrics& m);

/// Accumulates report sections and writes the schema above.
class ReportBuilder {
 public:
  explicit ReportBuilder(std::string tool);

  ReportBuilder& set_title(std::string title);
  ReportBuilder& set_args(int argc, char** argv);
  ReportBuilder& set_trace(const trace::Trace& t);
  ReportBuilder& add_phases(const PhaseTimers& phases);
  ReportBuilder& add_sweep(const std::vector<core::CacheSizePoint>& points);
  /// Appends scaling points (repeat calls accumulate one flat array). A
  /// non-empty `trace_label` tags each entry with a "trace" key so
  /// multi-trace benches stay distinguishable.
  ReportBuilder& add_client_scaling(
      const std::vector<core::ClientScalingPoint>& points,
      const std::string& trace_label = "");
  ReportBuilder& set_registry(const Snapshot& snapshot);

  JsonValue build() const;

  /// Serializes build() to `path` (pretty-printed). Returns false and fills
  /// *error on I/O failure.
  bool write(const std::string& path, std::string* error = nullptr) const;

 private:
  JsonValue doc_;
};

/// Structural validation of a parsed report against baps.report.v1: schema
/// id, section shapes, and internal consistency of every metrics object
/// (counts sum to totals, ratios match their counters). The registry
/// section is checked against the metric family table in report.cpp: the
/// labels and value rule of each family, plus its cross-metric relations
/// (sums that must match, bounds, quantiles monotone in q). Malformed input
/// is rejected, never thrown on. Returns true when valid; otherwise fills
/// *error with the first violation, naming the family and the rule.
bool validate_report(const JsonValue& report, std::string* error = nullptr);

enum class MetricKind { kCounter, kGauge, kHistogram };

/// True when the family table has a row, exact or prefix, covering
/// instrument `name` of `kind`.
bool has_validation_rule(std::string_view name, MetricKind kind);

/// Checks that every `wire_*` / `netio_*` / `store_*` counter present in
/// both reports (matched by name + labels) is monotone non-decreasing from
/// `earlier` to `later` — the cross-file invariant for successive snapshots
/// of one process (store counters are cumulative across warm restarts by
/// design).
bool validate_transport_monotonicity(const JsonValue& earlier,
                                     const JsonValue& later,
                                     std::string* error = nullptr);

}  // namespace baps::obs
