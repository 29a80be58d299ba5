// baps_cli — command-line driver for the simulator.
//
// Run any caching organization over a preset or a real log file with full
// control of the knobs, printing a table or CSV. Examples:
//
//   baps_cli --preset nlanr-uc --size 0.10
//   baps_cli --preset bu95 --orgs baps,hierarchy --sizes 0.01,0.05,0.10
//   baps_cli --log access.log --format squid --policy gdsf --csv
//   baps_cli --preset bu98 --index periodic --threshold 0.25
//   baps_cli --preset bu95 --metrics-out report.json --progress
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>

#include "core/api.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"

namespace {

using namespace baps;

std::optional<core::OrgKind> org_by_name(const std::string& name) {
  if (name == "proxy") return core::OrgKind::kProxyOnly;
  if (name == "local") return core::OrgKind::kLocalBrowserOnly;
  if (name == "global") return core::OrgKind::kGlobalBrowsersOnly;
  if (name == "hierarchy") return core::OrgKind::kProxyAndLocalBrowser;
  if (name == "baps") return core::OrgKind::kBrowsersAware;
  return std::nullopt;
}

std::optional<cache::PolicyKind> policy_by_name(const std::string& name) {
  if (name == "lru") return cache::PolicyKind::kLru;
  if (name == "fifo") return cache::PolicyKind::kFifo;
  if (name == "lfu") return cache::PolicyKind::kLfu;
  if (name == "size") return cache::PolicyKind::kSize;
  if (name == "gdsf") return cache::PolicyKind::kGdsf;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset_name, log_file, format = "squid";
  double scale = 1.0;
  std::vector<core::OrgKind> orgs;
  std::vector<double> sizes = {0.10};
  core::RunSpec spec;
  bool csv = false, overheads = false;
  std::string metrics_out;
  bool progress = false;
  bool relay = false;

  util::ArgParser parser(
      "baps_cli",
      "Run caching organizations over a preset or a real log file.");
  parser.option("--preset", &preset_name, "NAME",
                "nlanr-uc | nlanr-bo1 | bu95 | bu98 | canet2")
      .option("--log", &log_file, "FILE", "parse a real access log")
      .option("--format", &format, "FMT", "squid | plain (default squid)")
      .option("--scale", &scale, "F", "shrink a preset by F in (0,1]")
      .custom("--orgs", "LIST",
              "comma list of: proxy, local, global, hierarchy, baps, all",
              [&orgs](const std::string& v) {
                for (const auto& n : util::split(v, ',')) {
                  if (n == "all") {
                    orgs.assign(std::begin(sim::kAllOrganizations),
                                std::end(sim::kAllOrganizations));
                  } else if (const auto org = org_by_name(n)) {
                    orgs.push_back(*org);
                  } else {
                    return false;
                  }
                }
                return true;
              })
      .custom("--sizes", "LIST", "relative proxy sizes (default 0.10)",
              [&sizes](const std::string& v) {
                sizes.clear();
                for (const auto& n : util::split(v, ',')) {
                  double size = 0.0;
                  if (!util::parse_number(n, &size)) return false;
                  sizes.push_back(size);
                }
                return !sizes.empty();
              })
      .custom("--sizing", "MODE", "min | avg (default min)",
              [&spec](const std::string& m) {
                spec.sizing = (m == "avg") ? core::BrowserSizing::kAverage
                                           : core::BrowserSizing::kMinimum;
                return true;
              })
      .custom("--policy", "P", "lru|fifo|lfu|size|gdsf (default lru)",
              [&spec](const std::string& p) {
                const auto policy = policy_by_name(p);
                if (!policy.has_value()) return false;
                spec.policy = *policy;
                return true;
              })
      .custom("--index", "MODE", "immediate | periodic | bloom",
              [&spec](const std::string& m) {
                if (m == "periodic") {
                  spec.index_mode = sim::IndexMode::kPeriodic;
                } else if (m == "bloom") {
                  spec.index_kind = sim::IndexKind::kBloomSummary;
                } else if (m != "immediate") {
                  return false;
                }
                return true;
              })
      .option("--threshold", &spec.index_threshold, "F",
              "periodic flush threshold (default 0.1)")
      .flag("--relay", &relay, "remote hits relayed via the proxy (2 hops)")
      .flag("--csv", &csv, "machine-readable output")
      .flag("--overheads", &overheads,
            "include the Section 5 overhead columns")
      .option("--metrics-out", &metrics_out, "FILE",
              "write a baps.report.v1 JSON report")
      .flag("--progress", &progress, "print sweep progress to stderr");

  std::string parse_error;
  if (!parser.parse(argc, argv, &parse_error)) {
    std::cerr << parse_error << "\n" << parser.usage();
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage();
    return 0;
  }
  spec.relay_via_proxy = relay;
  if (orgs.empty()) {
    orgs.assign(std::begin(sim::kAllOrganizations),
                std::end(sim::kAllOrganizations));
  }
  if (preset_name.empty() == log_file.empty()) {
    std::cerr << "pick exactly one of --preset / --log\n" << parser.usage();
    return 2;
  }

  obs::PhaseTimers phases;

  trace::Trace t;
  {
    const auto load_scope = phases.scope("load_trace");
    if (!preset_name.empty()) {
      const auto preset = trace::preset_from_name(preset_name);
      if (!preset.has_value()) {
        std::cerr << "unknown preset: " << preset_name << "\n";
        return 2;
      }
      t = scale >= 1.0 ? trace::load_preset(*preset)
                       : trace::load_preset_scaled(*preset, scale);
    } else {
      std::ifstream in(log_file);
      if (!in) {
        std::cerr << "cannot open " << log_file << "\n";
        return 1;
      }
      const trace::ParseResult r = format == "plain"
                                       ? trace::parse_plain_log(in, log_file)
                                       : trace::parse_squid_log(in, log_file);
      std::cerr << "parsed " << r.lines_parsed << " requests ("
                << r.lines_skipped << " lines skipped)\n";
      t = std::move(r.trace);
    }
  }
  if (t.empty()) {
    std::cerr << "empty trace\n";
    return 1;
  }

  core::ProgressFn progress_fn;
  if (progress) {
    progress_fn = [](std::size_t done, std::size_t total) {
      std::cerr << "progress: " << done << "/" << total << "\n";
    };
  }

  ThreadPool pool;
  std::vector<core::CacheSizePoint> points;
  {
    const auto sweep_scope = phases.scope("sweep");
    points = core::sweep_cache_sizes(t, sizes, orgs, spec, &pool,
                                     std::move(progress_fn));
  }

  std::vector<std::string> header = {"Organization", "Rel.Size", "Hit Ratio",
                                     "Byte Hit Ratio", "Remote Hits"};
  if (overheads) {
    header.insert(header.end(), {"Comm/Service", "Contention/Comm",
                                 "Index Msgs", "False Fwds"});
  }
  Table table(header);
  for (const auto& p : points) {
    for (const core::OrgKind org : orgs) {
      const sim::Metrics& m = p.by_org.at(org);
      auto& row = table.row()
                      .cell(sim::org_name(org))
                      .cell(p.relative_cache_size, 3)
                      .cell_percent(m.hit_ratio())
                      .cell_percent(m.byte_hit_ratio())
                      .cell(m.remote_browser_hits);
      if (overheads) {
        row.cell_percent(m.remote_overhead_fraction(), 3)
            .cell_percent(m.contention_fraction_of_comm(), 3)
            .cell(m.index_messages)
            .cell(m.false_forwards);
      }
    }
  }
  std::cout << (csv ? table.to_csv() : table.to_string());

  if (!metrics_out.empty()) {
    std::string error;
    const bool ok = obs::ReportBuilder("baps_cli")
                        .set_title(preset_name.empty() ? log_file
                                                       : preset_name)
                        .set_args(argc, argv)
                        .set_trace(t)
                        .add_phases(phases)
                        .add_sweep(points)
                        .set_registry(obs::Registry::global().snapshot())
                        .write(metrics_out, &error);
    if (!ok) {
      std::cerr << "cannot write " << metrics_out << ": " << error << "\n";
      return 1;
    }
    std::cerr << "wrote " << metrics_out << "\n";
  }
  return 0;
}
