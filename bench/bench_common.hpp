// Shared plumbing for the figure/table bench harnesses.
//
// Every harness accepts:
//   --csv          emit CSV instead of an aligned table
//   --scale <f>    shrink the preset traces by factor f in (0,1] (default 1:
//                  the full paper-scale runs; use e.g. 0.1 for a quick look)
//   --metrics-out <file>  write a baps.report.v1 JSON report of the runs
//   --progress     print sweep progress to stderr
//   --threads <n>  sweep worker threads (default 0 = hardware_concurrency).
//                  These parallelize ACROSS independent simulations — one
//                  (organization, cache size) point per task; each replay
//                  itself runs on one thread.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/api.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"

namespace baps::bench {

struct BenchArgs {
  bool csv = false;
  double scale = 1.0;
  std::string metrics_out;
  bool progress = false;
  /// Sweep worker threads — parallelism ACROSS independent simulations; 0
  /// lets ThreadPool pick hardware_concurrency.
  std::uint64_t threads = 0;
  /// Client churn (§5 spirit): per-request churn probability and its seed.
  double churn_rate = 0.0;
  std::uint64_t churn_seed = 0;
  int argc = 0;
  char** argv = nullptr;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  args.argc = argc;
  args.argv = argv;
  util::ArgParser parser(argv[0]);
  parser.flag("--csv", &args.csv, "emit CSV instead of an aligned table")
      .option("--scale", &args.scale, "F",
              "shrink the preset traces by F in (0,1]")
      .option("--metrics-out", &args.metrics_out, "FILE",
              "write a baps.report.v1 JSON report of the runs")
      .flag("--progress", &args.progress, "print sweep progress to stderr")
      .option("--threads", &args.threads, "N",
              "sweep worker threads across independent simulations "
              "(0 = hardware_concurrency)")
      .option("--churn-rate", &args.churn_rate, "P",
              "per-request client churn probability in [0,1] (default 0)")
      .option("--churn-seed", &args.churn_seed, "S",
              "seed for the churn event stream");
  std::string error;
  if (!parser.parse(argc, argv, &error)) {
    std::cerr << error << "\n" << parser.usage();
    std::exit(2);
  }
  if (parser.help_requested()) {
    std::cout << parser.usage();
    std::exit(0);
  }
  if (args.scale <= 0.0 || args.scale > 1.0) {
    std::cerr << "--scale must be in (0,1]\n";
    std::exit(2);
  }
  if (args.churn_rate < 0.0 || args.churn_rate > 1.0) {
    std::cerr << "--churn-rate must be in [0,1]\n";
    std::exit(2);
  }
  return args;
}

/// stderr progress callback when --progress was given, else a null fn.
inline core::ProgressFn progress_fn(const BenchArgs& args) {
  if (!args.progress) return nullptr;
  return [](std::size_t done, std::size_t total) {
    std::cerr << "progress: " << done << "/" << total << "\n";
  };
}

/// Writes the standard report for a cache-size sweep when --metrics-out was
/// given. Exits nonzero on I/O failure so CI catches it.
inline void write_report(const BenchArgs& args, const std::string& tool,
                         const std::string& title, const trace::Trace& t,
                         const std::vector<core::CacheSizePoint>& points,
                         const obs::PhaseTimers& phases) {
  if (args.metrics_out.empty()) return;
  std::string error;
  const bool ok = obs::ReportBuilder(tool)
                      .set_title(title)
                      .set_args(args.argc, args.argv)
                      .set_trace(t)
                      .add_phases(phases)
                      .add_sweep(points)
                      .set_registry(obs::Registry::global().snapshot())
                      .write(args.metrics_out, &error);
  if (!ok) {
    std::cerr << "cannot write " << args.metrics_out << ": " << error << "\n";
    std::exit(1);
  }
  std::cerr << "wrote " << args.metrics_out << "\n";
}

inline trace::Trace load(trace::Preset preset, const BenchArgs& args) {
  return args.scale >= 1.0 ? trace::load_preset(preset)
                           : trace::load_preset_scaled(preset, args.scale);
}

inline void emit(const Table& table, const BenchArgs& args) {
  if (args.csv) {
    std::cout << table.to_csv();
  } else {
    std::cout << table << '\n';
  }
}

/// The relative cache sizes of Figures 2–7 (fractions of the infinite
/// cache size): 0.5%, 1%, 5%, 10%, 20%.
inline const std::vector<double> kRelativeSizes = {0.005, 0.01, 0.05, 0.10,
                                                   0.20};

/// Figures 4–7 all share one shape: browsers-aware-proxy-server vs
/// proxy-and-local-browser across the relative cache sizes, with browser
/// caches at the §3.2 AVERAGE sizing.
inline void run_compare_figure(trace::Preset preset, const std::string& title,
                               const BenchArgs& args,
                               const std::string& tool) {
  obs::PhaseTimers phases;
  trace::Trace t;
  {
    const auto scope = phases.scope("load_trace");
    t = load(preset, args);
  }
  core::RunSpec spec;
  spec.sizing = core::BrowserSizing::kAverage;
  spec.churn_rate = args.churn_rate;
  spec.churn_seed = args.churn_seed;
  ThreadPool pool(args.threads);
  const std::vector<core::OrgKind> orgs = {
      core::OrgKind::kProxyAndLocalBrowser, core::OrgKind::kBrowsersAware};
  std::vector<core::CacheSizePoint> points;
  {
    const auto scope = phases.scope("sweep");
    points = core::sweep_cache_sizes(t, kRelativeSizes, orgs, spec, &pool,
                                     progress_fn(args));
  }

  for (const bool bytes : {false, true}) {
    Table table({bytes ? "Byte Hit Ratio" : "Hit Ratio", "0.5%", "1%", "5%",
                 "10%", "20%"});
    for (const core::OrgKind org : orgs) {
      auto& row = table.row().cell(sim::org_name(org));
      for (const auto& p : points) {
        const sim::Metrics& m = p.by_org.at(org);
        row.cell_percent(bytes ? m.byte_hit_ratio() : m.hit_ratio());
      }
    }
    std::cout << title << " (" << (bytes ? "byte hit" : "hit")
              << " ratios), " << trace::preset_name(preset)
              << ", average browser caches\n";
    emit(table, args);
  }
  write_report(args, tool, title, t, points, phases);
}

}  // namespace baps::bench
