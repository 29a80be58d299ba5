// Trace-replay throughput harness for the flat-memory hot path.
//
// Replays the BU-95 preset end to end through all five organizations and
// reports requests/second per organization. Each organization is timed
// --reps times and the best run wins: single-core containers time noisily,
// and the minimum is the measurement least polluted by scheduler
// interference. The simulated Metrics are emitted as a one-point sweep in
// the baps.report.v1 report (so report_check recomputes every ratio), and
// throughput lands in the registry as replay_requests_per_second{org=...}
// gauges plus replay_latency_quantile_seconds{org=...,q=p50|p99} from the
// simulated latency distribution, which report_check validates as families.
// BENCH_hotpath.json at the repo root records the committed history of
// these numbers.
//
// --ts-interval/--ts-out run the continuous TimeSeriesSampler over the whole
// bench and export its baps.timeseries.v1 JSONL; each record the sampler's
// thread takes lists its own CPU as "ts_sampler". That a ticking sampler
// leaves the simulated metrics byte-identical is checked exactly, not timed
// here (PipelineTest.SimulationIsFullyDeterministic).
// --store-dir DIR adds a disk-tier replay phase: the same trace pushed
// through the runtime two-tier object store (RAM DocStore + durable slab
// segments under DIR), publishing the store_* metric family and a
// store_replay_requests_per_second gauge so the durable tier's throughput is
// tracked alongside the simulated organizations.
//
// This harness times one replay at a time on one thread. Parallelism lives
// in the figure benches' --threads, which run independent sweep points on a
// ThreadPool.
#include <fstream>
#include <memory>

#include "bench_common.hpp"
#include "fault/fault_plan.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "store/tiered_store.hpp"

int main(int argc, char** argv) {
  using namespace baps;
  bench::BenchArgs args;
  args.argc = argc;
  args.argv = argv;
  std::uint64_t reps = 5;
  std::string store_dir;
  std::uint64_t store_capacity = 16 << 20;
  std::uint64_t store_ram = 256 << 10;
  double ts_interval = 0.0;
  std::string ts_out;
  util::ArgParser parser(argv[0]);
  parser.flag("--csv", &args.csv, "emit CSV instead of an aligned table")
      .option("--scale", &args.scale, "F",
              "shrink the preset trace by F in (0,1]")
      .option("--metrics-out", &args.metrics_out, "FILE",
              "write a baps.report.v1 JSON report of the runs")
      .option("--reps", &reps, "N",
              "time N replays per organization and keep the best")
      .option("--churn-rate", &args.churn_rate, "P",
              "per-request client churn probability in [0,1] (default 0)")
      .option("--churn-seed", &args.churn_seed, "S",
              "seed for the churn event stream")
      .option("--store-dir", &store_dir, "DIR",
              "also replay through the runtime disk tier rooted at DIR")
      .bytes("--store-capacity", &store_capacity, "BYTES",
              "disk tier capacity for --store-dir, k/m/g ok (default 16m)")
      .bytes("--store-ram", &store_ram, "BYTES",
              "RAM tier in front of --store-dir, k/m/g ok (default 256k)")
      .duration("--ts-interval", &ts_interval, "DUR",
                "run the continuous time-series sampler over the bench, "
                "e.g. 1s / 250ms (default 0: sampler off)")
      .option("--ts-out", &ts_out, "FILE",
              "write baps.timeseries.v1 interval records as JSONL "
              "(requires --ts-interval)");
  std::string error;
  if (!parser.parse(argc, argv, &error)) {
    std::cerr << error << "\n" << parser.usage();
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage();
    return 0;
  }
  if (args.scale <= 0.0 || args.scale > 1.0) {
    std::cerr << "--scale must be in (0,1]\n";
    return 2;
  }
  if (reps == 0) {
    std::cerr << "--reps must be >= 1\n";
    return 2;
  }
  if (args.churn_rate < 0.0 || args.churn_rate > 1.0) {
    std::cerr << "--churn-rate must be in [0,1]\n";
    return 2;
  }
  if (!ts_out.empty() && ts_interval <= 0.0) {
    std::cerr << "--ts-out requires --ts-interval > 0\n";
    return 2;
  }
  // Continuous telemetry over the bench. Families are pre-registered so the
  // seq-0 baseline already carries the full schema.
  std::unique_ptr<obs::TimeSeriesSampler> ts_sampler;
  std::ofstream ts_stream;
  if (ts_interval > 0.0) {
    store::register_store_metric_families();
    fault::register_fault_metric_families();
    obs::register_trace_metric_families();
    obs::TimeSeriesSampler::Params sp;
    sp.interval_seconds = ts_interval;
    ts_sampler = std::make_unique<obs::TimeSeriesSampler>(sp);
    if (!ts_out.empty()) {
      ts_stream.open(ts_out);
      if (!ts_stream) {
        std::cerr << "cannot open " << ts_out << "\n";
        return 1;
      }
      ts_sampler->set_sink(&ts_stream);
    }
    ts_sampler->start();
  }

  obs::PhaseTimers phases;
  trace::Trace t;
  {
    const auto scope = phases.scope("load_trace");
    t = bench::load(trace::Preset::kBu95, args);
  }
  const trace::TraceStats stats = trace::compute_stats(t);
  core::RunSpec spec;  // paper defaults: LRU, minimum browser sizing, 10%
  spec.churn_rate = args.churn_rate;
  spec.churn_seed = args.churn_seed;
  const sim::SimConfig cfg = core::build_config(stats, spec);

  core::CacheSizePoint point;
  point.relative_cache_size = spec.relative_cache_size;

  Table table(
      {"Organization", "Requests", "Best Seconds", "Requests/s", "Hit Ratio"});
  {
    const auto scope = phases.scope("replay");
    for (const core::OrgKind kind : sim::kAllOrganizations) {
      double best_secs = 0.0;
      for (std::uint64_t rep = 0; rep < reps; ++rep) {
        // Construction (including the capacity reservations) counts as part
        // of the replay: it is work a fresh simulation always pays.
        // run_organization dispatches to the concrete organization once, so
        // the per-request loop is free of virtual calls.
        const double start = obs::monotonic_seconds();
        const sim::Metrics m = sim::run_organization(kind, cfg, t);
        const double secs = obs::monotonic_seconds() - start;
        if (rep == 0 || secs < best_secs) best_secs = secs;
        if (rep + 1 == reps) point.by_org.emplace(kind, m);
      }
      const double rps = static_cast<double>(t.size()) / best_secs;
      obs::Registry::global()
          .gauge("replay_requests_per_second", {{"org", sim::org_name(kind)}})
          .set(rps);
      const sim::Metrics& m = point.by_org.at(kind);
      if (m.log_latency.count() > 0) {
        const std::pair<const char*, double> quantiles[] = {{"p50", 0.5},
                                                            {"p99", 0.99}};
        for (const auto& [qname, q] : quantiles) {
          obs::Registry::global()
              .gauge("replay_latency_quantile_seconds",
                     {{"org", sim::org_name(kind)}, {"q", qname}})
              .set(m.latency_quantile(q));
        }
      }
      table.row()
          .cell(sim::org_name(kind))
          .cell(static_cast<std::uint64_t>(t.size()))
          .cell(best_secs, 4)
          .cell(rps, 0)
          .cell_percent(m.hit_ratio());
    }
  }

  std::cout << "Trace-replay throughput, " << trace::preset_name(trace::Preset::kBu95)
            << ", best of " << reps << " run(s), default RunSpec\n";
  bench::emit(table, args);

  if (!store_dir.empty()) {
    // Disk-tier replay: every request probes the two-tier store and a miss
    // installs the document (RAM first, demotions spilling to the slab log).
    // Bodies are synthetic ('x' * size) — the store times byte movement, not
    // origin fetches — and the watermark is a cheap stand-in signature; RSA
    // issuance is benchmarked elsewhere.
    const auto scope = phases.scope("store_replay");
    store::TieredObjectStore::Params sp;
    sp.ram_bytes = store_ram;
    sp.disk.dir = store_dir;
    sp.disk.capacity_bytes = store_capacity;
    store::TieredObjectStore tiered(sp);
    if (!tiered.open(&error)) {
      std::cerr << "cannot open store: " << error << "\n";
      return 1;
    }
    std::uint64_t hits = 0;
    const double start = obs::monotonic_seconds();
    for (const trace::Request& req : t.requests()) {
      if (tiered.get(req.doc).has_value()) {
        ++hits;
        continue;
      }
      runtime::Document doc;
      doc.body.assign(req.size, 'x');
      doc.mark.signature = crypto::BigUInt(req.doc);
      tiered.put(req.doc, std::move(doc));
    }
    tiered.sync();
    const double secs = obs::monotonic_seconds() - start;
    const double rps =
        secs > 0.0 ? static_cast<double>(t.size()) / secs : 0.0;
    obs::Registry::global()
        .gauge("store_replay_requests_per_second")
        .set(rps);
    std::cout << "store replay: requests=" << t.size() << " hits=" << hits
              << " seconds=" << secs << " requests/s=" << rps
              << " segments=" << tiered.disk()->segment_count()
              << " disk_bytes=" << tiered.disk()->total_bytes() << "\n";
  }

  // The export sampler has covered every bench phase by now. Stop it before
  // write_report so the final interval record is flushed ahead of the report.
  if (ts_sampler != nullptr) {
    ts_sampler->stop();
    if (!ts_out.empty()) std::cerr << "wrote " << ts_out << "\n";
  }

  bench::write_report(args, "bench_replay", "Trace-replay throughput, BU-95",
                      t, {point}, phases);
  return 0;
}
