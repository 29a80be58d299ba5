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
// --overhead-guard PCT re-times the hot organization with a sampling-off
// tracer paying one root-span check per request — the exact cost a rate-0
// tracer adds to the runtime engine — and fails unless the simulated
// metrics stay bit-identical and the throughput regression stays under
// PCT percent. CI runs this to keep tracing free when it is off.
// --ts-interval/--ts-out run the continuous TimeSeriesSampler over the whole
// bench and export its baps.timeseries.v1 JSONL; --ts-overhead-guard PCT is
// the matching budget check — it A/B-times the hot organization with the
// sampler running against a sampler-free baseline and fails unless the
// simulated metrics stay bit-identical and the throughput cost stays under
// PCT percent. CI runs this to keep continuous telemetry within its 2%
// budget (and provably zero when off).
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
  double overhead_guard = 0.0;
  std::string store_dir;
  std::uint64_t store_capacity = 16 << 20;
  std::uint64_t store_ram = 256 << 10;
  double ts_interval = 0.0;
  std::string ts_out;
  double ts_overhead_guard = 0.0;
  util::ArgParser parser(argv[0]);
  parser.flag("--csv", &args.csv, "emit CSV instead of an aligned table")
      .option("--overhead-guard", &overhead_guard, "PCT",
              "fail if a sampling-off tracer costs more than PCT percent "
              "throughput (default 0: guard off)")
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
              "(requires --ts-interval)")
      .option("--ts-overhead-guard", &ts_overhead_guard, "PCT",
              "fail if a running time-series sampler costs more than PCT "
              "percent throughput or perturbs the simulated metrics "
              "(default 0: guard off)");
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
  if (ts_interval > 0.0 || ts_overhead_guard > 0.0) {
    store::register_store_metric_families();
    fault::register_fault_metric_families();
    obs::register_trace_metric_families();
  }
  if (ts_interval > 0.0) {
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

  if (overhead_guard > 0.0) {
    // A/B on the hot organization: a plain replay against the same replay
    // plus the per-request cost a sampling-off tracer adds to the runtime
    // engine (one root-span start per request, which collapses to a single
    // branch when the sampler is off — no id minting, no clock read, no
    // registry write).
    const auto scope = phases.scope("overhead_guard");
    const core::OrgKind kind = core::OrgKind::kBrowsersAware;
    obs::Tracer::Params tp;
    tp.seed = 1;
    tp.sample_rate = 0.0;
    tp.service = "bench";
    obs::Tracer tracer(tp);
    // The percentage budget is tight (default 2%), so each timing sample
    // must dwarf clock/scheduler noise: batch enough replays per sample to
    // fill ~100ms, sized from a calibration run (which also provides the
    // metrics for the bit-identity check below).
    double start = obs::monotonic_seconds();
    const sim::Metrics plain_metrics = sim::run_organization(kind, cfg, t);
    const double calib_secs = obs::monotonic_seconds() - start;
    const sim::Metrics traced_metrics = sim::run_organization(kind, cfg, t);
    std::uint64_t iters = 1;
    if (calib_secs > 0.0 && calib_secs < 0.1) {
      iters = static_cast<std::uint64_t>(0.1 / calib_secs) + 1;
    }
    const std::uint64_t guard_reps = reps < 5 ? 5 : reps;
    double best_plain = 0.0, best_traced = 0.0;
    for (std::uint64_t rep = 0; rep < guard_reps; ++rep) {
      start = obs::monotonic_seconds();
      for (std::uint64_t it = 0; it < iters; ++it) {
        sim::run_organization(kind, cfg, t);
      }
      const double plain_secs = obs::monotonic_seconds() - start;
      start = obs::monotonic_seconds();
      for (std::uint64_t it = 0; it < iters; ++it) {
        sim::run_organization(kind, cfg, t);
        for (std::size_t i = 0; i < t.size(); ++i) {
          obs::Span root = tracer.start_root_span(obs::SpanKind::kClientFetch);
        }
      }
      const double traced_secs = obs::monotonic_seconds() - start;
      if (rep == 0 || plain_secs < best_plain) best_plain = plain_secs;
      if (rep == 0 || traced_secs < best_traced) best_traced = traced_secs;
    }
    // Bit-identical first: an unsampled tracer must not perturb a single
    // simulated counter, histogram bucket, or derived ratio.
    const std::string plain_json = obs::metrics_to_json(plain_metrics).dump();
    const std::string traced_json =
        obs::metrics_to_json(traced_metrics).dump();
    if (plain_json != traced_json) {
      std::cerr << "overhead-guard: metrics differ with a sampling-off "
                   "tracer present\n";
      return 1;
    }
    const double regression_pct =
        best_plain > 0.0 ? (best_traced - best_plain) / best_plain * 100.0
                         : 0.0;
    obs::Registry::global()
        .gauge("replay_tracing_overhead_pct",
               {{"org", sim::org_name(kind)}})
        .set(regression_pct);
    std::cout << "overhead-guard: sampling-off tracer costs "
              << regression_pct << "% (budget " << overhead_guard << "%)\n";
    if (regression_pct > overhead_guard) {
      std::cerr << "overhead-guard: regression " << regression_pct
                << "% exceeds budget " << overhead_guard << "%\n";
      return 1;
    }
  }

  // The export sampler has covered every bench phase by now. Stop it before
  // the ts guard so the guard's sampler-free baseline is actually
  // sampler-free, and before write_report so the final interval record is
  // flushed ahead of the report.
  if (ts_sampler != nullptr) {
    ts_sampler->stop();
    if (!ts_out.empty()) std::cerr << "wrote " << ts_out << "\n";
  }

  if (ts_overhead_guard > 0.0) {
    // A/B on the hot organization: a plain replay against the same replay
    // with a TimeSeriesSampler ticking on its own thread. The sampler never
    // touches the simulation, so the simulated metrics must stay
    // bit-identical; the throughput cost is whatever its periodic registry
    // snapshots steal from the replay core, and that must stay under the
    // budget. Same batching discipline as --overhead-guard: each timing
    // sample is sized to ~100ms so the tight percentage budget is measured
    // above clock/scheduler noise.
    const auto scope = phases.scope("ts_overhead_guard");
    const core::OrgKind kind = core::OrgKind::kBrowsersAware;
    double start = obs::monotonic_seconds();
    const sim::Metrics off_metrics = sim::run_organization(kind, cfg, t);
    const double calib_secs = obs::monotonic_seconds() - start;
    std::uint64_t iters = 1;
    if (calib_secs > 0.0 && calib_secs < 0.1) {
      iters = static_cast<std::uint64_t>(0.1 / calib_secs) + 1;
    }
    const std::uint64_t guard_reps = reps < 5 ? 5 : reps;
    double best_off = 0.0;
    for (std::uint64_t rep = 0; rep < guard_reps; ++rep) {
      start = obs::monotonic_seconds();
      for (std::uint64_t it = 0; it < iters; ++it) {
        sim::run_organization(kind, cfg, t);
      }
      const double off_secs = obs::monotonic_seconds() - start;
      if (rep == 0 || off_secs < best_off) best_off = off_secs;
    }
    obs::TimeSeriesSampler::Params gp;
    gp.interval_seconds = ts_interval > 0.0 ? ts_interval : 0.05;
    obs::TimeSeriesSampler guard_sampler(gp);
    guard_sampler.start();
    const sim::Metrics on_metrics = sim::run_organization(kind, cfg, t);
    double best_on = 0.0;
    for (std::uint64_t rep = 0; rep < guard_reps; ++rep) {
      start = obs::monotonic_seconds();
      for (std::uint64_t it = 0; it < iters; ++it) {
        sim::run_organization(kind, cfg, t);
      }
      const double on_secs = obs::monotonic_seconds() - start;
      if (rep == 0 || on_secs < best_on) best_on = on_secs;
    }
    guard_sampler.stop();
    // Bit-identical first: a running sampler must not perturb a single
    // simulated counter, histogram bucket, or derived ratio.
    const std::string off_json = obs::metrics_to_json(off_metrics).dump();
    const std::string on_json = obs::metrics_to_json(on_metrics).dump();
    if (off_json != on_json) {
      std::cerr << "ts-overhead-guard: simulated metrics differ with the "
                   "sampler running\n";
      return 1;
    }
    const double regression_pct =
        best_off > 0.0 ? (best_on - best_off) / best_off * 100.0 : 0.0;
    obs::Registry::global()
        .gauge("replay_timeseries_overhead_pct",
               {{"org", sim::org_name(kind)}})
        .set(regression_pct);
    std::cout << "ts-overhead-guard: sampler at " << gp.interval_seconds
              << "s costs " << regression_pct << "% (budget "
              << ts_overhead_guard << "%, " << guard_sampler.intervals_captured()
              << " intervals captured)\n";
    if (regression_pct > ts_overhead_guard) {
      std::cerr << "ts-overhead-guard: regression " << regression_pct
                << "% exceeds budget " << ts_overhead_guard << "%\n";
      return 1;
    }
  }

  bench::write_report(args, "bench_replay", "Trace-replay throughput, BU-95",
                      t, {point}, phases);
  return 0;
}
