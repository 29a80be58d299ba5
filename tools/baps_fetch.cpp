// baps_fetch — drive BAPS clients against a proxy, over TCP or in-process.
//
// Runs a workload (one URL or a slice of a preset trace) through a
// BapsSystem whose clients talk to the proxy either over the wire
// (--transport tcp, against a running baps_proxyd) or through the in-process
// loopback (--transport loopback, which embeds the proxy). The same seed and
// client count on both ends derive the same keys, so the two transports must
// produce byte-identical per-request outcomes: --sources-out writes one
// "<client> <source>" line per request for exactly that comparison.
//
//   baps_proxyd --port 4160 --clients 8 &
//   baps_fetch --transport tcp --port 4160 --clients 8
//       --preset bu95 --requests 1000 --sources-out tcp.txt
//   baps_fetch --transport loopback --clients 8
//       --preset bu95 --requests 1000 --sources-out loop.txt
//   diff tcp.txt loop.txt
//
// With --trace-sample the client side of every sampled request is traced
// (root client_fetch span + frame spans, JSONL to --trace-out) and the
// sampled trace context rides the wire, so a proxy running with tracing on
// records spans under the same trace ids. `--stats` asks a running proxyd
// for its live introspection snapshot (baps.trace_stats.v1) and exits:
//
//   baps_fetch --transport tcp --port 4160 --stats
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "fault/fault_plan.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "runtime/system.hpp"
#include "store/tiered_store.hpp"
#include "runtime/tcp_transport.hpp"
#include "trace/presets.hpp"
#include "util/args.hpp"

namespace {

using namespace baps;

// Same CLI-style names as baps_cli.
std::optional<trace::Preset> preset_by_name(const std::string& name) {
  if (name == "nlanr-uc") return trace::Preset::kNlanrUc;
  if (name == "nlanr-bo1") return trace::Preset::kNlanrBo1;
  if (name == "bu95") return trace::Preset::kBu95;
  if (name == "bu98") return trace::Preset::kBu98;
  if (name == "canet2") return trace::Preset::kCanet2;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string transport_name = "tcp";
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint32_t clients = 4;
  std::uint64_t seed = 7;
  std::uint64_t browser_cache = 64 << 10;
  std::uint64_t proxy_cache = 256 << 10;
  std::uint32_t rsa_bits = 256;
  std::string store_dir;
  std::uint64_t store_capacity = 64 << 20;
  std::string url;
  std::uint32_t client = 0;
  std::string preset_name;
  std::uint64_t requests = 1000;
  std::string sources_out, metrics_out;
  std::string fault_rates_spec;
  std::uint64_t fault_seed = 1;
  bool fault_strict = false;
  bool stats = false;
  std::uint32_t stats_spans = 32;
  double trace_sample = 0.0;
  std::string trace_out;
  double ts_interval = 0.0;
  std::string ts_out;

  util::ArgParser parser("baps_fetch",
                         "Fetch documents through a BAPS proxy.");
  parser.option("--transport", &transport_name, "T",
                "tcp | loopback (default tcp)")
      .option("--host", &host, "H", "proxy host (default 127.0.0.1)")
      .option("--port", &port, "P", "proxy port (required for tcp)")
      .option("--clients", &clients, "N",
              "number of clients; must match the proxy (default 4)")
      .option("--seed", &seed, "S",
              "key-derivation seed; must match the proxy (default 7)")
      .option("--browser-cache", &browser_cache, "BYTES",
              "per-client browser cache capacity (default 65536)")
      .option("--proxy-cache", &proxy_cache, "BYTES",
              "embedded proxy cache capacity, loopback only (default 262144)")
      .option("--rsa-bits", &rsa_bits, "B",
              "embedded proxy RSA bits, loopback only (default 256)")
      .option("--store-dir", &store_dir, "DIR",
              "embedded proxy durable cache tier, loopback only (default: no "
              "disk tier); proxy-restart faults warm-start from it")
      .bytes("--store-capacity", &store_capacity, "BYTES",
              "disk tier capacity, k/m/g suffixes ok (default 64m)")
      .option("--url", &url, "URL", "fetch one URL and exit")
      .option("--client", &client, "C", "client id for --url (default 0)")
      .option("--preset", &preset_name, "NAME",
              "replay a preset trace slice (nlanr-uc, bu95, ...)")
      .option("--requests", &requests, "N",
              "trace slice length for --preset (default 1000)")
      .option("--sources-out", &sources_out, "FILE",
              "write one '<client> <source>' line per request")
      .option("--metrics-out", &metrics_out, "FILE",
              "write a baps.report.v1 JSON report")
      .option("--fault-rates", &fault_rates_spec, "SPEC",
              "inject faults, e.g. disconnect=0.05,corrupt=0.02,slow=0.1")
      .option("--fault-seed", &fault_seed, "S",
              "seed for the fault decision streams (default 1)")
      .flag("--fault-strict", &fault_strict,
            "exit 1 unless every injected fault was recovered")
      .flag("--stats", &stats,
            "print the proxy's live trace/metric snapshot and exit (tcp only)")
      .option("--stats-spans", &stats_spans, "N",
              "recent spans to include with --stats (default 32)")
      .option("--trace-sample", &trace_sample, "RATE",
              "trace sampling rate in [0,1] (default 0: tracing off)")
      .option("--trace-out", &trace_out, "FILE",
              "write sampled spans as JSONL (requires --trace-sample)")
      .duration("--ts-interval", &ts_interval, "DUR",
                "continuous time-series sampling interval, e.g. 1s / 250ms "
                "(default 0: sampler off)")
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
  const bool use_tcp = transport_name == "tcp";
  if (!use_tcp && transport_name != "loopback") {
    std::cerr << "--transport must be tcp or loopback\n";
    return 2;
  }
  if (use_tcp && port == 0) {
    std::cerr << "--port is required with --transport tcp\n";
    return 2;
  }
  if (trace_sample < 0.0 || trace_sample > 1.0) {
    std::cerr << "--trace-sample must be in [0, 1]\n";
    return 2;
  }
  if (!trace_out.empty() && trace_sample <= 0.0) {
    std::cerr << "--trace-out requires --trace-sample > 0\n";
    return 2;
  }
  if (!ts_out.empty() && ts_interval <= 0.0) {
    std::cerr << "--ts-out requires --ts-interval > 0\n";
    return 2;
  }
  if (stats) {
    // Stats only: connect, ask for the live snapshot, print, exit.
    if (!use_tcp) {
      std::cerr << "--stats needs --transport tcp (a running baps_proxyd)\n";
      return 2;
    }
    runtime::TcpTransport::Params tp;
    tp.proxy_host = host;
    tp.proxy_port = port;
    runtime::TcpTransport transport(tp);
    std::cout << transport.trace_stats(stats_spans) << "\n";
    return 0;
  }
  if (url.empty() == preset_name.empty()) {
    std::cerr << "pick exactly one of --url / --preset\n" << parser.usage();
    return 2;
  }
  if (clients == 0) {
    std::cerr << "--clients must be at least 1\n";
    return 2;
  }
  std::unique_ptr<fault::FaultPlan> plan;
  if (!fault_rates_spec.empty()) {
    const auto rates = fault::FaultRates::parse(fault_rates_spec, &error);
    if (!rates.has_value()) {
      std::cerr << "--fault-rates: " << error << "\n";
      return 2;
    }
    plan = std::make_unique<fault::FaultPlan>(fault_seed, *rates);
  }
  if (fault_strict && plan == nullptr) {
    std::cerr << "--fault-strict requires --fault-rates\n";
    return 2;
  }

  if (use_tcp && !store_dir.empty()) {
    std::cerr << "--store-dir is loopback-only (the daemon owns its store; "
                 "pass --store-dir to baps_proxyd instead)\n";
    return 2;
  }

  runtime::BapsSystem::Params params;
  params.num_clients = clients;
  params.browser_cache_bytes = browser_cache;
  params.proxy_cache_bytes = proxy_cache;
  params.seed = seed;
  params.rsa_modulus_bits = rsa_bits;
  params.store.dir = store_dir;
  params.store.capacity_bytes = store_capacity;

  // Declared before the transport/system so it outlives them: channels keep
  // a raw tracer pointer until they are torn down.
  std::unique_ptr<obs::Tracer> tracer;
  std::ofstream span_stream;
  std::unique_ptr<obs::JsonlSink> span_sink;

  std::unique_ptr<runtime::TcpTransport> transport;
  std::unique_ptr<runtime::BapsSystem> sys;
  if (use_tcp) {
    runtime::TcpTransport::Params tp;
    tp.proxy_host = host;
    tp.proxy_port = port;
    transport = std::make_unique<runtime::TcpTransport>(tp);
    sys = std::make_unique<runtime::BapsSystem>(params, *transport);
  } else {
    sys = std::make_unique<runtime::BapsSystem>(params);
  }
  if (plan != nullptr) sys->attach_fault_plan(plan.get());

  // Client-side tracer: every browse() roots a client_fetch span and the
  // sampled context rides the wire to the proxy. Seeded from --seed, so the
  // client and the proxy sample the same trace ids.
  if (trace_sample > 0.0) {
    obs::Tracer::Params tp;
    tp.seed = seed;
    tp.sample_rate = trace_sample;
    tp.service = "client";
    tracer = std::make_unique<obs::Tracer>(tp);
    if (!trace_out.empty()) {
      span_stream.open(trace_out);
      if (!span_stream) {
        std::cerr << "cannot open " << trace_out << "\n";
        return 1;
      }
      span_sink = std::make_unique<obs::JsonlSink>(span_stream);
      tracer->set_sink(span_sink.get());
    }
    sys->set_tracer(tracer.get());
  }

  std::ofstream sources;
  if (!sources_out.empty()) {
    sources.open(sources_out);
    if (!sources) {
      std::cerr << "cannot open " << sources_out << "\n";
      return 1;
    }
  }

  // Continuous telemetry over the workload: pre-register the documented
  // families so interval #0 carries the full schema, then sample on a
  // dedicated thread until the run finishes.
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
  std::uint64_t done = 0, verified = 0, tampered = 0;
  const auto run_one = [&](runtime::ClientId c, const std::string& u) {
    const runtime::FetchOutcome out = sys->browse(c, u);
    ++done;
    if (out.verified) ++verified;
    if (out.tamper_recovered) ++tampered;
    if (sources.is_open()) {
      sources << c << " " << runtime::source_name(out.source) << "\n";
    }
  };

  if (!url.empty()) {
    if (client >= clients) {
      std::cerr << "--client must be below --clients\n";
      return 2;
    }
    const auto fetch_scope = phases.scope("fetch");
    run_one(client, url);
  } else {
    const auto preset = preset_by_name(preset_name);
    if (!preset.has_value()) {
      std::cerr << "unknown preset: " << preset_name << "\n";
      return 2;
    }
    trace::Trace t;
    {
      const auto load_scope = phases.scope("load_trace");
      t = trace::load_preset(*preset);
    }
    const auto fetch_scope = phases.scope("fetch");
    for (const trace::Request& req : t.requests()) {
      if (done >= requests) break;
      run_one(static_cast<runtime::ClientId>(req.client % clients),
              t.url_of(req.doc));
    }
  }

  if (ts_sampler != nullptr) {
    ts_sampler->stop();  // final tick captures the end-of-run state
    if (!ts_out.empty()) std::cerr << "wrote " << ts_out << "\n";
  }

  std::cout << "requests=" << done << " verified=" << verified
            << " tamper_recovered=" << tampered
            << " local_hits=" << sys->local_hits()
            << " proxy_hits=" << sys->proxy_hits()
            << " peer_hits=" << sys->peer_hits()
            << " origin_fetches=" << sys->origin_fetches()
            << " false_forwards=" << sys->false_forwards()
            << " index_removes="
            << sys->messages().count(runtime::MsgKind::kIndexRemove);
  if (plan != nullptr) {
    std::cout << " fault_injected=" << plan->injected_total()
              << " fault_recovered=" << plan->recovered_total();
  }
  std::cout << "\n";

  if (span_sink != nullptr) {
    span_sink->flush();
    if (!trace_out.empty()) std::cerr << "wrote " << trace_out << "\n";
  }
  if (sources.is_open()) {
    sources.close();
    std::cerr << "wrote " << sources_out << "\n";
  }
  if (!metrics_out.empty()) {
    const bool ok = obs::ReportBuilder("baps_fetch")
                        .set_title(url.empty() ? preset_name : url)
                        .set_args(argc, argv)
                        .add_phases(phases)
                        .set_registry(obs::Registry::global().snapshot())
                        .write(metrics_out, &error);
    if (!ok) {
      std::cerr << "cannot write " << metrics_out << ": " << error << "\n";
      return 1;
    }
    std::cerr << "wrote " << metrics_out << "\n";
  }
  if (fault_strict) {
    if (!plan->fully_recovered()) {
      std::cerr << "fault-strict: unrecovered faults (injected="
                << plan->injected_total()
                << " recovered=" << plan->recovered_total() << ")\n";
      return 1;
    }
    if (verified != done) {
      std::cerr << "fault-strict: " << (done - verified) << " of " << done
                << " requests were not verified\n";
      return 1;
    }
  }
  return 0;
}
