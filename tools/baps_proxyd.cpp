// baps_proxyd — the BAPS proxy as a standalone TCP daemon.
//
// Serves the wire protocol (Hello, FetchRequest, IndexUpdate,
// IntrospectRequest, Bye) on a TCP port, every session on one epoll
// event-loop thread. Clients connect with baps_fetch or any TcpTransport;
// `baps_fetch --stats` and baps_top read the introspection sections.
// Runs until SIGINT/SIGTERM (or --max-seconds in scripted runs), then shuts
// down cleanly and optionally writes a baps.report.v1 JSON report with the
// final proxy counters and the wire/netio metric registry.
//
// With --trace-sample the daemon traces its side of every sampled request
// (span JSONL to --trace-out) and fills the `spans` introspection section;
// with --ts-interval its sampler fills the `timeseries` section.
//
//   baps_proxyd --port 4160 --clients 8 --seed 7
//   baps_proxyd --port 0 --max-seconds 30 --metrics-out proxyd.json
//   baps_proxyd --port 4160 --trace-sample 1.0 --trace-out proxyd.spans.jsonl
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "fault/fault_plan.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "runtime/proxy_server.hpp"
#include "store/tiered_store.hpp"
#include "util/args.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace baps;

  runtime::ProxyServer::Params params;
  std::uint16_t port = 0;
  std::uint32_t clients = 4;
  std::uint64_t proxy_cache = 256 << 10;
  std::uint64_t seed = 7;
  std::uint32_t rsa_bits = 256;
  std::uint64_t max_connections = 0;
  double idle_timeout = 0.0;
  std::uint64_t max_seconds = 0;
  std::string store_dir;
  std::uint64_t store_capacity = 64 << 20;
  std::string metrics_out;
  double trace_sample = 0.0;
  std::string trace_out;
  double ts_interval = 0.0;
  std::string ts_out;

  util::ArgParser parser("baps_proxyd",
                         "Serve the BAPS proxy over TCP on 127.0.0.1.");
  parser.option("--port", &port, "P", "listen port (default 0: ephemeral)")
      .option("--clients", &clients, "N", "number of clients (default 4)")
      .option("--proxy-cache", &proxy_cache, "BYTES",
              "proxy cache capacity (default 262144)")
      .option("--seed", &seed, "S", "key-derivation seed (default 7)")
      .option("--rsa-bits", &rsa_bits, "B",
              "watermark RSA modulus bits (default 256)")
      .option("--max-connections", &max_connections, "N",
              "accept at most N concurrent connections "
              "(default 0: bounded only by fds)")
      .duration("--idle-timeout", &idle_timeout, "DUR",
                "close connections silent for DUR, e.g. 30s "
                "(default 0: never)")
      .option("--max-seconds", &max_seconds, "S",
              "exit after S seconds (default 0: run until signalled)")
      .option("--store-dir", &store_dir, "DIR",
              "durable cache tier directory (default: no disk tier); a "
              "restarted daemon pointed at the same DIR warm-starts from it")
      .bytes("--store-capacity", &store_capacity, "BYTES",
              "disk tier capacity, k/m/g suffixes ok (default 64m)")
      .option("--metrics-out", &metrics_out, "FILE",
              "write a baps.report.v1 JSON report on shutdown")
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
  if (clients == 0) {
    std::cerr << "--clients must be at least 1\n";
    return 2;
  }
  if (idle_timeout * 1000.0 > std::numeric_limits<int>::max()) {
    std::cerr << "--idle-timeout must be at most "
              << std::numeric_limits<int>::max() << " ms\n";
    return 2;
  }

  params.core.num_clients = clients;
  params.core.proxy_cache_bytes = proxy_cache;
  params.core.seed = seed;
  params.core.rsa_modulus_bits = rsa_bits;
  params.core.store.dir = store_dir;
  params.core.store.capacity_bytes = store_capacity;
  params.net.port = port;
  params.net.max_connections = max_connections;
  params.net.idle_timeout_ms = static_cast<int>(idle_timeout * 1000.0);
  // The 10k-connection path needs fds; default shells cap at 1024 and the
  // loop would misreport the cap as EMFILE backpressure.
  netio::raise_fd_limit(max_connections != 0 ? max_connections + 64 : 20000);

  if (trace_sample < 0.0 || trace_sample > 1.0) {
    std::cerr << "--trace-sample must be in [0, 1]\n";
    return 2;
  }

  runtime::ProxyServer server(params);

  // Tracer + span sink live for the whole daemon run; attached before
  // start() so no request races the wiring. The sampler is seeded from the
  // same --seed as the proxy keys, so a given (seed, rate) samples the same
  // trace ids on every run.
  std::unique_ptr<obs::Tracer> tracer;
  std::ofstream span_stream;
  std::unique_ptr<obs::JsonlSink> span_sink;
  if (trace_sample > 0.0) {
    obs::Tracer::Params tp;
    tp.seed = seed;
    tp.sample_rate = trace_sample;
    tp.service = "proxyd";
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
    server.set_tracer(tracer.get());
  } else if (!trace_out.empty()) {
    std::cerr << "--trace-out requires --trace-sample > 0\n";
    return 2;
  }

  // Continuous telemetry: pre-register every documented metric family so the
  // very first interval already carries the full schema (instead of families
  // popping into existence as traffic touches them), then start the sampler
  // before serving so interval #0 is a clean pre-traffic baseline.
  std::unique_ptr<obs::TimeSeriesSampler> sampler;
  std::ofstream ts_stream;
  if (ts_interval > 0.0) {
    store::register_store_metric_families();
    fault::register_fault_metric_families();
    obs::register_trace_metric_families();
    obs::TimeSeriesSampler::Params sp;
    sp.interval_seconds = ts_interval;
    sampler = std::make_unique<obs::TimeSeriesSampler>(sp);
    if (!ts_out.empty()) {
      ts_stream.open(ts_out);
      if (!ts_stream) {
        std::cerr << "cannot open " << ts_out << "\n";
        return 1;
      }
      sampler->set_sink(&ts_stream);
    }
    server.set_sampler(sampler.get());
  } else if (!ts_out.empty()) {
    std::cerr << "--ts-out requires --ts-interval > 0\n";
    return 2;
  }

  if (sampler != nullptr) sampler->start();
  if (!server.start(&error)) {
    std::cerr << "cannot start proxy: " << error << "\n";
    return 1;
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // Scripts parse this line to find the ephemeral port.
  std::cout << "baps_proxyd listening on 127.0.0.1:" << server.port()
            << " (clients=" << clients << " seed=" << seed << ")"
            << std::endl;

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(max_seconds);
  while (!g_stop.load()) {
    if (max_seconds != 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  // Stopped after the server so no session can touch a dead sampler and the
  // final flush tick captures the post-shutdown counter state.
  if (sampler != nullptr) sampler->stop();
  if (span_sink != nullptr) span_sink->flush();

  const runtime::ProxyStats stats = server.core().stats();
  std::cerr << "proxyd: proxy_hits=" << stats.proxy_hits
            << " peer_hits=" << stats.peer_hits
            << " origin_fetches=" << stats.origin_fetches
            << " false_forwards=" << stats.false_forwards
            << " rejected_index_updates=" << stats.rejected_index_updates
            << "\n";

  if (!metrics_out.empty()) {
    const bool ok = obs::ReportBuilder("baps_proxyd")
                        .set_title("proxy daemon run")
                        .set_args(argc, argv)
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
