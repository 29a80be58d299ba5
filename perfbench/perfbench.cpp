// End-to-end benchmark of the BAPS request path, plus the simulator.
//
//   baps_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --scratch DIR
//
// Workloads run in one process through the public runtime API: an
// event-driven ProxyServer, reached over host-loopback TCP by BapsSystem
// clients on TcpTransport. Each client host is driven by its own thread in a
// closed loop (one browse() outstanding). The proxy's RSA keys and the
// clients' MAC keys come from a fixed key seed; --seed only picks the
// generated request trace.
//
// Rounds. A run drives one fixed round of browses again and again for
// --seconds, each time from the same state. cold_origin sets up a new stack
// for every round, so its misses stay compulsory. peer_share keeps one stack
// and runs one untimed priming round on it first, so every timed round starts
// where the one before it ended. The end-to-end figures are medians over the
// run's rounds: the median round throughput and the median of the rounds'
// interquartile mean latencies. Every round does the same work, so a round
// that is slower than the others was slowed by the host, and the median sets
// it aside.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced rounds: the traced ones run the program's
// own tracer at sample rate 1.0 on client and proxy plus the benchmark's
// round-trip records, and give the per-layer metrics; the two kinds of round
// give the tracing overhead. The traced run then replays the simulator on the
// paper's NLANR-uc trace. Every run checks its outputs and prints one JSON
// result as the last line of stdout. Exit status 1 means an output check
// failed; 2 means bad arguments or a failed set-up.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/runner.hpp"
#include "host_transport.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"
#include "sim/metrics.hpp"
#include "store/disk_store.hpp"
#include "trace/generator.hpp"
#include "trace/presets.hpp"
#include "trace/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace rt = baps::runtime;
namespace tr = baps::trace;
using baps::obs::JsonValue;
using Clock = std::chrono::steady_clock;

/// Proxy RSA keys and client MAC keys derive from this, in every run.
constexpr std::uint64_t kKeySeed = 7;
constexpr std::uint32_t kBrowsers = 4;
/// Set-ups of a stack that serves every round; the last one is kept.
constexpr int kSetups = 3;
/// Rounds run even when --seconds is over sooner.
constexpr std::size_t kMinRounds = 3;
/// Peak memory is read after this many rounds: the same work in every run.
constexpr std::size_t kRssRounds = kMinRounds;
/// Timed simulator replays in a traced run, and the quantile of their
/// times that is reported.
constexpr int kSimReplays = 8;
constexpr double kReplayQuantile = 0.25;
/// A browse slower than this counts as failed.
constexpr double kBrowseTimeoutMs = 5000.0;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Rounds go on, kMinRounds at least, while the next one, as long as the
/// average so far, still ends within `seconds` of `start`.
bool another_round(std::size_t done, Clock::time_point start, int seconds) {
  if (done < kMinRounds) return true;
  const double spent = seconds_since(start);
  return spent + spent / static_cast<double>(done) <= seconds;
}

/// One timed round: its length and the latency of each browse in it.
struct Round {
  double seconds = 0.0;
  std::uint64_t ok = 0;
  std::vector<double> ms;  ///< a failed browse counts as the timeout
  bool traced = false;
};

/// The figures of a run's rounds of one kind (traced or not).
/// The mean of the middle half of `ms`, from its 25th to its 75th
/// percentile: the typical browse, like the median, but it moves by the mix
/// when the middle of the distribution spans two modes, where the median
/// jumps from one to the other.
double interquartile_mean(std::vector<double> ms) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  const std::size_t lo = ms.size() / 4;
  const std::size_t hi = ms.size() - ms.size() / 4;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += ms[i];
  return sum / static_cast<double>(hi - lo);
}

struct Summary {
  double per_s = 0.0;   ///< median round throughput
  double iqm_ms = 0.0;  ///< median of the rounds' interquartile means
  double p50_ms = 0.0;  ///< median of the rounds' median latencies
  double p90_ms = 0.0;  ///< over every browse of the rounds
  double p99_ms = 0.0;
  std::size_t rounds = 0;
  std::size_t samples = 0;
};

Summary summarize(const std::vector<Round>& rounds, bool traced) {
  Summary s;
  std::vector<double> per_s, iqm, p50, all;
  for (const Round& r : rounds) {
    if (r.traced != traced) continue;
    per_s.push_back(r.seconds > 0 ? static_cast<double>(r.ok) / r.seconds : 0.0);
    iqm.push_back(interquartile_mean(r.ms));
    p50.push_back(quantile(r.ms, 0.5));
    all.insert(all.end(), r.ms.begin(), r.ms.end());
  }
  s.rounds = per_s.size();
  s.samples = all.size();
  s.per_s = median(std::move(per_s));
  s.iqm_ms = median(std::move(iqm));
  s.p50_ms = median(std::move(p50));
  s.p90_ms = quantile(all, 0.9);
  s.p99_ms = quantile(std::move(all), 0.99);
  return s;
}

/// The quantiles, printed beside the result but not part of it. On a shared
/// host the tail swings by 0.4 to 2 times its median from run to run. The
/// median sits inside a mode whose place follows the host: cold_origin's
/// misses took 13 ms for some seconds and 17 ms for others, and its median
/// jumped between the two. The traced run reports them as
/// client.fetch_p50_ms, p90 and p99.
void print_quantiles(const Summary& s) {
  std::printf("  %-30s %14.6g %-12s (median of %zu rounds, not gated)\n",
              "fetch_p50_ms", s.p50_ms, "ms", s.rounds);
  std::printf("  %-30s %14.6g %-12s (n=%zu, not gated)\n", "fetch_p90_ms",
              s.p90_ms, "ms", s.samples);
  std::printf("  %-30s %14.6g %-12s (n=%zu, not gated)\n", "fetch_p99_ms",
              s.p99_ms, "ms", s.samples);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool traced = false;
  fs::path scratch;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have[5] = {false, false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
        have[0] = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have[1] = true;
      } else if (key == "--seconds") {
        a.seconds = std::stoi(value);
        have[2] = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        a.traced = value == "1";
        have[3] = true;
      } else if (key == "--scratch") {
        a.scratch = value;
        have[4] = true;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.seconds < 1) return std::nullopt;
  for (const bool h : have) {
    if (!h) return std::nullopt;
  }
  return a;
}

// ---------------------------------------------------------------------------
// Workloads

struct RuntimeSpec {
  tr::GeneratorParams gen;
  std::uint32_t hosts = 1;  ///< client hosts = driver threads
  std::uint64_t proxy_bytes = 256 << 10;
  std::uint64_t browser_bytes = 64 << 10;
  std::uint64_t disk_bytes = 0;  ///< 0 keeps the proxy RAM-only
  /// The trace's first requests, browsed in the warm-up only.
  std::size_t warmup_requests = 0;
  /// The trace's remaining requests: one round.
  std::size_t round_browses = 0;
  /// A new stack for every round. Otherwise one stack serves every round,
  /// after an untimed priming round brings it to the round's cycle.
  bool fresh_stack = false;
  /// Browses (warm-up first) replayed over the loopback transport.
  std::size_t check_prefix = 0;
};

std::optional<RuntimeSpec> runtime_spec(const std::string& name) {
  RuntimeSpec s;
  tr::GeneratorParams& g = s.gen;
  g.num_clients = kBrowsers;
  // Uniform, interleaved clients: every host sees the same mix throughout.
  g.client_rate_alpha = 0.0;
  g.session_mean_requests = 1.0;
  if (name == "cold_origin") {
    // NLANR-uc's universe and locality, squeezed onto four browsers: nearly
    // every request is a compulsory miss, so the origin path dominates.
    g.shared_docs = 150'000;
    g.private_docs_per_client = 1'100;
    g.shared_alpha = 0.78;
    g.shared_prob = 0.62;
    g.temporal_prob = 0.22;
    s.proxy_bytes = 32 << 10;
    s.disk_bytes = 64 << 20;
    s.warmup_requests = 20;
    // Long enough that the share of local hits, and with it the rate and
    // the latency, varies little from seed to seed.
    s.round_browses = 720;
    s.fresh_stack = true;
    s.check_prefix = 140;
  } else if (name == "peer_share") {
    // A low-skew shared universe the four browser caches cover together but
    // none covers alone, behind a tiny proxy cache: index lookups and
    // proxy-to-holder transfers do the work, across two client hosts.
    g.shared_docs = 240;
    g.private_docs_per_client = 8;
    g.shared_alpha = 0.2;
    g.shared_prob = 0.97;
    g.temporal_prob = 0.1;
    s.hosts = 2;
    s.proxy_bytes = 8 << 10;
    s.browser_bytes = 160 << 10;
    s.warmup_requests = 100;
    s.round_browses = 2'400;
  } else {
    return std::nullopt;
  }
  g.num_requests = s.warmup_requests + s.round_browses;
  return s;
}

std::string describe(const std::string& workload, const Args& args,
                     const tr::GeneratorParams& g, std::uint32_t drivers,
                     const std::string& path, const std::string& rounds) {
  std::ostringstream os;
  os << "perfbench: workload=" << workload << " seed=" << args.seed
     << " seconds=" << args.seconds << " trace=" << (args.traced ? 1 : 0)
     << " drivers=" << drivers << " loop=closed path=" << path
     << " rounds=" << rounds << " build=" << PERFBENCH_BUILD_TYPE
     << " nproc=" << std::thread::hardware_concurrency()
     << " gen={requests=" << g.num_requests << ",clients=" << g.num_clients
     << ",shared_docs=" << g.shared_docs
     << ",private_docs=" << g.private_docs_per_client
     << ",shared_alpha=" << g.shared_alpha
     << ",shared_prob=" << g.shared_prob
     << ",temporal_prob=" << g.temporal_prob << "}";
  return os.str();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// The runtime stack: one proxy, one or two client hosts.

struct Tracers {
  baps::obs::Tracer client{{kKeySeed, 1.0, "client", kSpanCapacity, 8}};
  baps::obs::Tracer proxy{{kKeySeed, 1.0, "proxyd", kSpanCapacity, 8}};
};

struct Host {
  std::unique_ptr<rt::TcpTransport> wire;
  std::unique_ptr<HostTransport> transport;
  std::unique_ptr<rt::BapsSystem> system;
};

class Stack {
 public:
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    hosts.clear();  // clients say Bye and close their peer listeners first
    if (server != nullptr) server->stop();
  }

  std::unique_ptr<rt::ProxyServer> server;
  std::vector<Host> hosts;
};

baps::store::DiskStoreConfig disk_config(const RuntimeSpec& spec,
                                         const fs::path& dir) {
  baps::store::DiskStoreConfig cfg;
  if (spec.disk_bytes == 0) return cfg;
  fs::remove_all(dir);
  fs::create_directories(dir);
  cfg.dir = dir.string();
  cfg.capacity_bytes = spec.disk_bytes;
  return cfg;
}

rt::BapsSystem::Params client_params(const RuntimeSpec& spec) {
  rt::BapsSystem::Params p;
  p.num_clients = kBrowsers;
  p.proxy_cache_bytes = spec.proxy_bytes;
  p.browser_cache_bytes = spec.browser_bytes;
  p.seed = kKeySeed;
  return p;
}

std::unique_ptr<Stack> build_stack(const RuntimeSpec& spec,
                                   const fs::path& store_dir,
                                   Tracers* tracers) {
  auto stack = std::make_unique<Stack>();
  rt::ProxyServer::Params p;
  p.core.num_clients = kBrowsers;
  p.core.proxy_cache_bytes = spec.proxy_bytes;
  p.core.seed = kKeySeed;
  p.core.store = disk_config(spec, store_dir);
  p.event_driven = true;
  stack->server = std::make_unique<rt::ProxyServer>(p);
  if (tracers != nullptr) stack->server->set_tracer(&tracers->proxy);
  std::string error;
  if (!stack->server->start(&error)) {
    throw std::runtime_error("proxy failed to start: " + error);
  }
  for (std::uint32_t h = 0; h < spec.hosts; ++h) {
    Host host;
    rt::TcpTransport::Params tp;
    tp.proxy_port = stack->server->port();
    host.wire = std::make_unique<rt::TcpTransport>(tp);
    if (tracers != nullptr) host.wire->set_tracer(&tracers->client);
    host.transport = std::make_unique<HostTransport>(*host.wire);
    host.system =
        std::make_unique<rt::BapsSystem>(client_params(spec), *host.transport);
    stack->hosts.push_back(std::move(host));
  }
  return stack;
}

/// The program's own served-from counts, indexed by FetchOutcome::Source:
/// each client host's local hits and the proxy's proxy/peer/origin counts.
std::array<std::uint64_t, 4> served_counts(Stack& stack) {
  std::array<std::uint64_t, 4> n{};
  for (const Host& h : stack.hosts) {
    n[static_cast<std::size_t>(FetchOutcome::Source::kLocalBrowser)] +=
        h.system->local_hits();
  }
  const rt::ProxyStats& s = stack.server->core().stats();
  n[static_cast<std::size_t>(FetchOutcome::Source::kProxy)] = s.proxy_hits;
  n[static_cast<std::size_t>(FetchOutcome::Source::kRemoteBrowser)] =
      s.peer_hits;
  n[static_cast<std::size_t>(FetchOutcome::Source::kOrigin)] =
      s.origin_fetches;
  return n;
}

struct Req {
  rt::ClientId client = 0;
  std::string url;
};

/// One browse as its client saw it, for the output checks.
struct Driven {
  Req req;
  bool ok = false;
  FetchOutcome::Source source = FetchOutcome::Source::kOrigin;
  std::size_t body_hash = 0;
};

/// One browse under the host lock. Failures come back as values: nullopt
/// with *error set.
std::optional<rt::FetchOutcome> browse(Host& host, const Req& req,
                                       std::string* error) {
  try {
    host.transport->yield_to_serves();
    const std::lock_guard<std::mutex> lock(host.transport->host_mutex());
    return host.system->browse(req.client, req.url);
  } catch (const std::exception& e) {
    *error = e.what();
  }
  return std::nullopt;
}

Driven driven(const Req& req, const std::optional<rt::FetchOutcome>& out,
              bool ok) {
  Driven d;
  d.req = req;
  d.ok = ok;
  if (out.has_value()) {
    d.source = out->source;
    d.body_hash = std::hash<std::string>{}(out->body);
  }
  return d;
}

/// Browser ids are split evenly over the client hosts, in order.
std::size_t host_of(const RuntimeSpec& spec, rt::ClientId client) {
  return client / (kBrowsers / spec.hosts);
}

/// One set-up: the generated requests, the stack, and what its warm-up saw.
struct World {
  std::vector<Req> reqs;  ///< the warm-up's requests, then the round's
  std::unique_ptr<Stack> stack;
  std::vector<Driven> warm_stream;
  std::vector<std::vector<const Req*>> lists;  ///< the round, per host
  double generate_s = 0.0;
  double setup_s = 0.0;
};

/// Trace generation, key generation, server start, peer-listener bind and
/// the warm-up, sequential and in trace order, through the request path.
std::unique_ptr<World> set_up(const std::string& workload,
                              const RuntimeSpec& spec, std::uint64_t seed,
                              const fs::path& store_dir, Tracers* tracers) {
  auto w = std::make_unique<World>();
  const Clock::time_point t0 = Clock::now();
  const tr::Trace trace = tr::generate_trace(workload, spec.gen, seed);
  for (const tr::Request& r : trace.requests()) {
    w->reqs.push_back({r.client % kBrowsers, trace.url_of(r.doc)});
  }
  w->generate_s = seconds_since(t0);
  if (w->reqs.size() != spec.warmup_requests + spec.round_browses) {
    throw std::runtime_error("generated " + std::to_string(w->reqs.size()) +
                             " requests, expected " +
                             std::to_string(spec.warmup_requests +
                                            spec.round_browses));
  }
  w->lists.resize(spec.hosts);
  for (std::size_t k = spec.warmup_requests; k < w->reqs.size(); ++k) {
    w->lists[host_of(spec, w->reqs[k].client)].push_back(&w->reqs[k]);
  }
  w->stack = build_stack(spec, store_dir, tracers);
  for (std::size_t k = 0; k < spec.warmup_requests; ++k) {
    const Req& r = w->reqs[k];
    std::string error;
    const auto out = browse(w->stack->hosts[host_of(spec, r.client)], r, &error);
    if (!out.has_value() || !out->verified) {
      throw std::runtime_error("warm-up browse failed: " +
                               (error.empty() ? "unverified content" : error));
    }
    w->warm_stream.push_back(driven(r, out, true));
  }
  w->setup_s = seconds_since(t0);
  return w;
}

/// What one host did in one round.
struct HostRound {
  std::vector<double> ms;
  std::vector<Driven> stream;
  std::array<std::uint64_t, 4> sources{};
  std::uint64_t failed = 0;
  std::vector<BrowseRec> traced;
  std::string first_error;
};

/// Closed loop: the host's next browse starts when its last one returns.
void drive(Host& host, const std::vector<const Req*>& list, bool traced,
           HostRound& run) {
  for (const Req* req : list) {
    std::string error;
    host.transport->begin_browse();
    const std::uint64_t t0 = baps::obs::monotonic_ns();
    const std::optional<rt::FetchOutcome> out = browse(host, *req, &error);
    const std::uint64_t t1 = baps::obs::monotonic_ns();
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    const bool ok =
        out.has_value() && out->verified && ms <= kBrowseTimeoutMs;
    if (!ok) {
      ++run.failed;
      if (run.first_error.empty()) {
        run.first_error = !out.has_value() ? error
                          : !out->verified ? "unverified content"
                                           : "browse timed out";
      }
      // A failed browse misses every latency limit.
      run.ms.push_back(std::max(ms, kBrowseTimeoutMs));
    } else {
      run.ms.push_back(ms);
      ++run.sources[static_cast<std::size_t>(out->source)];
      if (traced) {
        run.traced.push_back(
            BrowseRec{t0, t1, host.transport->browse_wire(), out->source});
      }
    }
    run.stream.push_back(driven(*req, out, ok));
  }
}

/// Drives one round on every host at once.
Round run_round(World& w, bool traced, std::vector<HostRound>& hosts) {
  hosts.assign(w.lists.size(), HostRound{});
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      threads.emplace_back([&w, &hosts, h, traced] {
        drive(w.stack->hosts[h], w.lists[h], traced, hosts[h]);
      });
    }
  }
  Round r;
  r.seconds = seconds_since(start);
  r.traced = traced;
  for (const HostRound& h : hosts) {
    r.ok += h.ms.size() - h.failed;
    r.ms.insert(r.ms.end(), h.ms.begin(), h.ms.end());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output checks

struct Result {
  bool correct = true;
  std::string check_error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap metrics;
  std::map<std::string, std::string> notes;  ///< printed beside a metric

  void check(bool ok, const std::string& what) {
    if (!ok && correct) check_error = what;
    correct = correct && ok;
  }
};

/// Every body a client received is the origin's body for its URL.
class BodyCheck {
 public:
  bool ok(const Driven& d) {
    auto [it, fresh] = expected_.emplace(d.req.url, 0);
    if (fresh) it->second = std::hash<std::string>{}(origin_.fetch(d.req.url));
    return it->second == d.body_hash;
  }

 private:
  rt::OriginServer origin_{kKeySeed};
  std::unordered_map<std::string, std::size_t> expected_;
};

/// The program's own served-from counters moved by exactly the round's size,
/// and per source as the clients saw; every body is the origin's.
void check_round(const std::array<std::uint64_t, 4>& before,
                 const std::array<std::uint64_t, 4>& after,
                 const World& w, const std::vector<HostRound>& hosts,
                 BodyCheck& bodies, Result& result) {
  std::uint64_t size = 0, failed = 0, served = 0;
  std::array<std::uint64_t, 4> seen{};
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    size += w.lists[h].size();
    failed += hosts[h].failed;
    for (std::size_t k = 0; k < seen.size(); ++k) seen[k] += hosts[h].sources[k];
    for (const Driven& d : hosts[h].stream) {
      if (d.ok) result.check(bodies.ok(d), "wrong body for " + d.req.url);
    }
  }
  // With a failure, the proxy may have served a browse its client gave up on.
  if (failed > 0) return;
  for (std::size_t k = 0; k < seen.size(); ++k) {
    served += after[k] - before[k];
    result.check(after[k] - before[k] == seen[k],
                 std::string("the program counted ") +
                     std::to_string(after[k] - before[k]) + " " +
                     rt::source_name(static_cast<FetchOutcome::Source>(k)) +
                     " browses, the clients saw " + std::to_string(seen[k]));
  }
  result.check(served == size, "the program served " + std::to_string(served) +
                                   " browses of a round of " +
                                   std::to_string(size));
}

/// Single driver: the source stream equals the in-process loopback
/// transport's on the same inputs.
void check_loopback(const RuntimeSpec& spec, const fs::path& store_dir,
                    const std::vector<Driven>& stream, Result& result) {
  rt::BapsSystem::Params lp = client_params(spec);
  lp.store = disk_config(spec, store_dir);
  rt::BapsSystem loopback(lp);
  for (std::size_t k = 0; k < stream.size() && result.correct; ++k) {
    const Driven& d = stream[k];
    const rt::FetchOutcome out = loopback.browse(d.req.client, d.req.url);
    result.check(out.source == d.source &&
                     std::hash<std::string>{}(out.body) == d.body_hash,
                 "TCP and loopback diverge at browse " + std::to_string(k) +
                     ": " + rt::source_name(d.source) + " vs " +
                     rt::source_name(out.source));
  }
}

// ---------------------------------------------------------------------------
// Result output

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"fetch_per_s", "1/s"}, {"fetch_iqm_ms", "ms"}, {"ok_ratio", "ratio"},
    {"setup_s", "s"},       {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"client.fetch_p50_ms", "ms"},
    {"client.fetch_p90_ms", "ms"},
    {"client.fetch_p99_ms", "ms"},
    {"crypto.sign_us", "us"},
    {"crypto.sign_calls", "count"},
    {"crypto.verify_us", "us"},
    {"crypto.verify_calls", "count"},
    {"crypto.hmac_us", "us"},
    {"crypto.hmac_calls", "count"},
    {"wire.frames_per_fetch", "frames/fetch"},
    {"wire.bytes_per_fetch", "B/fetch"},
    {"wire.codec_us", "us"},
    {"netio.fetch_rtt_p50_us", "us"},
    {"netio.fetch_rtt_p99_us", "us"},
    {"netio.index_rtt_us", "us"},
    {"netio.peer_rtt_p50_us", "us"},
    {"netio.peer_rtt_p99_us", "us"},
    {"netio.loop_wait_p50_us", "us"},
    {"netio.loop_wait_p99_us", "us"},
    {"netio.pool_reuse_ratio", "ratio"},
    {"netio.pool_dials", "count"},
    {"netio.host_lock_wait_p99_us", "us"},
    {"runtime.handle_fetch_p50_us", "us"},
    {"runtime.handle_fetch_p99_us", "us"},
    {"runtime.origin_us", "us"},
    {"runtime.origin_body_us", "us"},
    {"runtime.client_self_us", "us"},
    {"runtime.unattributed_share", "ratio"},
    {"runtime.message_log_entries", "count"},
    {"runtime.local_hits", "count"},
    {"runtime.proxy_hits", "count"},
    {"runtime.peer_hits", "count"},
    {"runtime.origin_fetches", "count"},
    {"runtime.false_forwards", "count"},
    {"index.lookup_us", "us"},
    {"index.lookups", "count"},
    {"index.holder_found_ratio", "ratio"},
    {"store.probe_us", "us"},
    {"store.demote_us", "us"},
    {"store.promote_us", "us"},
    {"store.demotions", "count"},
    {"store.promotions", "count"},
    {"store.bytes_written", "B"},
    {"store.integrity_failures", "count"},
    {"sim.replay_s", "s"},
    {"sim.req_per_s", "1/s"},
    {"sim.hit_ratio", "ratio"},
    {"trace.generate_s", "s"},
    {"obs.trace_overhead_pct", "%"},
};

int emit(const Result& r, bool traced) {
  baps::obs::JsonObject metrics;
  for (const MetricDef& def : traced ? std::span<const MetricDef>(kPerLayer)
                                     : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = r.metrics.find(def.name);
    double value = it == r.metrics.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) value = 0.0;
    const auto note = r.notes.find(def.name);
    std::printf("  %-30s %14.6g %-12s%s\n", def.name, value, def.unit,
                note == r.notes.end() ? "" : note->second.c_str());
    metrics.emplace_back(def.name, baps::obs::json_object(
                                       {{"value", JsonValue(value)},
                                        {"unit", JsonValue(def.unit)}}));
  }
  if (!r.correct) std::printf("output check failed: %s\n", r.check_error.c_str());
  const JsonValue out =
      baps::obs::json_object({{"correct", JsonValue(r.correct)},
                              {"attempted", JsonValue(r.attempted)},
                              {"failed", JsonValue(r.failed)},
                              {"metrics", JsonValue(std::move(metrics))}});
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

std::string rounds_note(const Summary& s, const char* what) {
  return " (median of " + std::to_string(s.rounds) + " " + what +
         ", n=" + std::to_string(s.samples) + ")";
}

// ---------------------------------------------------------------------------

void write_spans(const fs::path& path, const Tracers& tracers,
                 const std::vector<BrowseRec>& browses,
                 const std::vector<std::unique_ptr<Recorder>>& recorders) {
  std::ofstream out(path);
  const auto tracer_spans = [&out](const baps::obs::Tracer& t) {
    for (const baps::obs::SpanRecord& s : t.recent_spans()) {
      JsonValue j = s.to_json();
      j.set("service", JsonValue(t.params().service));
      out << j.dump() << '\n';
    }
  };
  tracer_spans(tracers.client);
  tracer_spans(tracers.proxy);
  const auto bench = [&out](const char* name, std::uint64_t trace_id,
                            std::uint64_t start, std::uint64_t end) {
    out << baps::obs::json_object({{"service", JsonValue("bench")},
                                   {"name", JsonValue(name)},
                                   {"trace_id", JsonValue(trace_id)},
                                   {"start_ns", JsonValue(start)},
                                   {"end_ns", JsonValue(end)}})
               .dump()
        << '\n';
  };
  for (const BrowseRec& b : browses) {
    bench("browse", b.wire.trace_id, b.start_ns, b.end_ns);
  }
  for (const auto& rec : recorders) {
    for (const FetchRec& f : rec->fetches) {
      bench("fetch_round_trip", f.trace_id, f.start_ns, f.end_ns);
    }
    for (const CallRec& c : rec->index_updates) {
      bench("index_round_trip", 0, c.start_ns, c.end_ns);
    }
    for (const ServeRec& s : rec->serves) {
      bench("peer_serve", 0, s.arrive_ns, s.end_ns);
    }
  }
}

/// The simulator, the other copy of the BAPS algorithm, measured in every
/// traced run: the NLANR-uc preset (300k requests, 200 clients, the paper's
/// Fig. 2 trace, generated from --seed) replayed through
/// run_one(kBrowsersAware) on one thread, kSimReplays times after a
/// reference replay. Every replay must give the reference metrics exactly.
void measure_sim(std::uint64_t seed, Result& result) {
  const tr::Trace trace =
      tr::generate_trace(tr::preset_name(tr::Preset::kNlanrUc),
                         tr::preset_params(tr::Preset::kNlanrUc), seed);
  const tr::TraceStats stats = tr::compute_stats(trace);
  const auto replay_once = [&] {
    return baps::core::run_one(baps::core::OrgKind::kBrowsersAware, trace,
                               stats, {});
  };
  const baps::core::Metrics ref = replay_once();
  std::vector<double> replay_s;
  for (int i = 0; i < kSimReplays; ++i) {
    const Clock::time_point t0 = Clock::now();
    const baps::core::Metrics got = replay_once();
    replay_s.push_back(seconds_since(t0));
    result.check(
        got.hits.hits() == ref.hits.hits() && got.hits.total() == trace.size() &&
            got.local_browser_hits + got.proxy_hits + got.remote_browser_hits ==
                got.hits.hits() &&
            baps::sim::same_bits(got.hit_ratio(), ref.hit_ratio()) &&
            got.false_forwards == ref.false_forwards,
        "a replay's metrics differ from run_one's");
  }
  // Every replay is the same deterministic computation on one thread, so
  // their spread is the host's; the faster ones are the least disturbed.
  const double replay = quantile(replay_s, kReplayQuantile);
  result.metrics["sim.replay_s"] = {replay, "s"};
  result.metrics["sim.req_per_s"] = {
      static_cast<double>(trace.size()) / replay, "1/s"};
  result.metrics["sim.hit_ratio"] = {ref.hit_ratio(), "ratio"};
}

int run_runtime(const std::string& workload, const RuntimeSpec& spec,
                const Args& args) {
  std::printf("%s\n",
              describe(workload, args, spec.gen, spec.hosts,
                       "client->tcp(host loopback)->epoll proxy",
                       std::to_string(spec.round_browses) + " browses on " +
                           (spec.fresh_stack ? "a new stack each"
                                             : "one warmed stack"))
                  .c_str());
  const fs::path store_dir = args.scratch / (workload + "-proxy-store");
  const fs::path loopback_dir = args.scratch / (workload + "-loopback-store");
  std::unique_ptr<Tracers> tracers =
      args.traced ? std::make_unique<Tracers>() : nullptr;
  std::vector<std::unique_ptr<Recorder>> recorders;
  for (std::uint32_t h = 0; h < spec.hosts; ++h) {
    recorders.push_back(std::make_unique<Recorder>());
  }

  Result result;
  BodyCheck bodies;
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<World> world;
  const auto new_world = [&] {
    world.reset();  // the old proxy lets go of its store directory first
    world = set_up(workload, spec, args.seed, store_dir, tracers.get());
    setup_s.push_back(world->setup_s);
    generate_s.push_back(world->generate_s);
    for (const Driven& d : world->warm_stream) {
      result.check(bodies.ok(d), "wrong body for " + d.req.url);
    }
  };
  for (int i = 0; i < (spec.fresh_stack ? 1 : kSetups); ++i) new_world();

  // --- the rounds ------------------------------------------------------------
  std::vector<Round> rounds;
  std::vector<HostRound> hosts;
  std::vector<Driven> check_stream;  // the first round's set-up, and its round
  bool first_round = true;
  std::array<std::uint64_t, 4> sources{};
  RegistryDelta traced_delta, window_delta;
  std::vector<BrowseRec> traced_browses;
  const auto do_round = [&](bool traced) {
    Stack& stack = *world->stack;
    if (traced) {
      for (std::size_t h = 0; h < spec.hosts; ++h) {
        stack.hosts[h].system->set_tracer(&tracers->client);
        stack.hosts[h].transport->set_recorder(recorders[h].get());
      }
    }
    const baps::obs::Snapshot before = baps::obs::Registry::global().snapshot();
    const std::array<std::uint64_t, 4> served_before = served_counts(stack);
    Round round = run_round(*world, traced, hosts);
    const baps::obs::Snapshot after = baps::obs::Registry::global().snapshot();
    window_delta.add(before, after);
    if (traced) {
      traced_delta.add(before, after);
      for (std::size_t h = 0; h < spec.hosts; ++h) {
        stack.hosts[h].system->set_tracer(nullptr);
        stack.hosts[h].transport->set_recorder(nullptr);
      }
    }
    check_round(served_before, served_counts(stack), *world, hosts, bodies,
                result);
    for (const HostRound& h : hosts) {
      result.attempted += h.ms.size();
      result.failed += h.failed;
      for (std::size_t k = 0; k < sources.size(); ++k) sources[k] += h.sources[k];
      if (!h.first_error.empty()) {
        std::fprintf(stderr, "perfbench: first failed browse: %s\n",
                     h.first_error.c_str());
      }
      traced_browses.insert(traced_browses.end(), h.traced.begin(),
                            h.traced.end());
    }
    if (first_round) {
      first_round = false;
      check_stream = world->warm_stream;
      check_stream.insert(check_stream.end(), hosts[0].stream.begin(),
                          hosts[0].stream.end());
      check_stream.resize(std::min(check_stream.size(), spec.check_prefix));
    }
    return round;
  };
  if (!spec.fresh_stack) do_round(false);  // priming, not timed

  double rss_mib = 0.0;
  std::uint64_t log_entries = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t r = 0; another_round(r, start, args.seconds); ++r) {
    if (spec.fresh_stack && r > 0) new_world();
    rounds.push_back(do_round(args.traced && r % 2 == 1));
    if (r + 1 == kRssRounds) {
      rss_mib = peak_rss_mib();
      for (const Host& h : world->stack->hosts) {
        log_entries += h.system->messages().log().size();
      }
    }
  }

  // --- output checks -----------------------------------------------------------
  result.check(window_delta.counter("store_integrity_failures_total") == 0.0,
               "the proxy's disk tier reported integrity failures");
  if (spec.hosts == 1 && result.failed == 0 && !check_stream.empty()) {
    check_loopback(spec, loopback_dir, check_stream, result);
  }

  // --- metrics -------------------------------------------------------------------
  MetricMap& m = result.metrics;
  const Summary plain = summarize(rounds, false);
  if (!args.traced) {
    m["fetch_per_s"] = {plain.per_s, "1/s"};
    m["fetch_iqm_ms"] = {plain.iqm_ms, "ms"};
    m["ok_ratio"] = {static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted),
                     "ratio"};
    m["setup_s"] = {median(setup_s), "s"};
    m["peak_rss_mib"] = {rss_mib, "MiB"};
    result.notes["fetch_per_s"] = rounds_note(plain, "rounds");
    result.notes["fetch_iqm_ms"] = result.notes["fetch_per_s"];
    result.notes["setup_s"] =
        " (median of " + std::to_string(setup_s.size()) + ")";
    result.notes["peak_rss_mib"] =
        " (after " + std::to_string(kRssRounds) + " rounds)";
    print_quantiles(plain);
    std::printf("sources of the rounds' browses: local=%llu proxy=%llu "
                "peer=%llu origin=%llu\n",
                static_cast<unsigned long long>(sources[0]),
                static_cast<unsigned long long>(sources[1]),
                static_cast<unsigned long long>(sources[2]),
                static_cast<unsigned long long>(sources[3]));
  } else {
    LayerInputs in;
    in.client_spans = tracers->client.recent_spans();
    in.proxy_spans = tracers->proxy.recent_spans();
    if (tracers->client.spans_evicted() + tracers->proxy.spans_evicted() > 0) {
      std::fprintf(stderr, "perfbench: span ring overflowed; layer numbers "
                           "cover the most recent spans only\n");
    }
    in.browses = traced_browses;
    for (const auto& rec : recorders) in.recorders.push_back(rec.get());
    in.delta = traced_delta;
    rt::ProxyCore& core = world->stack->server->core();
    in.keys = {core.public_key(), core.private_key()};
    in.mac_keys = rt::derive_client_mac_keys(kKeySeed, kBrowsers);
    in.origin = &core.origin();
    bool replay_ok = true;
    std::string replay_error;
    m = layer_metrics(in, &replay_ok, &replay_error);
    result.check(replay_ok, replay_error);
    m["runtime.message_log_entries"] = {static_cast<double>(log_entries), "count"};
    m["client.fetch_p50_ms"] = {plain.p50_ms, "ms"};
    m["client.fetch_p90_ms"] = {plain.p90_ms, "ms"};
    m["client.fetch_p99_ms"] = {plain.p99_ms, "ms"};
    m["trace.generate_s"] = {median(generate_s), "s"};
    const double untraced_rate = plain.per_s;
    const double traced_rate = summarize(rounds, true).per_s;
    m["obs.trace_overhead_pct"] = {
        untraced_rate > 0 ? 100.0 * (untraced_rate - traced_rate) / untraced_rate
                          : 0.0,
        "%"};
    write_spans(args.scratch / ("spans-" + workload + ".jsonl"), *tracers,
                traced_browses, recorders);
    measure_sim(args.seed, result);
  }
  world.reset();
  fs::remove_all(store_dir);
  fs::remove_all(loopback_dir);
  return emit(result, args.traced);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: baps_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR\n");
    return 2;
  }
  try {
    fs::create_directories(args->scratch);
    const std::optional<RuntimeSpec> spec = runtime_spec(args->workload);
    if (!spec.has_value()) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args->workload.c_str());
      return 2;
    }
    return run_runtime(args->workload, *spec, *args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
