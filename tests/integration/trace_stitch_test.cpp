// End-to-end distributed tracing over real sockets: a client-side tracer on
// the BapsSystem/TcpTransport and a proxy-side tracer on the ProxyServer,
// both seeded identically with sampling at 1.0. Every browse must produce
// one root client_fetch span whose trace id reappears in the proxy's spans
// (the context rode the FetchRequest frame), every parent link must resolve
// within the union of both sides' spans (the cross-process stitch), and a
// peer-served request must stitch all three roles — requester, proxy, and
// holder — into one trace. With sampling at 0 the same setup must record
// nothing on either side.
//
// FreeWhenOffTest checks "free when off" exactly where it runs: a preset
// slice through the loopback runtime, or one host over TCP, gives the same
// FetchOutcomes, MessageTrace, ProxyStats and wire counts with no tracer, a
// rate-0 tracer and a tracer that samples none of its traces.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"
#include "trace/presets.hpp"

namespace baps::runtime {
namespace {

constexpr std::uint64_t kSeed = 11;

ProxyServer::Params proxy_params(std::uint32_t clients,
                                 std::uint64_t proxy_cache) {
  ProxyServer::Params p;
  p.core.num_clients = clients;
  p.core.proxy_cache_bytes = proxy_cache;
  p.core.seed = kSeed;
  p.peer_connect_ms = 300;
  p.peer_reply_ms = 1000;
  return p;
}

obs::Tracer::Params tracer_params(double rate, const std::string& service) {
  obs::Tracer::Params p;
  p.seed = kSeed;
  p.sample_rate = rate;
  p.service = service;
  return p;
}

TEST(TraceStitchTest, OneTraceSpansClientProxyAndHolder) {
  // Tracers outlive the transport/system (channels keep raw pointers).
  obs::Registry client_reg, proxy_reg;
  obs::Tracer client_tracer(tracer_params(1.0, "client"), &client_reg);
  obs::Tracer proxy_tracer(tracer_params(1.0, "proxyd"), &proxy_reg);

  BapsSystem::Params params;
  params.num_clients = 3;
  params.seed = kSeed;
  // Proxy cache small enough that filler traffic evicts the target, forcing
  // a peer fetch for the final request.
  params.proxy_cache_bytes = 8 << 10;

  ProxyServer server(proxy_params(params.num_clients,
                                  params.proxy_cache_bytes));
  server.set_tracer(&proxy_tracer);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TcpTransport::Params tp;
  tp.proxy_port = server.port();
  TcpTransport transport(tp);
  BapsSystem sys(params, transport);
  sys.set_tracer(&client_tracer);

  const std::string url = "http://stitched.test/";
  sys.browse(0, url);  // origin fetch; client 0 becomes the holder
  for (int i = 0; i < 64; ++i) {
    sys.browse(1, "http://filler.test/" + std::to_string(i));
  }
  const FetchOutcome out = sys.browse(2, url);
  ASSERT_EQ(out.source, FetchOutcome::Source::kRemoteBrowser)
      << "setup failed to force a peer fetch";

  const std::vector<obs::SpanRecord> client_spans =
      client_tracer.recent_spans();
  const std::vector<obs::SpanRecord> proxy_spans =
      proxy_tracer.recent_spans();
  ASSERT_FALSE(client_spans.empty());
  ASSERT_FALSE(proxy_spans.empty());

  // One root per browse, all on the client side.
  std::map<std::uint64_t, std::size_t> roots_by_trace;
  std::set<std::uint64_t> client_traces;
  for (const obs::SpanRecord& s : client_spans) {
    client_traces.insert(s.trace_id);
    if (s.parent_id == 0) {
      EXPECT_EQ(s.kind, obs::SpanKind::kClientFetch);
      ++roots_by_trace[s.trace_id];
    }
  }
  EXPECT_EQ(roots_by_trace.size(), 66u);  // 1 + 64 + 1 browses
  for (const auto& [trace_id, roots] : roots_by_trace) {
    EXPECT_EQ(roots, 1u) << "trace " << trace_id;
  }
  for (const obs::SpanRecord& s : proxy_spans) {
    EXPECT_EQ(roots_by_trace.count(s.trace_id), 1u)
        << "proxy span of a trace no client started";
    EXPECT_NE(s.parent_id, 0u) << "proxy must never root a trace";
  }

  // Every browse reached the proxy, so every trace id must appear on both
  // sides — the wire really carried the context.
  std::set<std::uint64_t> proxy_traces;
  for (const obs::SpanRecord& s : proxy_spans) proxy_traces.insert(s.trace_id);
  EXPECT_EQ(proxy_traces.size(), client_traces.size());

  // Cross-process stitch: within each trace, every parent resolves to a
  // span recorded on one of the two sides.
  std::map<std::uint64_t, std::set<std::uint64_t>> span_ids;
  std::vector<obs::SpanRecord> all = client_spans;
  all.insert(all.end(), proxy_spans.begin(), proxy_spans.end());
  for (const obs::SpanRecord& s : all) {
    span_ids[s.trace_id].insert(s.span_id);
  }
  for (const obs::SpanRecord& s : all) {
    if (s.parent_id == 0) continue;
    EXPECT_EQ(span_ids[s.trace_id].count(s.parent_id), 1u)
        << "dangling parent " << s.parent_id << " in trace " << s.trace_id;
  }

  // The peer-served request stitches all three roles: the proxy recorded a
  // peer_transfer stage span AND the holder (client process) recorded a
  // peer_transfer serve span, in the same trace.
  const std::uint64_t peer_trace = [&] {
    for (const obs::SpanRecord& s : proxy_spans) {
      if (s.kind == obs::SpanKind::kPeerTransfer) return s.trace_id;
    }
    return std::uint64_t{0};
  }();
  ASSERT_NE(peer_trace, 0u) << "proxy recorded no peer_transfer span";
  bool holder_served = false;
  for (const obs::SpanRecord& s : client_spans) {
    if (s.kind == obs::SpanKind::kPeerTransfer && s.trace_id == peer_trace) {
      holder_served = true;
    }
  }
  EXPECT_TRUE(holder_served)
      << "holder side did not stitch into the peer-fetch trace";

  // Crypto stages: every origin fetch signs once, inside its origin_fetch
  // span, and every browse verifies under its root span.
  std::map<std::uint64_t, std::size_t> signs_by_parent, verifies_by_parent;
  std::size_t signs = 0, origins = 0;
  for (const obs::SpanRecord& s : proxy_spans) {
    if (s.kind == obs::SpanKind::kSign) {
      ++signs;
      ++signs_by_parent[s.parent_id];
    }
  }
  for (const obs::SpanRecord& s : proxy_spans) {
    if (s.kind != obs::SpanKind::kOriginFetch) continue;
    ++origins;
    EXPECT_EQ(signs_by_parent[s.span_id], 1u) << "origin span " << s.span_id;
  }
  EXPECT_GT(origins, 0u);
  EXPECT_EQ(signs, origins);
  for (const obs::SpanRecord& s : client_spans) {
    if (s.kind == obs::SpanKind::kVerify) ++verifies_by_parent[s.parent_id];
  }
  for (const obs::SpanRecord& s : client_spans) {
    if (s.parent_id != 0) continue;
    EXPECT_GE(verifies_by_parent[s.span_id], 1u) << "trace " << s.trace_id;
  }

  // Both registries saw per-stage metrics.
  EXPECT_NE(client_reg.snapshot().counter("trace_spans_total",
                                          {{"kind", "client_fetch"}}),
            nullptr);
  EXPECT_NE(proxy_reg.snapshot().counter("trace_spans_total",
                                         {{"kind", "cache_probe"}}),
            nullptr);
  server.stop();
}

TEST(TraceStitchTest, LiveStatsSnapshotServedFromRunningDaemon) {
  obs::Registry proxy_reg;
  obs::Tracer proxy_tracer(tracer_params(1.0, "proxyd"), &proxy_reg);

  BapsSystem::Params params;
  params.num_clients = 2;
  params.seed = kSeed;

  ProxyServer server(proxy_params(params.num_clients,
                                  params.proxy_cache_bytes));
  server.set_tracer(&proxy_tracer);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TcpTransport::Params tp;
  tp.proxy_port = server.port();
  TcpTransport transport(tp);
  BapsSystem sys(params, transport);
  // Client untraced: the proxy must still serve stats (its own tracer
  // only roots nothing, but records nothing either without sampled
  // contexts arriving — so seed traffic with a traced client below).
  obs::Registry client_reg;
  obs::Tracer client_tracer(tracer_params(1.0, "client"), &client_reg);
  sys.set_tracer(&client_tracer);

  sys.browse(0, "http://stats.test/a");
  sys.browse(1, "http://stats.test/a");

  const obs::JsonValue doc = transport.introspect(wire::IntrospectRequest{
      wire::kIntrospectRegistry | wire::kIntrospectSpans, /*max_spans=*/16});
  EXPECT_EQ(doc.at("schema").as_string(), wire::kIntrospectSchema);
  // Exactly the requested sections: the registry with derived quantile
  // gauges and the tracer's own counters, no proxy or time-series section.
  ASSERT_NE(doc.find("registry"), nullptr);
  EXPECT_EQ(doc.find("proxy"), nullptr);
  EXPECT_EQ(doc.find("timeseries"), nullptr);
  const obs::JsonValue& spans = doc.at("spans");
  EXPECT_GT(spans.at("spans_recorded").as_uint(), 0u);
  const obs::JsonValue& recent = spans.at("recent_spans");
  ASSERT_TRUE(recent.is_array());
  EXPECT_FALSE(recent.as_array().empty());
  EXPECT_LE(recent.as_array().size(), 16u);
  ASSERT_NE(spans.find("slow_traces"), nullptr);
  server.stop();
}

TEST(TraceStitchTest, SamplingOffRecordsNothingOnEitherSide) {
  obs::Registry client_reg, proxy_reg;
  obs::Tracer client_tracer(tracer_params(0.0, "client"), &client_reg);
  obs::Tracer proxy_tracer(tracer_params(0.0, "proxyd"), &proxy_reg);

  BapsSystem::Params params;
  params.num_clients = 2;
  params.seed = kSeed;

  ProxyServer server(proxy_params(params.num_clients,
                                  params.proxy_cache_bytes));
  server.set_tracer(&proxy_tracer);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TcpTransport::Params tp;
  tp.proxy_port = server.port();
  TcpTransport transport(tp);
  BapsSystem sys(params, transport);
  sys.set_tracer(&client_tracer);

  for (int i = 0; i < 8; ++i) {
    sys.browse(static_cast<ClientId>(i % 2),
               "http://quiet.test/" + std::to_string(i));
  }
  EXPECT_EQ(client_tracer.spans_recorded(), 0u);
  EXPECT_EQ(proxy_tracer.spans_recorded(), 0u);
  EXPECT_TRUE(client_reg.snapshot().counters.empty());
  EXPECT_TRUE(proxy_reg.snapshot().counters.empty());
  server.stop();
}

constexpr double kNoTracer = -1.0;
/// On, so every browse mints a root context, but samples no trace here.
constexpr double kUnsampled = 1e-12;

/// A tracer at `rate` with a registry of its own (none for kNoTracer).
struct ArmTracer {
  ArmTracer(double rate, const char* service) {
    if (rate < 0.0) return;
    tracer = std::make_unique<obs::Tracer>(tracer_params(rate, service),
                                           &registry);
  }

  /// Recorded nothing, left its registry empty and minted exactly `roots`
  /// trace ids: its next root context is a fresh twin's (roots+1)-th.
  void expect_idle(std::uint64_t roots) {
    if (tracer == nullptr) return;
    const std::string& name = tracer->params().service;
    EXPECT_EQ(tracer->spans_recorded(), 0u) << name;
    const obs::Snapshot snap = registry.snapshot();
    EXPECT_TRUE(snap.counters.empty() && snap.histograms.empty()) << name;
    obs::Registry scratch;
    obs::Tracer twin(tracer->params(), &scratch);
    for (std::uint64_t i = 0; i < roots; ++i) twin.make_root_context();
    EXPECT_EQ(tracer->make_root_context().trace_id,
              twin.make_root_context().trace_id)
        << name << " did not mint exactly " << roots << " trace ids";
  }

  obs::Registry registry;
  std::unique_ptr<obs::Tracer> tracer;
};

/// The global wire_* counters, keyed by name and labels.
std::map<std::string, std::uint64_t> wire_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const obs::CounterSample& c :
       obs::Registry::global().snapshot().counters) {
    std::string key = c.name;
    for (const auto& [k, v] : c.labels) key += "," + k + "=" + v;
    if (key.starts_with("wire_")) out[key] = c.value;
  }
  return out;
}

/// One line per browse outcome and per MessageTrace envelope, then the
/// proxy's counters and the wire counters that moved. Client 1 tampers, and
/// every tenth request is dropped silently, leaving a stale index entry.
std::vector<std::string> observe(bool tcp, double rate) {
  static const trace::Trace t = trace::load_preset(trace::Preset::kBu95);
  ArmTracer client(rate, "client"), proxy(rate, "proxyd");
  BapsSystem::Params sp;
  sp.seed = kSeed;
  sp.browser_cache_bytes = 8 << 10;  // a handful of bodies per browser
  sp.proxy_cache_bytes = 6 << 10;
  ProxyServer server(proxy_params(sp.num_clients, sp.proxy_cache_bytes));
  server.set_tracer(proxy.tracer.get());
  std::string error;  // a loopback run never starts the server
  EXPECT_TRUE(!tcp || server.start(&error)) << error;
  const std::map<std::string, std::uint64_t> before = wire_counters();
  std::unique_ptr<TcpTransport> wire;
  std::unique_ptr<BapsSystem> sys;
  if (tcp) {
    wire = std::make_unique<TcpTransport>(
        TcpTransport::Params{"127.0.0.1", server.port(), {}});
    sys = std::make_unique<BapsSystem>(sp, *wire);
  } else {
    sys = std::make_unique<BapsSystem>(sp);
  }
  sys->set_tracer(client.tracer.get());
  sys->set_tampering(1, true);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 1500; ++i) {
    const trace::Request& req = t.requests()[i];
    const auto c = static_cast<ClientId>(req.client % sp.num_clients);
    const FetchOutcome out = sys->browse(c, t.url_of(req.doc));
    lines.push_back(source_name(out.source) + (out.verified ? " v" : " -") +
                    (out.tamper_recovered ? "t " : "- ") +
                    std::to_string(std::hash<std::string>{}(out.body)));
    if (i % 10 == 9) sys->drop_silently(c, t.url_of(req.doc));
  }
  const std::size_t browses = lines.size();
  for (const MsgRecord& m : sys->messages().log()) {
    lines.push_back(msg_kind_name(m.kind) + "|" + m.from + "|" + m.to + "|" +
                    std::to_string(m.url));
  }
  // Over TCP each read is a round trip, so it also fences the index updates
  // the proxy has not acknowledged before the wire counters are read.
  const ProxyStats stats{sys->proxy_hits(), sys->peer_hits(),
                         sys->origin_fetches(), sys->false_forwards(),
                         sys->rejected_index_updates()};
  EXPECT_GT(stats.peer_hits * stats.false_forwards, 0u)
      << "the slice must reach a peer and a stale index entry";
  lines.push_back(proxy_stats_json(stats).dump());
  // Moved counters only: an earlier run may have registered a kind (its
  // teardown's "bye") that this one has not sent yet.
  for (const auto& [key, value] : wire_counters()) {
    const auto it = before.find(key);
    const std::uint64_t delta = value - (it == before.end() ? 0 : it->second);
    if (delta != 0) lines.push_back(key + " +" + std::to_string(delta));
  }
  server.stop();
  client.expect_idle(rate > 0.0 ? browses : 0);  // one root per browse
  proxy.expect_idle(0);
  return lines;
}

void expect_unchanged_by_idle_tracers(bool tcp) {
  const std::vector<std::string> none = observe(tcp, kNoTracer);
  for (const double rate : {0.0, kUnsampled}) {
    const std::vector<std::string> got = observe(tcp, rate);
    ASSERT_EQ(got.size(), none.size()) << "rate " << rate;
    for (std::size_t i = 0; i < none.size(); ++i) {
      ASSERT_EQ(got[i], none[i]) << "rate " << rate << ", line " << i;
    }
  }
}

TEST(FreeWhenOffTest, LoopbackRuntimeIsUnchangedByAnIdleTracer) {
  expect_unchanged_by_idle_tracers(/*tcp=*/false);
}

TEST(FreeWhenOffTest, TcpRuntimeIsUnchangedByAnIdleTracer) {
  expect_unchanged_by_idle_tracers(/*tcp=*/true);
}

}  // namespace
}  // namespace baps::runtime
