#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "crypto/hmac.hpp"
#include "obs/timeseries.hpp"
#include "runtime/wire_bridge.hpp"
#include "wire/frame.hpp"
#include "wire/messages.hpp"

namespace perfbench {

using baps::obs::SpanKind;
using baps::obs::SpanRecord;

namespace {

constexpr std::size_t kSignSamples = 24;

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// "name{k=v,...}" of one instrument in a time-series record.
std::string instance_key(const baps::obs::JsonValue& sample) {
  const std::string& name = sample.at("name").as_string();
  const baps::obs::JsonObject& labels = sample.at("labels").as_object();
  if (labels.empty()) return name;
  std::string key = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ',';
    key += labels[i].first + "=" + labels[i].second.as_string();
  }
  return key + "}";
}

/// Times `fn` once, in microseconds.
template <typename Fn>
double time_us(Fn&& fn) {
  const std::uint64_t t0 = baps::obs::monotonic_ns();
  fn();
  return us(baps::obs::monotonic_ns() - t0);
}

/// Proxy-side stage spans of one request trace.
struct ProxyTrace {
  std::uint64_t probe_start = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t stage_end = 0;
  bool has_probe() const {
    return probe_start != std::numeric_limits<std::uint64_t>::max();
  }
};

/// Encodes `msg` into a frame, decodes it back, and checks the round trip.
template <typename Msg>
bool codec_round_trip(const Msg& msg, Msg* out) {
  const std::string raw =
      baps::wire::encode_frame(Msg::kKind, baps::wire::encode(msg));
  const baps::wire::DecodeResult decoded = baps::wire::decode_frame(raw);
  return decoded.status == baps::wire::DecodeStatus::kOk &&
         decoded.frame.kind == Msg::kKind &&
         baps::wire::decode(decoded.frame.payload, out);
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

void RegistryDelta::add(const baps::obs::Snapshot& before,
                        const baps::obs::Snapshot& after) {
  const baps::obs::JsonValue rec =
      baps::obs::timeseries_record(before, after, 0.0, 0.0, 0);
  for (const baps::obs::JsonValue& c : rec.at("counters").as_array()) {
    const std::string key = instance_key(c);
    const std::string& name = c.at("name").as_string();
    const double d = c.at("delta").as_double();
    counters_[key] += d;
    if (key != name) counters_[name] += d;
  }
  for (const baps::obs::JsonValue& h : rec.at("histograms").as_array()) {
    auto& acc = hists_[instance_key(h)];
    acc.first += h.at("count_delta").as_double();
    acc.second += h.at("sum_delta").as_double();
  }
}

double RegistryDelta::counter(const std::string& key) const {
  const auto it = counters_.find(key);
  return it == counters_.end() ? 0.0 : it->second;
}

double RegistryDelta::hist_mean(const std::string& key) const {
  const auto it = hists_.find(key);
  if (it == hists_.end() || it->second.first <= 0.0) return 0.0;
  return it->second.second / it->second.first;
}

MetricMap layer_metrics(const LayerInputs& in, bool* ok, std::string* error) {
  MetricMap m;
  const auto put = [&m](const std::string& name, double value,
                        const char* unit) { m[name] = Metric{value, unit}; };
  const auto fail = [ok, error](const std::string& what) {
    if (*ok) *error = what;
    *ok = false;
  };

  // --- spans: proxy stages per trace, client request send per trace -------
  std::unordered_map<std::uint64_t, ProxyTrace> proxy_traces;
  std::vector<double> probe_us, lookup_us, peer_us, origin_us;
  for (const SpanRecord& s : in.proxy_spans) {
    switch (s.kind) {
      case SpanKind::kCacheProbe: probe_us.push_back(us(s.duration_ns())); break;
      case SpanKind::kIndexLookup: lookup_us.push_back(us(s.duration_ns())); break;
      case SpanKind::kPeerTransfer: peer_us.push_back(us(s.duration_ns())); break;
      case SpanKind::kOriginFetch: origin_us.push_back(us(s.duration_ns())); break;
      default: continue;
    }
    ProxyTrace& t = proxy_traces[s.trace_id];
    if (s.kind == SpanKind::kCacheProbe) {
      t.probe_start = std::min(t.probe_start, s.start_ns);
    }
    t.stage_end = std::max(t.stage_end, s.end_ns);
  }
  std::unordered_map<std::uint64_t, std::uint64_t> root_span;  // trace → span
  for (const SpanRecord& s : in.client_spans) {
    if (s.kind == SpanKind::kClientFetch) root_span[s.trace_id] = s.span_id;
  }
  // The request frame is the client frame_send parented by the root span
  // (a holder's PeerDeliver send is parented by the proxy's transfer span).
  std::unordered_map<std::uint64_t, std::uint64_t> request_sent;
  for (const SpanRecord& s : in.client_spans) {
    if (s.kind != SpanKind::kFrameSend) continue;
    const auto root = root_span.find(s.trace_id);
    if (root == root_span.end() || root->second != s.parent_id) continue;
    auto [it, fresh] = request_sent.emplace(s.trace_id, s.end_ns);
    if (!fresh) it->second = std::min(it->second, s.end_ns);
  }

  std::vector<double> handle_us, loop_wait_us;
  for (const auto& [trace_id, t] : proxy_traces) {
    if (!t.has_probe()) continue;
    handle_us.push_back(us(t.stage_end - t.probe_start));
    const auto sent = request_sent.find(trace_id);
    if (sent != request_sent.end()) {
      loop_wait_us.push_back(
          t.probe_start > sent->second ? us(t.probe_start - sent->second)
                                       : 0.0);
    }
  }

  // --- the benchmark's own round-trip records ------------------------------
  std::vector<double> fetch_rtt_us, index_rtt_us, lock_wait_us;
  std::uint64_t origin_replies = 0, false_forwards = 0;
  std::vector<const SignedDoc*> docs;
  std::vector<const IndexMsg*> index_msgs;
  for (const Recorder* rec : in.recorders) {
    for (const FetchRec& f : rec->fetches) {
      if (f.source == FetchOutcome::Source::kOrigin) ++origin_replies;
      if (f.false_forward) ++false_forwards;
      const auto t = proxy_traces.find(f.trace_id);
      if (t == proxy_traces.end() || !t->second.has_probe()) continue;
      const std::uint64_t rtt = f.end_ns - f.start_ns;
      const std::uint64_t handler = t->second.stage_end - t->second.probe_start;
      fetch_rtt_us.push_back(rtt > handler ? us(rtt - handler) : 0.0);
    }
    for (const CallRec& c : rec->index_updates) {
      index_rtt_us.push_back(us(c.end_ns - c.start_ns));
    }
    for (const ServeRec& s : rec->serves) {
      lock_wait_us.push_back(us(s.locked_ns - s.arrive_ns));
    }
    for (const SignedDoc& d : rec->docs) docs.push_back(&d);
    for (const IndexMsg& i : rec->index_msgs) index_msgs.push_back(&i);
  }

  // --- layer replays on recorded inputs ------------------------------------
  std::vector<double> sign_us, verify_us, hmac_us, codec_us, body_us;
  for (const SignedDoc* d : docs) {
    if (sign_us.size() < kSignSamples) {
      baps::crypto::Watermark mark;
      sign_us.push_back(time_us(
          [&] { mark = baps::crypto::issue_watermark(d->body, in.keys.priv); }));
      if (!(mark == d->mark)) fail("replayed watermark differs for " + d->url);
    }
    bool verified = false;
    verify_us.push_back(time_us([&] {
      verified = baps::crypto::verify_watermark(d->body, d->mark, in.keys.pub);
    }));
    if (!verified) fail("recorded watermark does not verify for " + d->url);
    std::string body;
    body_us.push_back(time_us([&] { body = in.origin->fetch(d->url); }));
    if (body != d->body) fail("origin body differs for " + d->url);

    baps::wire::FetchRequest request;
    request.url = d->url;
    baps::wire::FetchResponse response;
    response.source = baps::runtime::to_wire_source(d->source);
    response.body = d->body;
    response.watermark = baps::runtime::watermark_to_bytes(d->mark);
    baps::wire::FetchRequest request_back;
    baps::wire::FetchResponse response_back;
    bool round_trip = true;
    codec_us.push_back(time_us(
        [&] { round_trip &= codec_round_trip(request, &request_back); }));
    codec_us.push_back(time_us(
        [&] { round_trip &= codec_round_trip(response, &response_back); }));
    if (!round_trip || request_back.url != d->url ||
        response_back.body != d->body) {
      fail("wire codec round trip differs for " + d->url);
    }
  }
  for (const IndexMsg* i : index_msgs) {
    std::string msg = i->is_add ? "add:" : "remove:";
    msg += std::to_string(i->sender);
    msg += ':';
    msg += std::to_string(i->key);
    baps::crypto::Md5Digest mac;
    hmac_us.push_back(time_us(
        [&] { mac = baps::crypto::hmac_md5(in.mac_keys[i->sender], msg); }));
    if (!baps::crypto::digest_equal(mac, i->mac)) {
      fail("replayed index MAC differs for key " + std::to_string(i->key));
    }
    baps::wire::IndexUpdate update;
    update.is_add = i->is_add;
    update.key = i->key;
    update.mac = i->mac.bytes;
    baps::wire::IndexAck ack;
    ack.accepted = true;
    baps::wire::IndexUpdate update_back;
    baps::wire::IndexAck ack_back;
    bool round_trip = true;
    codec_us.push_back(time_us(
        [&] { round_trip &= codec_round_trip(update, &update_back); }));
    codec_us.push_back(
        time_us([&] { round_trip &= codec_round_trip(ack, &ack_back); }));
    if (!round_trip || update_back.key != i->key) {
      fail("wire codec round trip differs for an index update");
    }
  }

  // --- browse-level attribution --------------------------------------------
  const double verify_est_us = quantile(verify_us, 0.5);
  const double hmac_est_us = quantile(hmac_us, 0.5);
  double browse_total_us = 0.0, client_self_total_us = 0.0;
  std::uint64_t verify_calls = 0, index_updates = 0;
  std::uint64_t sources[4] = {0, 0, 0, 0};
  for (const BrowseRec& b : in.browses) {
    verify_calls += std::max<std::uint32_t>(1, b.wire.fetches);
    index_updates += b.wire.index_updates;
    ++sources[static_cast<int>(b.source)];
    const double total = us(b.end_ns - b.start_ns);
    browse_total_us += total;
    client_self_total_us += total - us(b.wire.fetch_ns) - us(b.wire.index_ns);
  }
  // Verify and the client's MACs run inside browse() where no span reaches;
  // their replayed per-call cost stands in for them.
  client_self_total_us -= verify_est_us * static_cast<double>(verify_calls);
  const double unattributed_us =
      client_self_total_us - hmac_est_us * static_cast<double>(index_updates);
  const double browses = static_cast<double>(in.browses.size());
  const auto per_browse = [browses](double x) {
    return browses > 0 ? x / browses : 0.0;
  };

  put("crypto.sign_us", quantile(sign_us, 0.5), "us");
  put("crypto.sign_calls", static_cast<double>(origin_replies), "count");
  put("crypto.verify_us", verify_est_us, "us");
  put("crypto.verify_calls", static_cast<double>(verify_calls), "count");
  put("crypto.hmac_us", hmac_est_us, "us");
  put("crypto.hmac_calls", 2.0 * static_cast<double>(index_updates), "count");

  put("wire.frames_per_fetch", per_browse(in.delta.counter("wire_frames_total")),
      "frames/fetch");
  put("wire.bytes_per_fetch", per_browse(in.delta.counter("wire_bytes_total")),
      "B/fetch");
  put("wire.codec_us", quantile(codec_us, 0.5), "us");

  put("netio.fetch_rtt_p50_us", quantile(fetch_rtt_us, 0.5), "us");
  put("netio.fetch_rtt_p99_us", quantile(fetch_rtt_us, 0.99), "us");
  put("netio.index_rtt_us", quantile(index_rtt_us, 0.5), "us");
  put("netio.peer_rtt_p50_us", quantile(peer_us, 0.5), "us");
  put("netio.peer_rtt_p99_us", quantile(peer_us, 0.99), "us");
  put("netio.loop_wait_p50_us", quantile(loop_wait_us, 0.5), "us");
  put("netio.loop_wait_p99_us", quantile(loop_wait_us, 0.99), "us");
  const double reuses = in.delta.counter("netio_pool_reuse_total");
  const double dials = in.delta.counter("netio_pool_dial_total");
  put("netio.pool_reuse_ratio",
      reuses + dials > 0 ? reuses / (reuses + dials) : 0.0, "ratio");
  put("netio.pool_dials", dials, "count");
  put("netio.host_lock_wait_p99_us", quantile(lock_wait_us, 0.99), "us");

  put("runtime.handle_fetch_p50_us", quantile(handle_us, 0.5), "us");
  put("runtime.handle_fetch_p99_us", quantile(handle_us, 0.99), "us");
  put("runtime.origin_us", quantile(origin_us, 0.5), "us");
  put("runtime.origin_body_us", quantile(body_us, 0.5), "us");
  put("runtime.client_self_us", per_browse(client_self_total_us), "us");
  put("runtime.unattributed_share",
      browse_total_us > 0 ? unattributed_us / browse_total_us : 0.0, "ratio");
  put("runtime.local_hits",
      static_cast<double>(
          sources[static_cast<int>(FetchOutcome::Source::kLocalBrowser)]),
      "count");
  put("runtime.proxy_hits",
      static_cast<double>(sources[static_cast<int>(FetchOutcome::Source::kProxy)]),
      "count");
  put("runtime.peer_hits",
      static_cast<double>(
          sources[static_cast<int>(FetchOutcome::Source::kRemoteBrowser)]),
      "count");
  put("runtime.origin_fetches",
      static_cast<double>(
          sources[static_cast<int>(FetchOutcome::Source::kOrigin)]),
      "count");
  put("runtime.false_forwards", static_cast<double>(false_forwards), "count");

  put("index.lookup_us", quantile(lookup_us, 0.5), "us");
  put("index.lookups", static_cast<double>(lookup_us.size()), "count");
  put("index.holder_found_ratio",
      lookup_us.empty() ? 0.0
                        : static_cast<double>(peer_us.size()) /
                              static_cast<double>(lookup_us.size()),
      "ratio");

  put("store.probe_us", quantile(probe_us, 0.5), "us");
  put("store.demote_us",
      in.delta.hist_mean("store_stage_seconds{op=demote}") * 1e6, "us");
  put("store.promote_us",
      in.delta.hist_mean("store_stage_seconds{op=promote}") * 1e6, "us");
  put("store.demotions", in.delta.counter("store_demotions_total"), "count");
  put("store.promotions", in.delta.counter("store_promotions_total"), "count");
  put("store.bytes_written", in.delta.counter("store_bytes_total{dir=written}"),
      "B");
  put("store.integrity_failures",
      in.delta.counter("store_integrity_failures_total"), "count");
  return m;
}

}  // namespace perfbench
