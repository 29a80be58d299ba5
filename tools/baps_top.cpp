// baps_top — live terminal dashboard for a running baps_proxyd. Polls the
// daemon's TimeSeriesRequest frame (the sampler's interval ring) and renders
// per-interval request rate, hit ratio, store tier movement, fault/churn
// counters, and latency quantiles. Nothing is computed client-side from raw
// counters: every rate/quantile shown is what the daemon's TimeSeriesSampler
// put in the interval record, so the dashboard and the JSONL export always
// agree.
//
//   baps_top --port 4160                 # full-screen, refresh every second
//   baps_top --port 4160 --plain --iterations 1   # one scripted frame
//
// Exits 0 after --iterations frames (0 = run until killed), 1 when the
// daemon cannot be reached or answers with an unusable window.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "obs/timeseries.hpp"
#include "runtime/tcp_transport.hpp"
#include "util/args.hpp"

namespace {

using baps::obs::JsonValue;

/// Finds an entry with `name` (and, when `label_key` is nonempty, a matching
/// label) in a record's counters/gauges/histograms array.
const JsonValue* find_entry(const JsonValue& record, const char* section,
                            const std::string& name,
                            const std::string& label_key = {},
                            const std::string& label_value = {}) {
  const JsonValue* arr = record.find(section);
  if (arr == nullptr || !arr->is_array()) return nullptr;
  for (const JsonValue& e : arr->as_array()) {
    if (!e.is_object()) continue;
    const JsonValue* n = e.find("name");
    if (n == nullptr || !n->is_string() || n->as_string() != name) continue;
    if (label_key.empty()) return &e;
    const JsonValue* labels = e.find("labels");
    const JsonValue* v = labels != nullptr ? labels->find(label_key) : nullptr;
    if (v != nullptr && v->is_string() && v->as_string() == label_value) {
      return &e;
    }
  }
  return nullptr;
}

double counter_field(const JsonValue& record, const std::string& name,
                     const char* field, const std::string& label_key = {},
                     const std::string& label_value = {}) {
  const JsonValue* e =
      find_entry(record, "counters", name, label_key, label_value);
  const JsonValue* v = e != nullptr ? e->find(field) : nullptr;
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

/// Sums `field` over every instance of a counter family (labels ignored).
double counter_family_field(const JsonValue& record, const std::string& name,
                            const char* field) {
  const JsonValue* arr = record.find("counters");
  if (arr == nullptr || !arr->is_array()) return 0.0;
  double sum = 0.0;
  for (const JsonValue& e : arr->as_array()) {
    if (!e.is_object()) continue;
    const JsonValue* n = e.find("name");
    if (n == nullptr || !n->is_string() || n->as_string() != name) continue;
    const JsonValue* v = e.find(field);
    if (v != nullptr && v->is_number()) sum += v->as_double();
  }
  return sum;
}

std::string fmt_rate(double v) {
  char buf[48];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f", v);
  }
  return buf;
}

std::string fmt_seconds(double v) {
  char buf[48];
  if (v <= 0.0) {
    return "-";
  } else if (v < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.0fus", v * 1e6);
  } else if (v < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2fms", v * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", v);
  }
  return buf;
}

void render(const JsonValue& window, bool plain) {
  const JsonValue* intervals = window.find("intervals");
  if (intervals == nullptr || !intervals->is_array() ||
      intervals->as_array().empty()) {
    std::cout << "no intervals yet (sampler warming up)\n";
    return;
  }
  const JsonValue& rec = intervals->as_array().back();
  if (!plain) std::cout << "\x1b[H\x1b[2J";  // home + clear

  const JsonValue* seq = rec.find("seq");
  const JsonValue* interval = rec.find("interval_seconds");
  std::cout << "baps_top — interval #"
            << (seq != nullptr ? seq->as_uint() : 0) << " ("
            << (interval != nullptr ? interval->as_double() : 0.0)
            << "s), ring depth " << intervals->as_array().size() << "\n\n";

  const double req_rate =
      counter_field(rec, "proxy_fetch_requests_total", "per_second");
  const double req_delta =
      counter_field(rec, "proxy_fetch_requests_total", "delta");
  const double hit_proxy = counter_field(rec, "proxy_fetch_served_total",
                                         "delta", "source", "proxy-cache");
  const double hit_peer = counter_field(rec, "proxy_fetch_served_total",
                                        "delta", "source", "remote-browser");
  const double origin = counter_field(rec, "proxy_fetch_served_total",
                                      "delta", "source", "origin-server");
  const double hit_ratio =
      req_delta > 0.0 ? (hit_proxy + hit_peer) / req_delta : 0.0;
  std::cout << "requests   " << fmt_rate(req_rate) << "/s"
            << "   hit ratio " << std::round(hit_ratio * 1000.0) / 10.0
            << "%  (proxy " << hit_proxy << ", peer " << hit_peer
            << ", origin " << origin << ")\n";

  const double ff =
      counter_field(rec, "proxy_false_forwards_total", "per_second");
  const double stale =
      counter_field(rec, "stale_index_hits_total", "per_second");
  std::cout << "staleness  false forwards " << fmt_rate(ff) << "/s"
            << "   stale index hits " << fmt_rate(stale) << "/s\n";

  const double tx = counter_field(rec, "wire_bytes_total", "per_second",
                                  "dir", "tx");
  const double rx = counter_field(rec, "wire_bytes_total", "per_second",
                                  "dir", "rx");
  std::cout << "wire       tx " << fmt_rate(tx) << " B/s   rx "
            << fmt_rate(rx) << " B/s\n";

  // Connection load: live count from the event loop's gauge, accept rate
  // from the accepted-connections counter. Absent (all zeros) on daemons
  // that predate these instruments.
  const JsonValue* active_g =
      find_entry(rec, "gauges", "netio_connections_active");
  const JsonValue* active_v =
      active_g != nullptr ? active_g->find("value") : nullptr;
  const double conns_active =
      active_v != nullptr && active_v->is_number() ? active_v->as_double()
                                                   : 0.0;
  const double accept_rate =
      counter_field(rec, "netio_connections_total", "per_second");
  const double idle_closes =
      counter_field(rec, "netio_epoll_idle_closes_total", "delta");
  if (active_g != nullptr || accept_rate > 0.0) {
    std::cout << "conns      active " << conns_active << "   accept "
              << fmt_rate(accept_rate) << "/s   idle closes "
              << idle_closes << " this interval\n";
  }

  const double demote =
      counter_field(rec, "store_demotions_total", "per_second");
  const double promote =
      counter_field(rec, "store_promotions_total", "per_second");
  const double sprobe = counter_field(rec, "store_probes_total", "delta");
  const double shit = counter_field(rec, "store_hits_total", "delta");
  std::cout << "store      demote " << fmt_rate(demote) << "/s   promote "
            << fmt_rate(promote) << "/s   disk probes " << sprobe
            << " (hits " << shit << ")\n";

  const double injected =
      counter_family_field(rec, "fault_injected_total", "per_second");
  const double recovered =
      counter_family_field(rec, "fault_recovered_total", "per_second");
  const double injected_total =
      counter_family_field(rec, "fault_injected_total", "value");
  std::cout << "faults     inject " << fmt_rate(injected) << "/s   recover "
            << fmt_rate(recovered) << "/s   injected total "
            << injected_total << "\n";

  const JsonValue* lat = find_entry(rec, "histograms",
                                    "netio_request_seconds", "op", "fetch");
  if (lat != nullptr) {
    const auto q = [&](const char* k) {
      const JsonValue* v = lat->find(k);
      return v != nullptr && v->is_number() ? v->as_double() : 0.0;
    };
    const JsonValue* n = lat->find("count_delta");
    std::cout << "latency    p50 " << fmt_seconds(q("p50")) << "   p95 "
              << fmt_seconds(q("p95")) << "   p99 " << fmt_seconds(q("p99"))
              << "   (" << (n != nullptr ? n->as_uint() : 0)
              << " fetches this interval)\n";
  }

  if (const JsonValue* proc = rec.find("process");
      proc != nullptr && proc->is_object()) {
    const JsonValue* rss = proc->find("rss_bytes");
    const JsonValue* cpu = proc->find("cpu_delta_seconds");
    const double interval_s =
        interval != nullptr && interval->as_double() > 0.0
            ? interval->as_double()
            : 1.0;
    std::cout << "process    rss "
              << fmt_rate(rss != nullptr ? rss->as_double() : 0.0)
              << "B   cpu "
              << std::round((cpu != nullptr ? cpu->as_double() : 0.0) /
                            interval_s * 1000.0) /
                     10.0
              << "%";
    if (const JsonValue* threads = proc->find("threads");
        threads != nullptr && threads->is_array()) {
      std::cout << "   threads " << threads->as_array().size();
    }
    std::cout << "\n";
  }
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double interval = 1.0;
  std::uint64_t iterations = 0;
  std::uint32_t max_intervals = 8;
  bool plain = false;

  baps::util::ArgParser parser(
      "baps_top", "live per-interval dashboard for a running baps_proxyd");
  parser.option("--host", &host, "HOST", "proxy host (default 127.0.0.1)")
      .option("--port", &port, "PORT", "proxy port (required)")
      .duration("--interval", &interval,
                "DUR", "poll cadence, e.g. 1s / 250ms (default 1s)")
      .option("--iterations", &iterations, "N",
              "frames to render before exiting (default 0: run forever)")
      .option("--max-intervals", &max_intervals, "N",
              "interval records to request per poll (default 8)")
      .flag("--plain", &plain,
            "append frames without clearing the screen (for scripts/CI)");
  std::string error;
  if (!parser.parse(argc, argv, &error)) {
    std::cerr << error << "\n" << parser.usage();
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage();
    return 0;
  }
  if (port == 0) {
    std::cerr << "--port is required\n" << parser.usage();
    return 2;
  }

  baps::runtime::TcpTransport::Params tp;
  tp.proxy_host = host;
  tp.proxy_port = port;
  baps::runtime::TcpTransport transport(tp);

  for (std::uint64_t frame = 0; iterations == 0 || frame < iterations;
       ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
    const std::string json = transport.time_series(max_intervals);
    std::string perr;
    auto window = baps::obs::json_parse(json, &perr);
    if (!window) {
      std::cerr << "bad time-series window from proxy: " << perr << "\n";
      return 1;
    }
    const JsonValue* schema = window->find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != baps::obs::kTimeSeriesWindowSchema) {
      std::cerr << "unexpected schema in proxy answer\n";
      return 1;
    }
    render(*window, plain);
  }
  return 0;
}
