#include "netio/netio_metrics.hpp"

#include <atomic>
#include <cstring>

namespace baps::netio {

void count_wire_frame(wire::FrameKind kind, const char* dir,
                      std::size_t bytes) {
  // Every frame on every thread lands here — the proxy's loop, each host's
  // peer server and each client channel — so the counters are resolved once
  // per (kind, dir) and then bumped without the registry's lock. A kind's
  // counter registers on its first frame.
  static std::atomic<obs::Counter*> frames[wire::kMaxFrameKind + 1][2];
  static obs::Counter& bytes_tx =
      obs::Registry::global().counter("wire_bytes_total", {{"dir", "tx"}});
  static obs::Counter& bytes_rx =
      obs::Registry::global().counter("wire_bytes_total", {{"dir", "rx"}});
  const bool tx = std::strcmp(dir, "tx") == 0;
  std::atomic<obs::Counter*>& slot =
      frames[static_cast<std::uint8_t>(kind)][tx ? 0 : 1];
  obs::Counter* counter = slot.load(std::memory_order_acquire);
  if (counter == nullptr) {
    counter = &obs::Registry::global().counter(
        "wire_frames_total",
        {{"kind", wire::frame_kind_name(kind)}, {"dir", dir}});
    slot.store(counter, std::memory_order_release);
  }
  counter->inc();
  (tx ? bytes_tx : bytes_rx).inc(bytes);
}

void count_netio_timeout(const char* op) {
  obs::Registry::global()
      .counter("netio_timeouts_total", {{"op", op}})
      .inc();
}

void count_decode_error(const std::string& reason) {
  obs::Registry::global()
      .counter("wire_decode_errors_total", {{"reason", reason}})
      .inc();
}

void register_netio_metric_families(obs::Registry* registry) {
  registry->gauge("netio_connections_active");
  registry->counter("netio_connections_total");
  registry->counter("netio_accept_errors_total");
  registry->counter("netio_epoll_wakeups_total");
  registry->counter("netio_epoll_accept_backpressure_total");
  registry->counter("netio_epoll_writeq_stall_total");
  registry->counter("netio_epoll_idle_closes_total");
  registry->counter("netio_epoll_hello_timeouts_total");
  registry->counter("netio_epoll_drained_total");
  registry->counter("netio_pool_reuse_total");
  registry->counter("netio_pool_dial_total");
  registry->counter("netio_peer_retries_total");
  registry->counter("netio_peer_timeouts_total");
}

}  // namespace baps::netio
