#include "netio/netio_metrics.hpp"

namespace baps::netio {

void count_wire_frame(wire::FrameKind kind, const char* dir,
                      std::size_t bytes) {
  auto& reg = obs::Registry::global();
  reg.counter("wire_frames_total",
              {{"kind", wire::frame_kind_name(kind)}, {"dir", dir}})
      .inc();
  reg.counter("wire_bytes_total", {{"dir", dir}}).inc(bytes);
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
  registry->counter("netio_pool_discard_total");
}

}  // namespace baps::netio
