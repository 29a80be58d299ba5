// Shared wire/netio metric accounting used by BOTH frame transports — the
// blocking FrameChannel (client requests, the proxy's outbound peer
// fetches) and the epoll event loop (the proxy's sessions and each client
// host's peer server). Keeping the counting in one place means both bump the
// exact same families with the exact same labels, so a frame counts the
// same whichever side of a connection sends or receives it.
#pragma once

#include <cstddef>
#include <string>

#include "obs/registry.hpp"
#include "wire/frame.hpp"

namespace baps::netio {

/// One frame crossed the wire: bumps wire_frames_total{kind,dir} and
/// wire_bytes_total{dir}. `dir` is "tx" or "rx"; `bytes` is the full
/// encoded frame size (header + payload).
void count_wire_frame(wire::FrameKind kind, const char* dir,
                      std::size_t bytes);

/// A deadline expired mid-operation: bumps netio_timeouts_total{op}
/// ("read" / "write").
void count_netio_timeout(const char* op);

/// An inbound byte stream failed frame validation: bumps
/// wire_decode_errors_total{reason} with the decode_status_name reason, or
/// with a message-level reason ("bad-peer-fetch", "bad-holder",
/// "bad-client") when a well-framed payload is refused.
void count_decode_error(const std::string& reason);

/// Eagerly registers the netio/epoll metric families so reports always
/// export them (as zeros when idle) and report_check can assert presence:
///   netio_connections_active        gauge  — open sessions right now
///   netio_connections_total         counter — sessions ever accepted
///   netio_accept_errors_total       counter — accept() failures
///   netio_epoll_wakeups_total       counter — epoll_wait returns
///   netio_epoll_accept_backpressure_total — EMFILE/ENFILE pauses
///   netio_epoll_writeq_stall_total  counter — bounded write queue full
///   netio_epoll_idle_closes_total   counter — timer-wheel idle expiries
///   netio_epoll_hello_timeouts_total — closed before any first frame
///   netio_epoll_drained_total       counter — sessions closed by drain
///   netio_pool_reuse_total          counter — pooled channel reuses
///   netio_pool_dial_total           counter — fresh dials by the pool
///   netio_pool_discard_total        counter — releases past the idle cap
void register_netio_metric_families(
    obs::Registry* registry = &obs::Registry::global());

}  // namespace baps::netio
