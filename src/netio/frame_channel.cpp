#include "netio/frame_channel.hpp"

#include <algorithm>

#include "netio/netio_metrics.hpp"
#include "obs/registry.hpp"
#include "wire/codec.hpp"

namespace baps::netio {

bool FrameChannel::send(wire::FrameKind kind, std::string_view payload,
                        NetError* err) {
  return send(kind, payload, obs::TraceContext{}, err);
}

bool FrameChannel::send(wire::FrameKind kind, std::string_view payload,
                        const obs::TraceContext& trace, NetError* err) {
  const bool traced =
      tracer_ != nullptr && trace.valid() && trace.sampled;
  const std::uint64_t t0 = traced ? obs::monotonic_ns() : 0;
  // Unsampled contexts stay off the wire: nothing downstream would record
  // them (sampling is decided at the root), and untraced frames must stay
  // byte-identical to the pre-tracing format.
  const std::string frame =
      (trace.valid() && trace.sampled)
          ? wire::encode_frame(kind, payload, trace)
          : wire::encode_frame(kind, payload);
  // Count BEFORE the bytes go out: once the peer can observe this frame the
  // counter must already include it, or a snapshot taken downstream of the
  // peer's reply races with the increment. A frame whose write then fails is
  // still counted — tx means "committed to the channel", on both transports.
  count_wire_frame(kind, "tx", frame.size());
  NetError local;
  NetError* e = (err != nullptr) ? err : &local;
  if (!conn_.write_all(frame.data(), frame.size(), deadlines_.write_ms, e)) {
    if (e->status == NetStatus::kTimeout) count_netio_timeout("write");
    return false;
  }
  if (traced) {
    tracer_->record_span(obs::SpanKind::kFrameSend, trace, t0,
                         obs::monotonic_ns());
  }
  return true;
}

std::optional<wire::Frame> FrameChannel::recv(NetError* err) {
  return recv(deadlines_.read_ms, err);
}

namespace {

/// Initial read-ahead size: a reply frame (body, watermark, header) and
/// whatever follows it fit in one recv.
constexpr std::size_t kReadAheadBytes = 16 * 1024;

/// Total size of the frame whose (already validated) header starts `p`.
std::size_t frame_size(const char* p) {
  std::uint32_t payload_len = 0;
  wire::Reader r(std::string_view(p + 8, 4));  // length field, offset 8
  r.u32(&payload_len);
  return wire::kHeaderSize + payload_len;
}

}  // namespace

void FrameChannel::make_room(std::size_t frame_bytes) {
  if (rbeg_ + frame_bytes <= rbuf_.size()) return;
  const std::size_t held = rend_ - rbeg_;
  if (rbeg_ > 0) {
    std::copy(rbuf_.begin() + static_cast<std::ptrdiff_t>(rbeg_),
              rbuf_.begin() + static_cast<std::ptrdiff_t>(rend_),
              rbuf_.begin());
    rbeg_ = 0;
    rend_ = held;
  }
  const std::size_t want = std::max(frame_bytes, kReadAheadBytes);
  if (rbuf_.size() < want) rbuf_.resize(want);
}

std::optional<wire::Frame> FrameChannel::recv(int timeout_ms, NetError* err) {
  NetError local;
  NetError* e = (err != nullptr) ? err : &local;
  // One deadline for the whole frame: each read gets whatever budget the
  // earlier ones left over, not a fresh timeout_ms — otherwise a slow-loris
  // peer that trickles the header holds the caller for a multiple of the
  // configured deadline.
  const auto deadline = deadline_after(timeout_ms);
  // Only pay for a clock read when a tracer could use it; the context (and
  // whether it is sampled) is only known after the bytes are decoded.
  const bool may_trace = tracer_ != nullptr && tracer_->enabled();
  const std::uint64_t t0 = may_trace ? obs::monotonic_ns() : 0;
  for (;;) {
    const std::string_view held(rbuf_.data() + rbeg_, rend_ - rbeg_);
    // A complete header is validated here before any wait for its payload:
    // a bad one must not drive a huge allocation or a bottomless read.
    wire::DecodeResult r = wire::decode_frame(held, max_payload_);
    if (r.status == wire::DecodeStatus::kOk) {
      rbeg_ += r.consumed;
      if (rbeg_ == rend_) rbeg_ = rend_ = 0;
      count_wire_frame(r.frame.kind, "rx", r.consumed);
      if (may_trace && r.frame.trace.sampled) {
        tracer_->record_span(obs::SpanKind::kFrameRecv, r.frame.trace, t0,
                             obs::monotonic_ns());
      }
      *e = {};
      return std::move(r.frame);
    }
    if (r.status != wire::DecodeStatus::kNeedMore) {
      const std::string reason = wire::decode_status_name(r.status);
      count_decode_error(reason);
      e->status = NetStatus::kError;
      e->message = "frame rejected: " + reason;
      return std::nullopt;
    }
    make_room(held.size() >= wire::kHeaderSize ? frame_size(held.data())
                                               : wire::kHeaderSize);
    const std::size_t got = conn_.read_some(
        rbuf_.data() + rend_, rbuf_.size() - rend_, deadline, e);
    if (got == 0) {
      if (e->status == NetStatus::kTimeout) count_netio_timeout("read");
      return std::nullopt;
    }
    rend_ += got;
  }
}

}  // namespace baps::netio
