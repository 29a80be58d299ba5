// Framed message I/O over one TCP connection: wire frames in, wire frames
// out, with per-operation deadlines and full obs instrumentation —
// `wire_frames_total{kind,dir}`, `wire_bytes_total{dir}`, decode-error and
// timeout counters. A frame that fails validation (bad magic/CRC/size) is a
// hard error: the caller is expected to drop the connection, which is
// exactly how tampered traffic is contained.
//
// Reads go through a per-channel read-ahead buffer: one recv takes whatever
// has arrived — often a whole reply frame, sometimes more than one — and
// frames are decoded from the buffer, so a reply already queued costs one
// syscall and a second frame that came with it costs none. A header is
// validated as soon as its 16 bytes are in, before any wait for its payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netio/socket.hpp"
#include "obs/span.hpp"
#include "wire/frame.hpp"
#include "wire/messages.hpp"

namespace baps::netio {

class FrameChannel {
 public:
  FrameChannel(TcpConnection conn, Deadlines deadlines,
               std::uint64_t max_payload = wire::kDefaultMaxPayload)
      : conn_(std::move(conn)),
        deadlines_(deadlines),
        max_payload_(max_payload) {}

  bool valid() const { return conn_.valid(); }
  TcpConnection& connection() { return conn_; }
  const Deadlines& deadlines() const { return deadlines_; }

  /// Attaches a tracer: sampled frames crossing this channel get
  /// frame_send / frame_recv spans. nullptr (the default) costs nothing on
  /// either path.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Sends one frame within the write deadline. The overload taking a
  /// TraceContext embeds it in the frame (invalid contexts degrade to the
  /// plain encoding) and records a frame_send span when sampled.
  bool send(wire::FrameKind kind, std::string_view payload, NetError* err);
  bool send(wire::FrameKind kind, std::string_view payload,
            const obs::TraceContext& trace, NetError* err);

  /// Receives one frame within `timeout_ms` (default: the read deadline),
  /// one deadline for the whole frame however many reads it takes.
  /// Frame-validation failures surface as NetStatus::kError with the decode
  /// status in the message, after bumping `wire_decode_errors_total{reason}`.
  /// A received frame carrying a sampled trace context gets a frame_recv
  /// span (when a tracer is attached) parented to the sender's span.
  std::optional<wire::Frame> recv(NetError* err);
  std::optional<wire::Frame> recv(int timeout_ms, NetError* err);

  /// Encode + send a typed message, optionally with a trace context.
  template <typename Msg>
  bool send_msg(const Msg& m, NetError* err) {
    return send(Msg::kKind, wire::encode(m), err);
  }
  template <typename Msg>
  bool send_msg(const Msg& m, const obs::TraceContext& trace, NetError* err) {
    return send(Msg::kKind, wire::encode(m), trace, err);
  }

  /// Receives one frame and decodes it as Msg; wrong kind or undecodable
  /// payload is a protocol error.
  template <typename Msg>
  std::optional<Msg> recv_msg(NetError* err) {
    const auto frame = recv(err);
    if (!frame.has_value()) return std::nullopt;
    if (frame->kind != Msg::kKind) {
      if (err != nullptr) {
        err->status = NetStatus::kError;
        err->message = "unexpected frame kind " +
                       wire::frame_kind_name(frame->kind) + ", wanted " +
                       wire::frame_kind_name(Msg::kKind);
      }
      return std::nullopt;
    }
    Msg out;
    if (!wire::decode(frame->payload, &out)) {
      if (err != nullptr) {
        err->status = NetStatus::kError;
        err->message =
            "undecodable " + wire::frame_kind_name(Msg::kKind) + " payload";
      }
      return std::nullopt;
    }
    return out;
  }

  void shutdown_both() { conn_.shutdown_both(); }
  void close() { conn_.close(); }

 private:
  /// Makes room for `frame_bytes` starting at rbeg_, compacting the
  /// partial frame to the front and growing only when it cannot fit.
  void make_room(std::size_t frame_bytes);

  TcpConnection conn_;
  Deadlines deadlines_;
  std::uint64_t max_payload_;
  obs::Tracer* tracer_ = nullptr;  ///< optional, not owned
  /// Read-ahead: [rbeg_, rend_) is received and not yet decoded. Sized on
  /// the first recv and grown only for a frame larger than it, never
  /// zero-filled per read.
  std::vector<char> rbuf_;
  std::size_t rbeg_ = 0;
  std::size_t rend_ = 0;
};

}  // namespace baps::netio
