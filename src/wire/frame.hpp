// The BAPS wire frame: the versioned envelope every protocol message crosses
// a socket in. Layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic        0x53504142 ("BAPS" as bytes)
//        4     1  version      kVersion (2)
//        5     1  kind         FrameKind
//        6     2  tc_len       trace-context bytes at the payload front
//        8     4  payload_len  bytes following the header (incl. tc block)
//       12     4  payload_crc  CRC-32 (IEEE), see below
//       16     …  [trace ctx]  tc_len bytes (normally 0 or kTraceContextSize)
//       16+tc  …  payload      message-specific encoding (wire/messages.hpp)
//
// Version 2 changed message shapes, not the envelope: Hello names no
// browser, and FetchRequest/IndexUpdate carry the browser id per frame
// (wire/messages.hpp). A version-1 peer is refused at the header with
// kBadVersion rather than having its payloads misread.
//
// Trace context (the distributed-tracing extension) rides in the first
// tc_len bytes of the payload region. tc_len was once a must-be-zero
// reserved field, so:
//   * frames WITHOUT a context (tc_len 0) keep the original layout and the
//     CRC covers exactly the payload bytes;
//   * frames WITH a context were rejected by the pre-tracing decoder (it
//     required reserved == 0) — the tracer only attaches contexts to
//     sampled traces, never by default;
//   * a NEWER sender may use a larger tc block: this decoder parses the
//     kTraceContextSize-byte prefix it understands and skips the rest
//     (tc blocks shorter than kTraceContextSize are skipped entirely).
// When tc_len > 0 the CRC covers the two tc_len bytes themselves followed by
// the whole payload region, so a bit flip in tc_len cannot silently re-split
// the payload; when tc_len == 0 it covers just the payload, bit-identical to
// the original format.
//
// Decoding is bounded and total: any input — truncated, bit-flipped,
// oversized, or adversarial — yields a typed DecodeStatus, never undefined
// behaviour. kNeedMore distinguishes "keep reading" from hard rejection so a
// streaming reader can decode from a growing buffer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "obs/trace_context.hpp"

namespace baps::wire {

inline constexpr std::uint32_t kMagic = 0x53504142u;  // "BAPS"
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderSize = 16;
/// Default ceiling on a frame payload; decoders reject anything larger
/// before allocating. Document bodies are far smaller.
inline constexpr std::uint64_t kDefaultMaxPayload = 16ull << 20;

/// Every message kind that crosses the wire. Gaps are never reused;
/// new kinds append.
enum class FrameKind : std::uint8_t {
  kHello = 1,          ///< client host → proxy: its peer-server port
  kHelloAck = 2,       ///< proxy → client: proxy public key
  kFetchRequest = 3,   ///< client → proxy: browser id + url (+ retry flag)
  kFetchResponse = 4,  ///< proxy → client: document + watermark + source
  kIndexUpdate = 5,    ///< client → proxy: MACed add/remove, no reply
  kIndexAck = 6,       ///< retired: updates are no longer acked
  kPeerFetch = 7,      ///< proxy → holder: holder id + document key (§6.2)
  kPeerDeliver = 8,    ///< holder → proxy: document + watermark
  kStatsRequest = 9,   ///< client → proxy: counter snapshot request
  kStatsResponse = 10, ///< proxy → client: counter snapshot
  kError = 11,         ///< either direction: terminal protocol error
  kBye = 12,           ///< orderly close
  kTraceStatsRequest = 13,   ///< client → proxy: live snapshot + spans
  kTraceStatsResponse = 14,  ///< proxy → client: introspection JSON
  kTimeSeriesRequest = 15,   ///< client → proxy: recent interval records
  kTimeSeriesResponse = 16,  ///< proxy → client: time-series window JSON
};

inline constexpr std::uint8_t kMinFrameKind = 1;
inline constexpr std::uint8_t kMaxFrameKind = 16;

/// Bytes of the trace-context block this version reads and writes:
/// u64 trace_id, u64 span_id, u8 flags (bit 0 = sampled).
inline constexpr std::uint16_t kTraceContextSize = 17;

bool frame_kind_valid(std::uint8_t kind);
std::string frame_kind_name(FrameKind kind);

struct Frame {
  FrameKind kind = FrameKind::kBye;
  std::string payload;
  /// Trace context carried by the frame; !valid() when none was attached.
  obs::TraceContext trace;
};

enum class DecodeStatus {
  kOk,
  kNeedMore,            ///< valid so far, frame incomplete
  kBadMagic,
  kBadVersion,
  kBadTraceContext,     ///< tc_len larger than the payload region
  kBadKind,
  kOversized,           ///< payload_len exceeds the decoder's ceiling
  kBadCrc,
};

std::string decode_status_name(DecodeStatus status);

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  Frame frame;
  std::size_t consumed = 0;  ///< bytes to drop from the buffer when kOk
};

/// Serializes one frame (header + payload), with no trace context.
std::string encode_frame(FrameKind kind, std::string_view payload);

/// Serializes one frame carrying `trace`. An invalid (trace_id 0) context
/// degrades to the plain encoding, so call sites can pass their context
/// unconditionally.
std::string encode_frame(FrameKind kind, std::string_view payload,
                         const obs::TraceContext& trace);

/// Decodes the frame at the front of `buf`. On kOk, `frame` holds the
/// payload and `consumed` the total frame size; on kNeedMore the buffer is
/// merely short; every other status is a hard protocol violation and the
/// connection should be dropped.
DecodeResult decode_frame(std::span<const std::uint8_t> buf,
                          std::uint64_t max_payload = kDefaultMaxPayload);
DecodeResult decode_frame(std::string_view buf,
                          std::uint64_t max_payload = kDefaultMaxPayload);

}  // namespace baps::wire
