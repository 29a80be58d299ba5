#include "wire/frame.hpp"

#include "util/assert.hpp"
#include "wire/codec.hpp"
#include "wire/crc32.hpp"

namespace baps::wire {

namespace {

constexpr std::uint32_t kind_bit(FrameKind kind) {
  return 1u << static_cast<std::uint8_t>(kind);
}

constexpr std::uint32_t kLiveKinds =
    kind_bit(FrameKind::kHello) | kind_bit(FrameKind::kHelloAck) |
    kind_bit(FrameKind::kFetchRequest) | kind_bit(FrameKind::kFetchResponse) |
    kind_bit(FrameKind::kIndexUpdate) | kind_bit(FrameKind::kIndexAck) |
    kind_bit(FrameKind::kPeerFetch) | kind_bit(FrameKind::kPeerDeliver) |
    kind_bit(FrameKind::kError) | kind_bit(FrameKind::kBye) |
    kind_bit(FrameKind::kIntrospectRequest) |
    kind_bit(FrameKind::kIntrospectResponse);
static_assert(kMaxFrameKind < 32, "kLiveKinds is a 32-bit mask");

}  // namespace

bool frame_kind_valid(std::uint8_t kind) {
  return kind <= kMaxFrameKind && ((kLiveKinds >> kind) & 1u) != 0;
}

std::string frame_kind_name(FrameKind kind) {
  switch (kind) {
    case FrameKind::kHello: return "hello";
    case FrameKind::kHelloAck: return "hello-ack";
    case FrameKind::kFetchRequest: return "fetch-request";
    case FrameKind::kFetchResponse: return "fetch-response";
    case FrameKind::kIndexUpdate: return "index-update";
    case FrameKind::kIndexAck: return "index-ack";
    case FrameKind::kPeerFetch: return "peer-fetch";
    case FrameKind::kPeerDeliver: return "peer-deliver";
    case FrameKind::kError: return "error";
    case FrameKind::kBye: return "bye";
    case FrameKind::kIntrospectRequest: return "introspect-request";
    case FrameKind::kIntrospectResponse: return "introspect-response";
  }
  BAPS_REQUIRE(false, "unknown frame kind");
  return {};
}

std::string decode_status_name(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadTraceContext: return "bad-trace-context";
    case DecodeStatus::kBadKind: return "bad-kind";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kBadCrc: return "bad-crc";
  }
  BAPS_REQUIRE(false, "unknown decode status");
  return {};
}

namespace {

// CRC as the decoder recomputes it: over the payload region alone when no
// trace context rides along (the original format), and over the tc_len
// field's own two bytes followed by the full payload region otherwise — so
// a bit flip in tc_len can never silently re-split the region into a
// different (context, payload) pair.
std::uint32_t frame_crc(std::uint16_t tc_len, std::string_view region) {
  const auto bytes = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(region.data()), region.size());
  if (tc_len == 0) return crc32(bytes);
  const std::uint8_t len_le[2] = {
      static_cast<std::uint8_t>(tc_len & 0xff),
      static_cast<std::uint8_t>(tc_len >> 8),
  };
  return crc32_update(crc32({len_le, 2}), bytes);
}

}  // namespace

std::string encode_frame(FrameKind kind, std::string_view payload) {
  Writer w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u16(0);  // no trace context
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  std::string out = w.take();
  out.append(payload.data(), payload.size());
  return out;
}

std::string encode_frame(FrameKind kind, std::string_view payload,
                         const obs::TraceContext& trace) {
  if (!trace.valid()) return encode_frame(kind, payload);
  Writer tc;
  tc.u64(trace.trace_id);
  tc.u64(trace.span_id);
  tc.u8(trace.sampled ? 1 : 0);
  std::string region = tc.take();
  BAPS_REQUIRE(region.size() == kTraceContextSize,
               "trace context block size drifted from kTraceContextSize");
  region.append(payload.data(), payload.size());
  Writer w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u16(kTraceContextSize);
  w.u32(static_cast<std::uint32_t>(region.size()));
  w.u32(frame_crc(kTraceContextSize, region));
  std::string out = w.take();
  out.append(region);
  return out;
}

DecodeResult decode_frame(std::span<const std::uint8_t> buf,
                          std::uint64_t max_payload) {
  DecodeResult result;
  if (buf.size() < kHeaderSize) {
    result.status = DecodeStatus::kNeedMore;
    return result;
  }
  Reader r({reinterpret_cast<const char*>(buf.data()), buf.size()});
  std::uint32_t magic = 0, payload_len = 0, crc = 0;
  std::uint16_t tc_len = 0;
  std::uint8_t version = 0, kind = 0;
  // kHeaderSize bytes are present, so the fixed-width reads cannot fail.
  r.u32(&magic);
  r.u8(&version);
  r.u8(&kind);
  r.u16(&tc_len);
  r.u32(&payload_len);
  r.u32(&crc);
  if (magic != kMagic) {
    result.status = DecodeStatus::kBadMagic;
    return result;
  }
  if (version != kVersion) {
    result.status = DecodeStatus::kBadVersion;
    return result;
  }
  if (!frame_kind_valid(kind)) {
    result.status = DecodeStatus::kBadKind;
    return result;
  }
  if (payload_len > max_payload) {
    result.status = DecodeStatus::kOversized;
    return result;
  }
  if (tc_len > payload_len) {
    result.status = DecodeStatus::kBadTraceContext;
    return result;
  }
  if (buf.size() - kHeaderSize < payload_len) {
    result.status = DecodeStatus::kNeedMore;
    return result;
  }
  const std::string_view region(
      reinterpret_cast<const char*>(buf.data()) + kHeaderSize, payload_len);
  if (frame_crc(tc_len, region) != crc) {
    result.status = DecodeStatus::kBadCrc;
    return result;
  }
  result.status = DecodeStatus::kOk;
  result.frame.kind = static_cast<FrameKind>(kind);
  result.frame.payload.assign(region.substr(tc_len));
  if (tc_len >= kTraceContextSize) {
    // Parse the prefix this version understands; a longer block from a newer
    // sender keeps its extra bytes ignored (they are still CRC-covered).
    Reader tc(region.substr(0, kTraceContextSize));
    std::uint64_t trace_id = 0, span_id = 0;
    std::uint8_t flags = 0;
    tc.u64(&trace_id);
    tc.u64(&span_id);
    tc.u8(&flags);
    result.frame.trace.trace_id = trace_id;
    result.frame.trace.span_id = span_id;
    result.frame.trace.sampled = (flags & 1) != 0;
  }
  result.consumed = kHeaderSize + payload_len;
  return result;
}

DecodeResult decode_frame(std::string_view buf, std::uint64_t max_payload) {
  return decode_frame(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(buf.data()), buf.size()),
      max_payload);
}

}  // namespace baps::wire
