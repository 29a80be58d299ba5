// Backward/forward compatibility of the optional trace-context block in the
// frame header's once-reserved u16.
//
// LegacyDecode below replicates the pre-trace-context decoder bit for bit
// (reserved-must-be-zero, CRC over the payload alone) so these tests pin the
// actual compatibility story:
//   * untraced frames are byte-identical to the old format and decode the
//     same under both decoders;
//   * traced frames are cleanly REJECTED (not misparsed) by the old decoder
//     and round-trip under the new one;
//   * malformed or fuzzed trace-context bytes never crash the decoder and
//     never silently corrupt the payload.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/crc32.hpp"
#include "wire/frame.hpp"

namespace baps::wire {
namespace {

enum class LegacyStatus { kOk, kNeedMore, kBadHeader, kBadCrc };

struct LegacyFrame {
  FrameKind kind = FrameKind::kHello;
  std::string payload;
};

/// The decoder as it shipped before trace contexts existed: the u16 at
/// offset 6 was reserved and had to be zero, and the CRC covered exactly the
/// payload bytes.
LegacyStatus legacy_decode(std::string_view buf, LegacyFrame* out) {
  if (buf.size() < kHeaderSize) return LegacyStatus::kNeedMore;
  Reader r(buf);
  std::uint32_t magic = 0, payload_len = 0, crc = 0;
  std::uint16_t reserved = 0;
  std::uint8_t version = 0, kind = 0;
  r.u32(&magic);
  r.u8(&version);
  r.u8(&kind);
  r.u16(&reserved);
  r.u32(&payload_len);
  r.u32(&crc);
  if (magic != kMagic || version != kVersion || reserved != 0 ||
      !frame_kind_valid(kind)) {
    return LegacyStatus::kBadHeader;
  }
  if (buf.size() - kHeaderSize < payload_len) return LegacyStatus::kNeedMore;
  const std::string_view payload = buf.substr(kHeaderSize, payload_len);
  if (crc32(payload) != crc) return LegacyStatus::kBadCrc;
  out->kind = static_cast<FrameKind>(kind);
  out->payload.assign(payload);
  return LegacyStatus::kOk;
}

obs::TraceContext sampled_ctx() {
  obs::TraceContext ctx;
  ctx.trace_id = 0x1122334455667788ULL;
  ctx.span_id = 0x99AABBCCDDEEFF00ULL;
  ctx.sampled = true;
  return ctx;
}

TEST(TraceContextWireTest, UntracedFramesAreByteIdenticalToLegacy) {
  const std::string payload = "plain old payload";
  const std::string plain = encode_frame(FrameKind::kFetchRequest, payload);
  // The context overload with an invalid (empty) context emits the same
  // bytes as the plain encoder.
  const std::string via_ctx =
      encode_frame(FrameKind::kFetchRequest, payload, obs::TraceContext{});
  EXPECT_EQ(plain, via_ctx);

  LegacyFrame legacy;
  ASSERT_EQ(legacy_decode(plain, &legacy), LegacyStatus::kOk);
  EXPECT_EQ(legacy.kind, FrameKind::kFetchRequest);
  EXPECT_EQ(legacy.payload, payload);

  const DecodeResult modern = decode_frame(plain);
  ASSERT_EQ(modern.status, DecodeStatus::kOk);
  EXPECT_EQ(modern.frame.payload, payload);
  EXPECT_FALSE(modern.frame.trace.valid());
}

TEST(TraceContextWireTest, TracedFrameRoundTripsUnderNewDecoder) {
  const obs::TraceContext ctx = sampled_ctx();
  for (const std::string& payload :
       {std::string{}, std::string{"body"}, std::string(64 << 10, 'x')}) {
    const std::string bytes =
        encode_frame(FrameKind::kFetchResponse, payload, ctx);
    ASSERT_EQ(bytes.size(), kHeaderSize + kTraceContextSize + payload.size());
    const DecodeResult result = decode_frame(bytes);
    ASSERT_EQ(result.status, DecodeStatus::kOk);
    EXPECT_EQ(result.frame.kind, FrameKind::kFetchResponse);
    EXPECT_EQ(result.frame.payload, payload);
    EXPECT_EQ(result.frame.trace, ctx);
    EXPECT_EQ(result.consumed, bytes.size());
  }
}

TEST(TraceContextWireTest, LegacyDecoderRejectsTracedFramesCleanly) {
  // An old receiver must refuse (and resync via its framing error path), not
  // misread 17 context bytes as payload.
  const std::string bytes =
      encode_frame(FrameKind::kFetchRequest, "payload", sampled_ctx());
  LegacyFrame legacy;
  EXPECT_EQ(legacy_decode(bytes, &legacy), LegacyStatus::kBadHeader);
}

TEST(TraceContextWireTest, UnsampledContextStillRoundTrips) {
  // The transports never put unsampled contexts on the wire, but the frame
  // layer itself must be able to carry one faithfully.
  obs::TraceContext ctx = sampled_ctx();
  ctx.sampled = false;
  const std::string bytes = encode_frame(FrameKind::kPeerFetch, "k", ctx);
  const DecodeResult result = decode_frame(bytes);
  ASSERT_EQ(result.status, DecodeStatus::kOk);
  EXPECT_EQ(result.frame.trace, ctx);
  EXPECT_FALSE(result.frame.trace.sampled);
}

/// Hand-builds a frame with an arbitrary trace-context region (the CRC is
/// computed the way the encoder would, so only the tc_len/payload split is
/// unusual).
std::string raw_frame(FrameKind kind, std::string_view tc_bytes,
                      std::string_view payload) {
  std::string region(tc_bytes);
  region.append(payload.data(), payload.size());
  const std::uint16_t tc_len = static_cast<std::uint16_t>(tc_bytes.size());
  Writer w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u16(tc_len);
  w.u32(static_cast<std::uint32_t>(region.size()));
  std::uint32_t crc = 0;
  if (tc_len == 0) {
    crc = crc32(region);
  } else {
    const std::uint8_t len_le[2] = {static_cast<std::uint8_t>(tc_len & 0xff),
                                    static_cast<std::uint8_t>(tc_len >> 8)};
    crc = crc32_update(crc32({len_le, 2}),
                       {reinterpret_cast<const std::uint8_t*>(region.data()),
                        region.size()});
  }
  w.u32(crc);
  std::string out = w.take();
  out.append(region);
  return out;
}

TEST(TraceContextWireTest, ShortContextBlocksAreSkippedNotMisparsed) {
  // A nonzero block shorter than this version's 17 bytes yields no context,
  // but the payload split must still be honored.
  for (std::size_t short_len = 1; short_len < kTraceContextSize; ++short_len) {
    const std::string tc(short_len, '\x5A');
    const std::string bytes = raw_frame(FrameKind::kHello, tc, "payload");
    const DecodeResult result = decode_frame(bytes);
    ASSERT_EQ(result.status, DecodeStatus::kOk) << "tc_len " << short_len;
    EXPECT_EQ(result.frame.payload, "payload");
    EXPECT_FALSE(result.frame.trace.valid());
  }
}

TEST(TraceContextWireTest, LongerContextBlocksKeepTheirPrefix) {
  // Forward compatibility: a newer sender may append fields to the block;
  // this version parses its 17-byte prefix and ignores the rest.
  const obs::TraceContext ctx = sampled_ctx();
  Writer tc;
  tc.u64(ctx.trace_id);
  tc.u64(ctx.span_id);
  tc.u8(1);
  std::string block = tc.take();
  block += "future-fields";
  const std::string bytes = raw_frame(FrameKind::kBye, block, "tail");
  const DecodeResult result = decode_frame(bytes);
  ASSERT_EQ(result.status, DecodeStatus::kOk);
  EXPECT_EQ(result.frame.payload, "tail");
  EXPECT_EQ(result.frame.trace, ctx);
}

TEST(TraceContextWireTest, ContextLongerThanPayloadRejected) {
  std::string bytes = encode_frame(FrameKind::kHello, "");
  // Claim one context byte in an empty payload region.
  bytes[6] = 1;
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kBadTraceContext);
}

TEST(TraceContextWireTest, EveryBitFlipOfTracedFrameIsDetectedOrKindOnly) {
  // The traced twin of FrameTest.EveryBitFlipIsDetectedOrKindOnly: with a
  // context on board, flips in tc_len, the context bytes, and the payload
  // must all be caught; only kind-byte flips may still decode.
  const std::string payload = "the quick brown fox";
  const obs::TraceContext ctx = sampled_ctx();
  const std::string original =
      encode_frame(FrameKind::kFetchRequest, payload, ctx);
  for (std::size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = original;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      const DecodeResult result = decode_frame(flipped);
      if (result.status == DecodeStatus::kOk) {
        EXPECT_EQ(byte, 5u) << "flip at byte " << byte << " bit " << bit;
        EXPECT_EQ(result.frame.payload, payload);
        EXPECT_EQ(result.frame.trace, ctx);
      }
    }
  }
}

TEST(TraceContextWireTest, FuzzedContextBytesNeverCrashOrCorrupt) {
  baps::SplitMix64 rng(0x7AACEu);
  for (int iter = 0; iter < 512; ++iter) {
    const std::size_t tc_len = rng.next() % 64;
    const std::size_t payload_len = rng.next() % 64;
    std::string tc(tc_len, '\0');
    for (auto& c : tc) c = static_cast<char>(rng.next() & 0xFF);
    std::string payload(payload_len, '\0');
    for (auto& c : payload) c = static_cast<char>(rng.next() & 0xFF);
    const std::string bytes = raw_frame(FrameKind::kFetchRequest, tc, payload);
    const DecodeResult result = decode_frame(bytes);
    // Well-formed CRC, arbitrary context bytes: must decode with the exact
    // payload, never crash, never leak context bytes into the payload.
    ASSERT_EQ(result.status, DecodeStatus::kOk) << "iteration " << iter;
    EXPECT_EQ(result.frame.payload, payload);
  }
}

TEST(TraceContextWireTest, FuzzedWholeFramesNeverDecodeToWrongPayload) {
  // Random mutations of a valid traced frame: any mutation that still
  // decodes must deliver the original payload (kind flips aside, nothing
  // mutable is outside the CRC).
  const std::string payload = "guarded payload bytes";
  const std::string original =
      encode_frame(FrameKind::kIndexUpdate, payload, sampled_ctx());
  baps::SplitMix64 rng(0xBEEFu);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = original;
    const int mutations = 1 + static_cast<int>(rng.next() % 3);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.next() % mutated.size();
      mutated[pos] = static_cast<char>(rng.next() & 0xFF);
    }
    const DecodeResult result = decode_frame(mutated);
    if (result.status == DecodeStatus::kOk) {
      EXPECT_EQ(result.frame.payload, payload) << "iteration " << iter;
    }
  }
}

}  // namespace
}  // namespace baps::wire
