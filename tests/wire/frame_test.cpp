#include "wire/frame.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.hpp"
#include "wire/crc32.hpp"

namespace baps::wire {
namespace {

TEST(Crc32Test, KnownVectors) {
  // The classic IEEE CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  std::uint32_t crc = 0;
  for (char c : data) {
    const auto byte = static_cast<std::uint8_t>(c);
    crc = crc32_update(crc, {&byte, 1});
  }
  EXPECT_EQ(crc, crc32(data));
}

TEST(FrameTest, RoundTripsEveryKind) {
  for (std::uint8_t k = kMinFrameKind; k <= kMaxFrameKind; ++k) {
    const auto kind = static_cast<FrameKind>(k);
    const std::string payload = "payload-" + frame_kind_name(kind);
    const std::string bytes = encode_frame(kind, payload);
    ASSERT_EQ(bytes.size(), kHeaderSize + payload.size());

    const DecodeResult result = decode_frame(bytes);
    ASSERT_EQ(result.status, DecodeStatus::kOk) << frame_kind_name(kind);
    EXPECT_EQ(result.frame.kind, kind);
    EXPECT_EQ(result.frame.payload, payload);
    EXPECT_EQ(result.consumed, bytes.size());
  }
}

TEST(FrameTest, RoundTripsEmptyAndLargePayloads) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{64 << 10}}) {
    std::string payload(n, '\0');
    for (std::size_t i = 0; i < n; ++i) {
      payload[i] = static_cast<char>(i * 131 + 7);
    }
    const std::string bytes = encode_frame(FrameKind::kFetchResponse, payload);
    const DecodeResult result = decode_frame(bytes);
    ASSERT_EQ(result.status, DecodeStatus::kOk) << "payload size " << n;
    EXPECT_EQ(result.frame.payload, payload);
  }
}

TEST(FrameTest, EveryTruncationAsksForMore) {
  const std::string bytes = encode_frame(FrameKind::kHello, "0123456789");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const DecodeResult result = decode_frame(std::string_view(bytes).substr(0, len));
    EXPECT_EQ(result.status, DecodeStatus::kNeedMore) << "prefix " << len;
    EXPECT_EQ(result.consumed, 0u);
  }
}

TEST(FrameTest, RejectsBadMagic) {
  std::string bytes = encode_frame(FrameKind::kBye, "");
  bytes[0] = 'X';
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kBadMagic);
}

TEST(FrameTest, RejectsBadVersion) {
  std::string bytes = encode_frame(FrameKind::kBye, "");
  for (const int version : {kVersion - 1, kVersion + 1}) {
    bytes[4] = static_cast<char>(version);
    EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kBadVersion)
        << version;
  }
}

TEST(FrameTest, RejectsTraceContextLongerThanPayload) {
  // The once-reserved u16 at offset 6 is now the trace-context length; a
  // frame whose trace context claims more bytes than the payload region
  // holds is structurally broken, whatever its CRC says.
  std::string bytes = encode_frame(FrameKind::kBye, "");
  bytes[6] = 1;
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kBadTraceContext);
}

TEST(FrameTest, RejectsUnknownKinds) {
  for (std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{17}, std::uint8_t{255}}) {
    std::string bytes = encode_frame(FrameKind::kBye, "");
    bytes[5] = static_cast<char>(bad);
    EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kBadKind)
        << "kind " << static_cast<int>(bad);
  }
}

TEST(FrameTest, RejectsOversizedBeforeReadingPayload) {
  // A header-only buffer claiming a 4 GiB payload must be rejected outright,
  // not answered with kNeedMore — otherwise a hostile peer could demand a
  // bottomless read / allocation.
  std::string bytes = encode_frame(FrameKind::kFetchResponse, "x");
  bytes[8] = '\xFF';
  bytes[9] = '\xFF';
  bytes[10] = '\xFF';
  bytes[11] = '\xFF';
  bytes.resize(kHeaderSize);
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kOversized);
}

TEST(FrameTest, HonorsCustomPayloadCeiling) {
  const std::string bytes = encode_frame(FrameKind::kFetchRequest, "0123456789");
  EXPECT_EQ(decode_frame(bytes, /*max_payload=*/10).status, DecodeStatus::kOk);
  EXPECT_EQ(decode_frame(bytes, /*max_payload=*/9).status,
            DecodeStatus::kOversized);
}

TEST(FrameTest, RejectsCorruptedPayload) {
  std::string bytes = encode_frame(FrameKind::kPeerDeliver, "watermarked body");
  bytes[kHeaderSize + 3] = static_cast<char>(bytes[kHeaderSize + 3] ^ 0x20);
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kBadCrc);
}

TEST(FrameTest, EveryBitFlipIsDetectedOrKindOnly) {
  // Flip every single bit of a valid frame. The only flips that may still
  // decode are in the kind byte (offset 5) landing on another valid kind —
  // the payload is CRC-protected and everything else is structurally
  // validated. Nothing may crash, and no flip may corrupt the payload
  // silently.
  const std::string payload = "the quick brown fox jumps over the lazy dog";
  const std::string original = encode_frame(FrameKind::kFetchRequest, payload);
  for (std::size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = original;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      const DecodeResult result = decode_frame(flipped);
      if (result.status == DecodeStatus::kOk) {
        EXPECT_EQ(byte, 5u) << "flip at byte " << byte << " bit " << bit
                            << " decoded despite not being the kind byte";
        EXPECT_EQ(result.frame.payload, payload);
      }
    }
  }
}

TEST(FrameTest, RandomJunkNeverDecodes) {
  baps::SplitMix64 rng(0xF4A11u);
  for (int iter = 0; iter < 512; ++iter) {
    const std::size_t len = rng.next() % 96;
    std::string junk(len, '\0');
    for (std::size_t i = 0; i < len; ++i) {
      junk[i] = static_cast<char>(rng.next() & 0xFF);
    }
    const DecodeResult result = decode_frame(junk);
    EXPECT_NE(result.status, DecodeStatus::kOk) << "iteration " << iter;
  }
}

TEST(FrameTest, StreamingDecodeConsumesBackToBackFrames) {
  const std::string first = encode_frame(FrameKind::kHello, "aa");
  const std::string second = encode_frame(FrameKind::kBye, "");
  std::string buffer = first + second;

  DecodeResult r1 = decode_frame(buffer);
  ASSERT_EQ(r1.status, DecodeStatus::kOk);
  EXPECT_EQ(r1.frame.kind, FrameKind::kHello);
  EXPECT_EQ(r1.consumed, first.size());

  buffer.erase(0, r1.consumed);
  DecodeResult r2 = decode_frame(buffer);
  ASSERT_EQ(r2.status, DecodeStatus::kOk);
  EXPECT_EQ(r2.frame.kind, FrameKind::kBye);
  EXPECT_EQ(r2.consumed, buffer.size());
}

}  // namespace
}  // namespace baps::wire
