#include "wire/frame.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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

// The bytewise definition the sliced kernel must reproduce exactly.
std::uint32_t reference_crc32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 sm(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(sm.next());
  return out;
}

TEST(Crc32Test, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  // Eight spare bytes in front let each length start at every offset mod 8,
  // so the 8-byte steps see every alignment and every tail length.
  const std::vector<std::uint8_t> pool = random_bytes(1100 + 8, 42);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::uint8_t* p = pool.data() + offset;
      ASSERT_EQ(crc32({p, len}), reference_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, UpdateSplitAtEveryOffsetMatchesOneShot) {
  const std::vector<std::uint8_t> data = random_bytes(1100, 7);
  const std::uint32_t whole = crc32({data.data(), data.size()});
  ASSERT_EQ(whole, reference_crc32(data.data(), data.size()));
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = crc32({data.data(), split});
    ASSERT_EQ(crc32_update(head, {data.data() + split, data.size() - split}),
              whole)
        << "split at " << split;
  }
}

TEST(FrameTest, RoundTripsEveryKind) {
  int live = 0;
  for (std::uint8_t k = kMinFrameKind; k <= kMaxFrameKind; ++k) {
    if (!frame_kind_valid(k)) continue;  // a retired number
    ++live;
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
  // The 11 kinds the daemon speaks, plus IndexAck (kept for perfbench).
  EXPECT_EQ(live, 12);
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
  // Never assigned (0, past the last kind) and retired (the version-2
  // Stats, TraceStats and TimeSeries pairs): all are kBadKind, so no remote
  // frame can name a kind frame_kind_name does not know.
  for (const int bad : {0, 9, 10, 13, 14, 15, 16, kMaxFrameKind + 1, 32, 255}) {
    std::string bytes = encode_frame(FrameKind::kBye, "");
    bytes[5] = static_cast<char>(bad);
    EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::kBadKind)
        << "kind " << bad;
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
