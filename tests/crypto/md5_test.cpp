#include "crypto/md5.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace baps::crypto {
namespace {

// Reference MD5: the library's original loop-form block function (per-round
// branches, `% 16` message indexing, byte-wise word loads) over a message
// padded in one piece. The unrolled block function is checked against it.
constexpr std::uint32_t kRefShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

constexpr std::uint32_t kRefSine[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

std::uint32_t ref_rotl(std::uint32_t x, std::uint32_t n) {
  return (x << n) | (x >> (32 - n));
}

void ref_process_block(const std::uint8_t* block, std::uint32_t state[4]) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 8) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 3]) << 24);
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::uint32_t f;
    std::uint32_t g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    const std::uint32_t tmp = d;
    d = c;
    c = b;
    b = b + ref_rotl(a + f + kRefSine[i] + m[g], kRefShift[i]);
    a = tmp;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
}

Md5Digest ref_md5(const std::string& msg) {
  // 0x80, zeros to 56 mod 64, then the 64-bit little-endian bit length.
  std::vector<std::uint8_t> padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    padded.push_back(static_cast<std::uint8_t>(bit_len >> (8 * i)));
  }
  std::uint32_t state[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    ref_process_block(padded.data() + off, state);
  }
  Md5Digest out;
  for (std::size_t i = 0; i < 16; ++i) {
    out.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

// Bytes that vary with position, so a word loaded from the wrong offset or in
// the wrong byte order changes the digest.
std::string patterned(std::size_t len) {
  std::string msg(len, '\0');
  for (std::size_t i = 0; i < len; ++i) {
    msg[i] = static_cast<char>((i * 131 + (i >> 8) * 7 + 17) & 0xff);
  }
  return msg;
}

// RFC 1321 appendix A.5 test suite.
TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(md5("").hex(), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(md5("a").hex(), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(md5("abc").hex(), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(md5("message digest").hex(), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(md5("abcdefghijklmnopqrstuvwxyz").hex(),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      md5("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")
          .hex(),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(md5("1234567890123456789012345678901234567890123456789012345678"
                "9012345678901234567890")
                .hex(),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Md5 h;
  // Deliberately awkward chunk sizes to cross block boundaries.
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 63u, 64u, 65u, 7u, 128u}) {
    const std::size_t n = std::min(chunk, msg.size() - off);
    h.update(std::string_view(msg).substr(off, n));
    off += n;
  }
  h.update(std::string_view(msg).substr(off));
  EXPECT_EQ(h.finish().hex(), md5(msg).hex());
}

TEST(Md5Test, AllLengthsZeroTo130AgreeWithPaddingRule) {
  // Property: for every message length around the 64-byte block boundary the
  // incremental digest (byte at a time) equals the one-shot digest.
  for (std::size_t len = 0; len <= 130; ++len) {
    std::string msg(len, static_cast<char>('A' + (len % 26)));
    Md5 h;
    for (char c : msg) h.update(std::string_view(&c, 1));
    EXPECT_EQ(h.finish(), md5(msg)) << "length " << len;
  }
}

TEST(Md5Test, DigestDistinguishesNearbyInputs) {
  EXPECT_NE(md5("hello world"), md5("hello worle"));
  EXPECT_NE(md5(""), md5(std::string(1, '\0')));
}

TEST(Md5Test, FinishTwiceThrows) {
  Md5 h;
  h.update("abc");
  (void)h.finish();
  EXPECT_THROW(h.finish(), InvariantError);
}

TEST(Md5Test, UpdateAfterFinishThrows) {
  Md5 h;
  (void)h.finish();
  EXPECT_THROW(h.update("x"), InvariantError);
}

TEST(Md5Test, MatchesLoopReferenceForEveryLengthTo4096) {
  const std::string all = patterned(4096);
  for (std::size_t len = 0; len <= all.size(); ++len) {
    const std::string msg = all.substr(0, len);
    ASSERT_EQ(md5(msg), ref_md5(msg)) << "length " << len;
  }
}

TEST(Md5Test, IncrementalMatchesLoopReferenceAtEverySplit) {
  const std::string msg = patterned(200);
  const Md5Digest expected = ref_md5(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Md5 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    ASSERT_EQ(h.finish(), expected) << "split at " << split;
  }
}

TEST(Md5DigestTest, Prefix64IsLittleEndianOfFirstEightBytes) {
  Md5Digest d;
  for (std::size_t i = 0; i < d.bytes.size(); ++i) {
    d.bytes[i] = static_cast<std::uint8_t>(i + 1);
  }
  EXPECT_EQ(d.prefix64(), 0x0807060504030201ULL);
}

TEST(Md5DigestTest, UsableAsUnorderedMapKey) {
  std::unordered_map<Md5Digest, int> m;
  m[md5("a")] = 1;
  m[md5("b")] = 2;
  EXPECT_EQ(m.at(md5("a")), 1);
  EXPECT_EQ(m.at(md5("b")), 2);
}

}  // namespace
}  // namespace baps::crypto
