#include "crypto/md5.hpp"

#include <bit>
#include <cstring>

#include "util/assert.hpp"
#include "util/hex.hpp"

namespace baps::crypto {
namespace {

// The four RFC 1321 round steps, a = b + ((a + f(b, c, d) + x + k) <<< s),
// with each round function written as an expression. F and G use the
// equivalent select forms d ^ (b & (c ^ d)) and c ^ (d & (b ^ c)).
constexpr void ff(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d, std::uint32_t x, int s, std::uint32_t k) {
  a = b + std::rotl(a + (d ^ (b & (c ^ d))) + x + k, s);
}
constexpr void gg(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d, std::uint32_t x, int s, std::uint32_t k) {
  a = b + std::rotl(a + (c ^ (d & (b ^ c))) + x + k, s);
}
constexpr void hh(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d, std::uint32_t x, int s, std::uint32_t k) {
  a = b + std::rotl(a + (b ^ c ^ d) + x + k, s);
}
constexpr void ii(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d, std::uint32_t x, int s, std::uint32_t k) {
  a = b + std::rotl(a + (c ^ (b | ~d)) + x + k, s);
}

}  // namespace

Md5::Md5() : state_{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476} {}

// All 64 steps of RFC 1321 §3.4 written out, with the shift amounts and the
// sine table K[i] = floor(2^32 * |sin(i + 1)|) inline.
void Md5::process_block(const std::uint8_t* block) {
  // Message words are little-endian, as is every host the library targets.
  static_assert(std::endian::native == std::endian::little);
  std::uint32_t x[16];
  std::memcpy(x, block, sizeof x);
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  ff(a, b, c, d, x[0], 7, 0xd76aa478);
  ff(d, a, b, c, x[1], 12, 0xe8c7b756);
  ff(c, d, a, b, x[2], 17, 0x242070db);
  ff(b, c, d, a, x[3], 22, 0xc1bdceee);
  ff(a, b, c, d, x[4], 7, 0xf57c0faf);
  ff(d, a, b, c, x[5], 12, 0x4787c62a);
  ff(c, d, a, b, x[6], 17, 0xa8304613);
  ff(b, c, d, a, x[7], 22, 0xfd469501);
  ff(a, b, c, d, x[8], 7, 0x698098d8);
  ff(d, a, b, c, x[9], 12, 0x8b44f7af);
  ff(c, d, a, b, x[10], 17, 0xffff5bb1);
  ff(b, c, d, a, x[11], 22, 0x895cd7be);
  ff(a, b, c, d, x[12], 7, 0x6b901122);
  ff(d, a, b, c, x[13], 12, 0xfd987193);
  ff(c, d, a, b, x[14], 17, 0xa679438e);
  ff(b, c, d, a, x[15], 22, 0x49b40821);

  gg(a, b, c, d, x[1], 5, 0xf61e2562);
  gg(d, a, b, c, x[6], 9, 0xc040b340);
  gg(c, d, a, b, x[11], 14, 0x265e5a51);
  gg(b, c, d, a, x[0], 20, 0xe9b6c7aa);
  gg(a, b, c, d, x[5], 5, 0xd62f105d);
  gg(d, a, b, c, x[10], 9, 0x02441453);
  gg(c, d, a, b, x[15], 14, 0xd8a1e681);
  gg(b, c, d, a, x[4], 20, 0xe7d3fbc8);
  gg(a, b, c, d, x[9], 5, 0x21e1cde6);
  gg(d, a, b, c, x[14], 9, 0xc33707d6);
  gg(c, d, a, b, x[3], 14, 0xf4d50d87);
  gg(b, c, d, a, x[8], 20, 0x455a14ed);
  gg(a, b, c, d, x[13], 5, 0xa9e3e905);
  gg(d, a, b, c, x[2], 9, 0xfcefa3f8);
  gg(c, d, a, b, x[7], 14, 0x676f02d9);
  gg(b, c, d, a, x[12], 20, 0x8d2a4c8a);

  hh(a, b, c, d, x[5], 4, 0xfffa3942);
  hh(d, a, b, c, x[8], 11, 0x8771f681);
  hh(c, d, a, b, x[11], 16, 0x6d9d6122);
  hh(b, c, d, a, x[14], 23, 0xfde5380c);
  hh(a, b, c, d, x[1], 4, 0xa4beea44);
  hh(d, a, b, c, x[4], 11, 0x4bdecfa9);
  hh(c, d, a, b, x[7], 16, 0xf6bb4b60);
  hh(b, c, d, a, x[10], 23, 0xbebfbc70);
  hh(a, b, c, d, x[13], 4, 0x289b7ec6);
  hh(d, a, b, c, x[0], 11, 0xeaa127fa);
  hh(c, d, a, b, x[3], 16, 0xd4ef3085);
  hh(b, c, d, a, x[6], 23, 0x04881d05);
  hh(a, b, c, d, x[9], 4, 0xd9d4d039);
  hh(d, a, b, c, x[12], 11, 0xe6db99e5);
  hh(c, d, a, b, x[15], 16, 0x1fa27cf8);
  hh(b, c, d, a, x[2], 23, 0xc4ac5665);

  ii(a, b, c, d, x[0], 6, 0xf4292244);
  ii(d, a, b, c, x[7], 10, 0x432aff97);
  ii(c, d, a, b, x[14], 15, 0xab9423a7);
  ii(b, c, d, a, x[5], 21, 0xfc93a039);
  ii(a, b, c, d, x[12], 6, 0x655b59c3);
  ii(d, a, b, c, x[3], 10, 0x8f0ccc92);
  ii(c, d, a, b, x[10], 15, 0xffeff47d);
  ii(b, c, d, a, x[1], 21, 0x85845dd1);
  ii(a, b, c, d, x[8], 6, 0x6fa87e4f);
  ii(d, a, b, c, x[15], 10, 0xfe2ce6e0);
  ii(c, d, a, b, x[6], 15, 0xa3014314);
  ii(b, c, d, a, x[13], 21, 0x4e0811a1);
  ii(a, b, c, d, x[4], 6, 0xf7537e82);
  ii(d, a, b, c, x[11], 10, 0xbd3af235);
  ii(c, d, a, b, x[2], 15, 0x2ad7d2bb);
  ii(b, c, d, a, x[9], 21, 0xeb86d391);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) {
  BAPS_REQUIRE(!finished_, "Md5::update after finish");
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Md5::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Md5Digest Md5::finish() {
  BAPS_REQUIRE(!finished_, "Md5::finish called twice");
  finished_ = true;
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80 then zeros to 56 mod 64, then the 64-bit little-endian
  // message length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  finished_ = false;  // allow the padding updates below
  update(std::span<const std::uint8_t>(pad, pad_len));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  total_bytes_ -= pad_len;  // length field reflects the original message only
  update(std::span<const std::uint8_t>(len_bytes, 8));
  finished_ = true;
  BAPS_ENSURE(buffered_ == 0, "md5 padding must end on a block boundary");

  Md5Digest out;
  for (int i = 0; i < 4; ++i) {
    out.bytes[static_cast<std::size_t>(i * 4)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
    out.bytes[static_cast<std::size_t>(i * 4 + 1)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    out.bytes[static_cast<std::size_t>(i * 4 + 2)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    out.bytes[static_cast<std::size_t>(i * 4 + 3)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
  }
  return out;
}

std::string Md5Digest::hex() const {
  return to_hex(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

std::uint64_t Md5Digest::prefix64() const {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | bytes[static_cast<std::size_t>(i)];
  }
  return v;
}

Md5Digest md5(std::span<const std::uint8_t> data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

Md5Digest md5(std::string_view data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

}  // namespace baps::crypto
