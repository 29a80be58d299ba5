#include "wire/crc32.hpp"

#include <array>
#include <cstddef>

namespace baps::wire {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// kTables[0] is the classic bytewise table. kTables[k][i] is the CRC of byte
// i followed by k zero bytes, so eight lookups — one per byte of a 64-bit
// word, each into the table for that byte's distance from the word's end —
// advance the register by eight bytes at once (slicing-by-8).
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian loads assembled byte by byte: portable, alignment-free, and
// compiled to a single load on little-endian targets.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::uint8_t> data) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_update(0, data);
}

std::uint32_t crc32(std::string_view data) {
  return crc32({reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size()});
}

}  // namespace baps::wire
