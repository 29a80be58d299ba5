// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges.
// Every wire frame carries a CRC of its payload so bit-level corruption —
// a flipped bit on the wire, a tampering middlebox, a short write — is
// detected before the payload is ever interpreted.
//
// Every frame body is checksummed once per codec it crosses (twice for an
// origin reply, four times for a relayed peer hit), so the kernel runs
// slicing-by-8: eight constexpr 256-entry tables (8 KiB) consume eight bytes
// per step, and a bytewise loop takes the tail. It is one portable
// implementation — no CPU dispatch, no intrinsics — and bit-identical to the
// bytewise definition.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace baps::wire {

/// One-shot CRC-32 of a byte range.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Convenience overload for string payloads.
std::uint32_t crc32(std::string_view data);

/// Incremental form: feed `crc` from a previous call (start with 0).
std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::uint8_t> data);

}  // namespace baps::wire
