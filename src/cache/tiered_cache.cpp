#include "cache/tiered_cache.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace baps::cache {
namespace {

std::uint64_t memory_bytes(std::uint64_t capacity, double fraction) {
  BAPS_REQUIRE(fraction > 0.0 && fraction <= 1.0,
               "memory fraction must be in (0,1]");
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::llround(static_cast<double>(capacity) * fraction)));
}

}  // namespace

TieredCache::TieredCache(std::uint64_t capacity_bytes, double memory_fraction,
                         PolicyKind policy)
    : full_(capacity_bytes, policy),
      // The memory tier is always recency-managed regardless of the disk
      // policy: RAM staging is an OS page/buffer-cache effect, not a cache
      // replacement decision.
      memory_(memory_bytes(capacity_bytes, memory_fraction), PolicyKind::kLru) {}

void TieredCache::reserve(std::size_t docs) {
  full_.reserve(docs);
  memory_.reserve(docs / 4 + 1);
}

}  // namespace baps::cache
