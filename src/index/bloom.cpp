#include "index/bloom.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::index {
namespace {

/// Two independent 64-bit hashes for double hashing.
struct HashPair {
  std::uint64_t h1;
  std::uint64_t h2;
};

HashPair hash_key(std::uint64_t key) {
  baps::SplitMix64 sm(key ^ 0x5bf03635bd1b79a1ULL);
  const std::uint64_t h1 = sm.next();
  std::uint64_t h2 = sm.next();
  if (h2 == 0) h2 = 0x9E3779B97F4A7C15ULL;  // stride must be nonzero
  return {h1, h2};
}

struct Dimensions {
  std::uint64_t slots;
  unsigned hashes;
};

Dimensions dimension_for(std::uint64_t expected_items, double target_fp) {
  BAPS_REQUIRE(expected_items > 0, "expected_items must be positive");
  BAPS_REQUIRE(target_fp > 0.0 && target_fp < 1.0,
               "target fp rate must be in (0,1)");
  const double n = static_cast<double>(expected_items);
  const double m = std::ceil(-n * std::log(target_fp) /
                             (std::numbers::ln2_v<double> *
                              std::numbers::ln2_v<double>));
  const double k =
      std::max(1.0, std::round(m / n * std::numbers::ln2_v<double>));
  return {static_cast<std::uint64_t>(m), static_cast<unsigned>(k)};
}

}  // namespace

CountingBloomFilter::CountingBloomFilter(std::uint64_t counters,
                                         unsigned hashes)
    : counters_(counters), hashes_(hashes), nibbles_((counters + 1) / 2, 0) {
  BAPS_REQUIRE(counters > 0, "counting bloom needs at least one counter");
  BAPS_REQUIRE(hashes > 0, "counting bloom needs at least one hash");
}

CountingBloomFilter CountingBloomFilter::sized_for(
    std::uint64_t expected_items, double target_fp_rate) {
  const Dimensions d = dimension_for(expected_items, target_fp_rate);
  return CountingBloomFilter(d.slots, d.hashes);
}

std::uint64_t CountingBloomFilter::counter_index(std::uint64_t key,
                                                 unsigned i) const {
  const HashPair h = hash_key(key);
  return (h.h1 + static_cast<std::uint64_t>(i) * h.h2) % counters_;
}

std::uint8_t CountingBloomFilter::get(std::uint64_t idx) const {
  const std::uint8_t byte = nibbles_[idx / 2];
  return (idx % 2 == 0) ? (byte & 0x0F) : (byte >> 4);
}

void CountingBloomFilter::set(std::uint64_t idx, std::uint8_t v) {
  std::uint8_t& byte = nibbles_[idx / 2];
  if (idx % 2 == 0) {
    byte = static_cast<std::uint8_t>((byte & 0xF0) | (v & 0x0F));
  } else {
    byte = static_cast<std::uint8_t>((byte & 0x0F) | (v << 4));
  }
}

void CountingBloomFilter::add(std::uint64_t key) {
  for (unsigned i = 0; i < hashes_; ++i) {
    const std::uint64_t idx = counter_index(key, i);
    const std::uint8_t c = get(idx);
    if (c == 15) {
      overflowed_ = true;  // saturate; do not wrap
    } else {
      set(idx, static_cast<std::uint8_t>(c + 1));
    }
  }
  ++items_;
}

void CountingBloomFilter::remove(std::uint64_t key) {
  BAPS_REQUIRE(items_ > 0, "remove from empty counting bloom");
  for (unsigned i = 0; i < hashes_; ++i) {
    const std::uint64_t idx = counter_index(key, i);
    const std::uint8_t c = get(idx);
    // A zero counter here means an unmatched remove (caller bug) or a prior
    // saturation; leave it at zero rather than wrapping to 15.
    if (c > 0 && c < 15) set(idx, static_cast<std::uint8_t>(c - 1));
  }
  --items_;
}

bool CountingBloomFilter::maybe_contains(std::uint64_t key) const {
  for (unsigned i = 0; i < hashes_; ++i) {
    if (get(counter_index(key, i)) == 0) return false;
  }
  return true;
}

}  // namespace baps::index
