// Bloom filters, the compression technique the paper cites (Fan et al.'s
// Summary Cache, and URL-table compression) for shrinking the browser index
// when exact MD5 directories are too big.
//
// CountingBloomFilter: 4-bit counters supporting remove — what a proxy needs
// because browser caches evict constantly.
//
// Hashing: double hashing h_i(x) = h1(x) + i*h2(x) (Kirsch–Mitzenmacher)
// over SplitMix64-derived values; independence is plenty for the accuracy
// the index needs, and it keeps membership checks allocation-free.
#pragma once

#include <cstdint>
#include <vector>

namespace baps::index {

class CountingBloomFilter {
 public:
  /// m counters, k hash functions. Prefer sized_for() to pick them.
  CountingBloomFilter(std::uint64_t counters, unsigned hashes);

  /// Filter dimensioned for `expected_items` at `target_fp_rate`.
  static CountingBloomFilter sized_for(std::uint64_t expected_items,
                                       double target_fp_rate);

  void add(std::uint64_t key);
  /// Decrements the key's counters. Removing a key that was never added
  /// corrupts the filter (standard counting-Bloom caveat) — callers must
  /// pair adds and removes.
  void remove(std::uint64_t key);
  bool maybe_contains(std::uint64_t key) const;

  std::uint64_t counter_count() const { return counters_; }
  unsigned hash_count() const { return hashes_; }
  /// 4 bits per counter, the Summary Cache recommendation.
  std::uint64_t byte_size() const { return (counters_ + 1) / 2; }
  std::uint64_t items() const { return items_; }
  /// True if any counter has ever saturated at 15 (further removes on such
  /// a counter could under-count; Summary Cache shows this is rare).
  bool overflowed() const { return overflowed_; }

 private:
  std::uint64_t counter_index(std::uint64_t key, unsigned i) const;
  std::uint8_t get(std::uint64_t idx) const;
  void set(std::uint64_t idx, std::uint8_t v);

  std::uint64_t counters_;
  unsigned hashes_;
  std::vector<std::uint8_t> nibbles_;  // two counters per byte
  std::uint64_t items_ = 0;
  bool overflowed_ = false;
};

}  // namespace baps::index
