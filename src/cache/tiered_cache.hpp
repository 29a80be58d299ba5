// Two-tier (memory / disk) cache model for the paper's §4.2 memory-byte-hit
// experiment.
//
// The paper models the RAM-resident portion of each cache as 1/10 of its
// size (following Rousskov & Soloviev's Squid measurements). We realize that
// as a small LRU "memory" cache layered over the full cache: a hit that
// lands in the memory tier is served at RAM speed, any other hit at disk
// speed, and hits promote the document into the memory tier (standard
// inclusive staging). Overall hit/miss behaviour is decided *only* by the
// full cache, so tiering never changes hit ratios — just where the bytes
// are served from. A document the full cache evicts leaves the memory tier
// in the same step, before insert() hands it to the caller's callback.
#pragma once

#include <cstdint>
#include <optional>

#include "cache/object_cache.hpp"

namespace baps::cache {

enum class HitTier { kMemory, kDisk };

struct TieredLookup {
  std::uint64_t size = 0;
  HitTier tier = HitTier::kDisk;
};

/// Result of the single-probe touch_expected path.
struct TieredProbe {
  LookupOutcome outcome = LookupOutcome::kMiss;
  HitTier tier = HitTier::kDisk;  ///< meaningful only when outcome == kHit
};

class TieredCache {
 public:
  /// memory_fraction of the capacity is RAM (paper: 0.1).
  TieredCache(std::uint64_t capacity_bytes, double memory_fraction,
              PolicyKind policy);

  std::uint64_t capacity_bytes() const { return full_.capacity_bytes(); }
  std::uint64_t memory_capacity_bytes() const {
    return memory_.capacity_bytes();
  }
  std::uint64_t used_bytes() const { return full_.used_bytes(); }
  std::size_t count() const { return full_.count(); }

  bool contains(DocId doc) const { return full_.contains(doc); }

  /// Capacity hint (expected resident docs in the full cache): pre-sizes
  /// both tiers' tables so replay never rehashes. The memory tier holds a
  /// fraction of the documents; a quarter of the hint is generous.
  void reserve(std::size_t docs);
  std::optional<std::uint64_t> peek_size(DocId doc) const {
    return full_.peek_size(doc);
  }

  /// Lookup with tier attribution; promotes disk hits into the memory tier.
  std::optional<TieredLookup> touch(DocId doc) {
    const auto size = full_.touch(doc);
    if (!size) return std::nullopt;
    if (memory_.touch(doc)) {
      return TieredLookup{*size, HitTier::kMemory};
    }
    // Disk hit: stage into RAM (may displace colder memory-tier residents).
    if (*size <= memory_.capacity_bytes()) {
      memory_.insert(doc, *size);
    }
    return TieredLookup{*size, HitTier::kDisk};
  }

  /// Single-probe lookup for callers that know the size they expect (the
  /// replay hot path): a hit at `expected` behaves exactly like touch(), a
  /// size mismatch reports kStale without touching recency in either tier,
  /// a miss probes the full cache once. Same event sequence as
  /// peek_size-then-touch, minus the duplicate probe.
  TieredProbe touch_expected(DocId doc, std::uint64_t expected) {
    const LookupOutcome outcome = full_.touch_expected(doc, expected);
    if (outcome != LookupOutcome::kHit) {
      return TieredProbe{outcome, HitTier::kDisk};
    }
    if (memory_.touch(doc)) {
      return TieredProbe{LookupOutcome::kHit, HitTier::kMemory};
    }
    if (expected <= memory_.capacity_bytes()) {
      memory_.insert(doc, expected);
    }
    return TieredProbe{LookupOutcome::kHit, HitTier::kDisk};
  }

  /// Inserts into both tiers (a freshly fetched document passes through
  /// RAM). Each document the full cache evicts to make room leaves the
  /// memory tier too, then goes to `on_evict(doc, size)`, in eviction order.
  template <typename OnEvict>
  bool insert(DocId doc, std::uint64_t size, OnEvict&& on_evict) {
    const auto evicted = [&](DocId victim, std::uint64_t victim_size) {
      memory_.erase(victim);
      on_evict(victim, victim_size);
    };
    if (!full_.insert(doc, size, evicted)) return false;
    if (size <= memory_.capacity_bytes() && !memory_.contains(doc)) {
      memory_.insert(doc, size);
    }
    return true;
  }
  bool insert(DocId doc, std::uint64_t size) {
    return insert(doc, size, [](DocId, std::uint64_t) {});
  }

  bool erase(DocId doc) {
    memory_.erase(doc);
    return full_.erase(doc);
  }

  /// Exposes the underlying full cache for iteration. Read-only: the memory
  /// tier follows only changes made through this class.
  const ObjectCache& full() const { return full_; }

 private:
  ObjectCache full_;
  ObjectCache memory_;
};

}  // namespace baps::cache
