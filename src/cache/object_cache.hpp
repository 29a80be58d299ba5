// Byte-capacity object cache: the building block for browser caches and the
// proxy cache in every simulated organization.
//
// Semantics follow the paper's simulator (§3.2):
//  * capacity is in bytes; inserting evicts policy-chosen victims until the
//    new document fits;
//  * a document larger than the whole cache is not cached at all;
//  * each resident document records the size it was cached at, so the
//    simulator can detect "hit on a document whose size has changed" and
//    count it as a miss.
//
// insert() hands each capacity victim to a caller-supplied callback as it
// leaves, so the browsers-aware index can send the paper's invalidation
// message when a browser cache replaces a document.
#pragma once

#include <cstdint>
#include <optional>

#include "cache/lru.hpp"
#include "cache/policy.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"

namespace baps::cache {

/// Outcome of a single-probe lookup that knows the size the caller expects.
enum class LookupOutcome : std::uint8_t {
  kMiss,   ///< not resident
  kHit,    ///< resident at the expected size (recency touched)
  kStale,  ///< resident at a different size (recency NOT touched)
};

class ObjectCache {
 public:
  /// Per-cache event counters. Plain integers (the cache is single-threaded,
  /// like the simulations that own it); the destructor folds them into the
  /// global obs registry as `cache_*_total{policy=...}` counters, so sweeps
  /// report per-policy insert/eviction totals without hot-path atomics.
  struct Stats {
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;  ///< capacity evictions only
    std::uint64_t erases = 0;     ///< explicit invalidations
    std::uint64_t hits = 0;       ///< recency-touching lookups that hit
    std::uint64_t rejected_too_large = 0;
  };

  ObjectCache(std::uint64_t capacity_bytes, PolicyKind policy);
  ~ObjectCache();

  ObjectCache(const ObjectCache&) = delete;
  ObjectCache& operator=(const ObjectCache&) = delete;
  // A move transfers the stats (and zeroes the source) so each event is
  // flushed to the registry exactly once. Move construction is all a vector
  // of caches needs; there is no move-assignment, so TieredCache and
  // ExpiringCache have none either.
  ObjectCache(ObjectCache&& other) noexcept;
  ObjectCache& operator=(ObjectCache&&) = delete;

  std::uint64_t capacity_bytes() const { return capacity_; }
  std::uint64_t used_bytes() const { return used_; }
  std::size_t count() const { return entries_.size(); }
  PolicyKind policy() const { return kind_; }

  bool contains(DocId doc) const { return entries_.contains(doc); }

  /// Capacity hint: pre-sizes the entry table and the policy's storage for
  /// up to `docs` resident documents, so trace replay never rehashes
  /// mid-run. Call before the first insert (typically from TraceStats).
  void reserve(std::size_t docs);

  /// Size the document was cached at, without touching recency state.
  std::optional<std::uint64_t> peek_size(DocId doc) const {
    const std::uint64_t* size = entries_.find(doc);
    if (size == nullptr) return std::nullopt;
    return *size;
  }

  /// Recency-touching lookup: returns the cached size on hit, nullopt on
  /// miss. The *caller* decides whether a size mismatch is a miss (and then
  /// calls erase + insert), because that decision carries metric weight.
  std::optional<std::uint64_t> touch(DocId doc) {
    const std::uint64_t* size = entries_.find(doc);
    if (size == nullptr) return std::nullopt;
    policy_on_hit(doc, *size);
    ++stats_.hits;
    return *size;
  }

  /// Single-probe equivalent of peek_size-then-touch for the replay hot
  /// path: hits at `expected` touch recency, a size mismatch reports kStale
  /// without touching anything (the caller then erases), misses probe once.
  LookupOutcome touch_expected(DocId doc, std::uint64_t expected) {
    const std::uint64_t* size = entries_.find(doc);
    if (size == nullptr) return LookupOutcome::kMiss;
    if (*size != expected) return LookupOutcome::kStale;
    policy_on_hit(doc, expected);
    ++stats_.hits;
    return LookupOutcome::kHit;
  }

  /// Inserts (doc, size), evicting policy-chosen victims until it fits and
  /// calling `on_evict(victim, size)` for each, in eviction order, once the
  /// victim is gone. Returns false (and caches nothing, evicts nothing) if
  /// size exceeds capacity. Re-inserting a resident doc is a programming
  /// error — erase first. A template so call-site lambdas inline.
  template <typename OnEvict>
  bool insert(DocId doc, std::uint64_t size, OnEvict&& on_evict) {
    if (size > capacity_) {
      ++stats_.rejected_too_large;
      return false;
    }
    while (used_ + size > capacity_) {
      const Evicted victim = evict_one();
      on_evict(victim.doc, victim.size);
    }
    admit(doc, size);
    return true;
  }
  bool insert(DocId doc, std::uint64_t size) {
    return insert(doc, size, [](DocId, std::uint64_t) {});
  }

  /// Removes a document; returns false if absent. Explicit erases are
  /// invalidations the caller already knows about, so nothing is notified.
  bool erase(DocId doc) {
    std::uint64_t size = 0;
    if (!entries_.erase(doc, &size)) return false;
    used_ -= size;
    if (lru_ != nullptr) {
      lru_->on_remove(doc);
    } else {
      policy_->on_remove(doc);
    }
    ++stats_.erases;
    return true;
  }

  const Stats& stats() const { return stats_; }

  /// Iterates resident documents (order unspecified).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    entries_.for_each([&](DocId doc, std::uint64_t size) { fn(doc, size); });
  }

 private:
  // The replay hot path runs LRU caches almost exclusively; lru_ caches the
  // downcast of policy_ so on_hit/on_insert/pop_victim inline here instead
  // of going through virtual dispatch. Null for every other policy kind.
  void policy_on_hit(DocId doc, std::uint64_t size) {
    if (lru_ != nullptr) {
      lru_->on_hit(doc, size);
    } else {
      policy_->on_hit(doc, size);
    }
  }

  struct Evicted {
    DocId doc;
    std::uint64_t size;
  };

  // Defined out of line and shared by every insert instantiation, so each
  // caller's callback adds a few instructions, not a copy of the table and
  // policy updates. Inlined copies used up GCC's per-file inlining budget
  // in sim/orgs.cpp and pushed the lookup path out of line (replay ~8 %
  // slower on two organizations).
  Evicted evict_one();
  void admit(DocId doc, std::uint64_t size);
  /// Adds stats_ to the registry's `cache_*_total{policy}` counters (a
  /// no-op when nothing was counted); the destructor calls it.
  void fold_stats();

  std::uint64_t capacity_;
  PolicyKind kind_;
  std::unique_ptr<EvictionPolicy> policy_;
  LruPolicy* lru_ = nullptr;  // == policy_.get() iff kind_ == kLru
  util::FlatMap<std::uint64_t> entries_;  // doc -> cached size
  std::uint64_t used_ = 0;
  Stats stats_;
};

}  // namespace baps::cache
