// TTL-aware object cache. The paper's browser index carries "a time stamp
// of the file or the TTL (Time To Live) provided by the data source" (§2);
// this cache models the client side of that: every cached document records
// an expiry time, lookups are made against a clock, and an expired entry is
// a miss, reclaimed by the lookup that finds it. Supports the consistency
// experiments where origin-assigned TTLs bound how stale a shared browser
// copy can be.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>

#include "cache/object_cache.hpp"
#include "util/assert.hpp"

namespace baps::cache {

class ExpiringCache {
 public:
  static constexpr double kNeverExpires =
      std::numeric_limits<double>::infinity();

  ExpiringCache(std::uint64_t capacity_bytes, PolicyKind policy)
      : cache_(capacity_bytes, policy) {}

  std::uint64_t capacity_bytes() const { return cache_.capacity_bytes(); }
  std::uint64_t used_bytes() const { return cache_.used_bytes(); }
  std::size_t count() const { return cache_.count(); }

  /// True iff resident AND unexpired at `now`. Pure query.
  bool contains(DocId doc, double now) const;
  std::optional<std::uint64_t> peek_size(DocId doc, double now) const;

  /// Recency-touching lookup at time `now`. An expired entry is reclaimed,
  /// handed to `on_expire(doc)`, and the lookup misses.
  template <typename OnExpire>
  std::optional<std::uint64_t> touch(DocId doc, double now,
                                     OnExpire&& on_expire) {
    if (!cache_.contains(doc)) return std::nullopt;
    if (expired(doc, now)) {
      expires_.erase(doc);
      cache_.erase(doc);
      on_expire(doc);
      return std::nullopt;
    }
    return cache_.touch(doc);
  }
  std::optional<std::uint64_t> touch(DocId doc, double now) {
    return touch(doc, now, [](DocId) {});
  }

  /// Inserts with an absolute expiry time (kNeverExpires for none). Each
  /// capacity victim, expired or not, loses its expiry record and then goes
  /// to `on_evict(doc, size)`, in eviction order.
  template <typename OnEvict>
  bool insert(DocId doc, std::uint64_t size, double expires_at,
              OnEvict&& on_evict) {
    BAPS_REQUIRE(!cache_.contains(doc),
                 "insert of resident doc — erase it first");
    const auto evicted = [&](DocId victim, std::uint64_t victim_size) {
      expires_.erase(victim);
      on_evict(victim, victim_size);
    };
    if (!cache_.insert(doc, size, evicted)) return false;
    expires_[doc] = expires_at;
    return true;
  }
  bool insert(DocId doc, std::uint64_t size, double expires_at) {
    return insert(doc, size, expires_at, [](DocId, std::uint64_t) {});
  }

  bool erase(DocId doc);

  /// Remaining lifetime at `now`; nullopt if absent or already expired.
  std::optional<double> ttl_remaining(DocId doc, double now) const;

 private:
  bool expired(DocId doc, double now) const;

  ObjectCache cache_;
  std::unordered_map<DocId, double> expires_;
};

}  // namespace baps::cache
