#include "cache/object_cache.hpp"

#include <utility>

#include "obs/registry.hpp"

namespace baps::cache {

ObjectCache::ObjectCache(std::uint64_t capacity_bytes, PolicyKind policy)
    : capacity_(capacity_bytes),
      kind_(policy),
      policy_(make_policy(policy)),
      lru_(policy == PolicyKind::kLru ? static_cast<LruPolicy*>(policy_.get())
                                      : nullptr) {}

ObjectCache::~ObjectCache() { fold_stats(); }

void ObjectCache::fold_stats() {
  // Fold this cache's lifetime totals into the per-policy registry family.
  // One resolve+bump per cache teardown keeps the per-operation path free of
  // atomics while sweeps still get exact per-policy accounting.
  if (stats_.insertions == 0 && stats_.evictions == 0 && stats_.erases == 0 &&
      stats_.hits == 0 && stats_.rejected_too_large == 0) {
    return;
  }
  auto& reg = obs::Registry::global();
  const obs::Labels labels = {{"policy", policy_name(kind_)}};
  reg.counter("cache_insertions_total", labels).inc(stats_.insertions);
  reg.counter("cache_evictions_total", labels).inc(stats_.evictions);
  reg.counter("cache_erases_total", labels).inc(stats_.erases);
  reg.counter("cache_hits_total", labels).inc(stats_.hits);
  reg.counter("cache_rejected_too_large_total", labels)
      .inc(stats_.rejected_too_large);
}

ObjectCache::ObjectCache(ObjectCache&& other) noexcept
    : capacity_(other.capacity_),
      kind_(other.kind_),
      policy_(std::move(other.policy_)),
      lru_(other.lru_),
      entries_(std::move(other.entries_)),
      used_(other.used_),
      stats_(other.stats_) {
  other.lru_ = nullptr;
  other.entries_.clear();
  other.used_ = 0;
  other.stats_ = {};
}

ObjectCache::Evicted ObjectCache::evict_one() {
  BAPS_ENSURE(!entries_.empty(), "eviction from empty cache");
  const DocId victim =
      lru_ != nullptr ? lru_->pop_victim() : policy_->pop_victim();
  std::uint64_t size = 0;
  BAPS_ENSURE(entries_.erase(victim, &size), "policy victim not resident");
  used_ -= size;
  ++stats_.evictions;
  return {victim, size};
}

void ObjectCache::admit(DocId doc, std::uint64_t size) {
  BAPS_REQUIRE(entries_.insert(doc, size),
               "insert of resident doc — erase it first");
  used_ += size;
  if (lru_ != nullptr) {
    lru_->on_insert(doc, size);
  } else {
    policy_->on_insert(doc, size);
  }
  ++stats_.insertions;
}

void ObjectCache::reserve(std::size_t docs) {
  entries_.reserve(docs);
  policy_->reserve(docs);
}

}  // namespace baps::cache
