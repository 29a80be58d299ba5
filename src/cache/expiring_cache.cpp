#include "cache/expiring_cache.hpp"

#include "util/assert.hpp"

namespace baps::cache {

bool ExpiringCache::expired(DocId doc, double now) const {
  const auto it = expires_.find(doc);
  return it != expires_.end() && it->second <= now;
}

bool ExpiringCache::contains(DocId doc, double now) const {
  return cache_.contains(doc) && !expired(doc, now);
}

std::optional<std::uint64_t> ExpiringCache::peek_size(DocId doc,
                                                      double now) const {
  if (!contains(doc, now)) return std::nullopt;
  return cache_.peek_size(doc);
}

bool ExpiringCache::erase(DocId doc) {
  expires_.erase(doc);
  return cache_.erase(doc);
}

std::optional<double> ExpiringCache::ttl_remaining(DocId doc,
                                                   double now) const {
  if (!cache_.contains(doc)) return std::nullopt;
  const auto it = expires_.find(doc);
  BAPS_ENSURE(it != expires_.end(), "resident doc missing expiry record");
  if (it->second <= now) return std::nullopt;
  return it->second - now;
}

}  // namespace baps::cache
