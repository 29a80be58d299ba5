#include "cache/expiring_cache.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace baps::cache {
namespace {

TEST(ExpiringCacheTest, UnexpiredEntryHits) {
  ExpiringCache c(1000, PolicyKind::kLru);
  c.insert(1, 100, /*expires_at=*/10.0);
  EXPECT_TRUE(c.contains(1, 5.0));
  EXPECT_EQ(c.touch(1, 5.0), std::optional<std::uint64_t>(100));
  EXPECT_EQ(c.ttl_remaining(1, 4.0), std::optional<double>(6.0));
}

TEST(ExpiringCacheTest, ExpiredEntryMissesAndIsReclaimed) {
  ExpiringCache c(1000, PolicyKind::kLru);
  c.insert(1, 100, 10.0);
  DocId expired_doc = 0;
  const auto on_expire = [&](DocId d) { expired_doc = d; };
  EXPECT_EQ(c.touch(1, 9.0, on_expire), std::optional<std::uint64_t>(100));
  EXPECT_EQ(expired_doc, 0u);
  EXPECT_FALSE(c.contains(1, 10.0));  // boundary: expires AT its deadline
  EXPECT_EQ(c.touch(1, 10.0, on_expire), std::nullopt);
  EXPECT_EQ(expired_doc, 1u);
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(c.used_bytes(), 0u);
}

TEST(ExpiringCacheTest, NeverExpiresLivesForever) {
  ExpiringCache c(1000, PolicyKind::kLru);
  c.insert(1, 100, ExpiringCache::kNeverExpires);
  EXPECT_TRUE(c.contains(1, 1e18));
  EXPECT_TRUE(c.ttl_remaining(1, 1e18).has_value());
}

TEST(ExpiringCacheTest, CapacityEvictionDropsExpiryRecord) {
  ExpiringCache c(100, PolicyKind::kLru);
  std::vector<DocId> evicted;
  const auto on_evict = [&](DocId d, std::uint64_t) { evicted.push_back(d); };
  c.insert(1, 80, 100.0, on_evict);
  c.insert(2, 80, 100.0, on_evict);  // evicts 1
  EXPECT_EQ(evicted, std::vector<DocId>{1});
  // Re-inserting doc 1 must not trip the resident-doc precondition.
  EXPECT_TRUE(c.insert(1, 10, 50.0));
  EXPECT_EQ(c.ttl_remaining(1, 0.0), std::optional<double>(50.0));
}

TEST(ExpiringCacheTest, EraseRemovesEverything) {
  ExpiringCache c(1000, PolicyKind::kLru);
  c.insert(1, 100, 10.0);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_TRUE(c.insert(1, 100, 20.0));
}

TEST(ExpiringCacheTest, DoubleInsertThrows) {
  ExpiringCache c(1000, PolicyKind::kLru);
  c.insert(1, 100, 10.0);
  EXPECT_THROW(c.insert(1, 100, 20.0), baps::InvariantError);
}

TEST(ExpiringCacheTest, ExpiryListenerNotFiredForEvictionOrErase) {
  ExpiringCache c(100, PolicyKind::kLru);
  int expiries = 0;
  const auto on_expire = [&](DocId) { ++expiries; };
  c.insert(1, 80, 1000.0);
  c.insert(2, 80, 1000.0);  // capacity-evicts 1
  EXPECT_EQ(c.touch(1, 0.0, on_expire), std::nullopt);
  c.erase(2);
  EXPECT_EQ(c.touch(2, 2000.0, on_expire), std::nullopt);
  EXPECT_EQ(expiries, 0);
}

TEST(ExpiringCacheTest, OversizedInsertRejectedCleanly) {
  ExpiringCache c(50, PolicyKind::kLru);
  EXPECT_FALSE(c.insert(1, 100, 10.0));
  EXPECT_FALSE(c.contains(1, 0.0));
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(c.used_bytes(), 0u);
  EXPECT_EQ(c.ttl_remaining(1, 0.0), std::nullopt);
}

}  // namespace
}  // namespace baps::cache
