#include "cache/tiered_cache.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::cache {
namespace {

TEST(TieredCacheTest, MemoryTierIsFractionOfCapacity) {
  TieredCache c(1000, 0.1, PolicyKind::kLru);
  EXPECT_EQ(c.capacity_bytes(), 1000u);
  EXPECT_EQ(c.memory_capacity_bytes(), 100u);
}

TEST(TieredCacheTest, RejectsBadFraction) {
  EXPECT_THROW(TieredCache(1000, 0.0, PolicyKind::kLru),
               baps::InvariantError);
  EXPECT_THROW(TieredCache(1000, 1.5, PolicyKind::kLru),
               baps::InvariantError);
}

TEST(TieredCacheTest, FreshInsertHitsInMemory) {
  TieredCache c(1000, 0.1, PolicyKind::kLru);
  c.insert(1, 50);
  const auto hit = c.touch(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tier, HitTier::kMemory);
  EXPECT_EQ(hit->size, 50u);
}

TEST(TieredCacheTest, ColdDocumentHitsOnDiskThenPromotes) {
  TieredCache c(1000, 0.1, PolicyKind::kLru);  // memory = 100 bytes
  c.insert(1, 80);
  c.insert(2, 80);  // pushes 1 out of the 100-byte memory tier
  const auto first = c.touch(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tier, HitTier::kDisk);
  const auto second = c.touch(1);  // promoted by the first touch
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tier, HitTier::kMemory);
}

TEST(TieredCacheTest, DocumentLargerThanMemoryTierServesFromDisk) {
  TieredCache c(1000, 0.1, PolicyKind::kLru);
  c.insert(1, 500);  // bigger than the 100-byte memory tier
  const auto hit = c.touch(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tier, HitTier::kDisk);
}

TEST(TieredCacheTest, TieringNeverChangesHitDecisions) {
  // The same access stream against a TieredCache and a plain ObjectCache of
  // equal capacity must produce identical hit/miss outcomes.
  TieredCache tiered(10'000, 0.1, PolicyKind::kLru);
  ObjectCache flat(10'000, PolicyKind::kLru);
  baps::Xoshiro256 rng(3);
  for (int i = 0; i < 20'000; ++i) {
    const DocId d = rng.below(400);
    const auto t = tiered.touch(d);
    const auto f = flat.touch(d);
    ASSERT_EQ(t.has_value(), f.has_value()) << "step " << i;
    if (!t) {
      const std::uint64_t s = 1 + rng.below(500);
      ASSERT_EQ(tiered.insert(d, s), flat.insert(d, s));
    }
  }
}

TEST(TieredCacheTest, EvictionFromFullCacheAlsoEvictsMemory) {
  TieredCache c(200, 0.5, PolicyKind::kLru);  // memory = 100
  c.insert(1, 90);
  c.insert(2, 90);  // both fit on disk; 1 pushed from memory by 2
  c.insert(3, 90);  // disk evicts 1 entirely
  EXPECT_FALSE(c.contains(1));
  const auto hit = c.touch(2);
  ASSERT_TRUE(hit.has_value());
}

TEST(TieredCacheTest, EvictionCallbackGetsFullCacheVictims) {
  TieredCache c(100, 0.5, PolicyKind::kLru);
  std::vector<std::pair<DocId, std::uint64_t>> evicted;
  const auto on_evict = [&](DocId d, std::uint64_t s) {
    EXPECT_FALSE(c.contains(d));
    evicted.emplace_back(d, s);
  };
  c.insert(1, 40, on_evict);
  c.insert(2, 40, on_evict);  // pushes 1 out of the 50-byte memory tier only
  EXPECT_TRUE(evicted.empty());
  c.insert(3, 80, on_evict);  // the full cache evicts 1, then 2
  EXPECT_EQ(evicted,
            (std::vector<std::pair<DocId, std::uint64_t>>{{1, 40}, {2, 40}}));
}

TEST(TieredCacheTest, EraseRemovesFromBothTiers) {
  TieredCache c(1000, 0.5, PolicyKind::kLru);
  c.insert(1, 50);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.contains(1));
  EXPECT_FALSE(c.touch(1).has_value());
  EXPECT_FALSE(c.erase(1));
}

TEST(TieredCacheTest, MemoryHitShareGrowsWithMemoryFraction) {
  // Sanity for the §4.2 experiment: a larger RAM share must serve a larger
  // share of hit bytes from memory on the same access stream.
  const auto memory_hit_share = [](double fraction) {
    TieredCache c(20'000, fraction, PolicyKind::kLru);
    baps::Xoshiro256 rng(9);
    std::uint64_t mem = 0, total = 0;
    for (int i = 0; i < 30'000; ++i) {
      const DocId d = rng.below(300);
      if (const auto hit = c.touch(d)) {
        ++total;
        if (hit->tier == HitTier::kMemory) ++mem;
      } else {
        c.insert(d, 1 + rng.below(200));
      }
    }
    return static_cast<double>(mem) / static_cast<double>(total);
  };
  EXPECT_GT(memory_hit_share(0.5), memory_hit_share(0.05) + 0.05);
}

}  // namespace
}  // namespace baps::cache
