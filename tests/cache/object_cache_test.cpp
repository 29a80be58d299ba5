#include "cache/object_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::cache {
namespace {

TEST(ObjectCacheTest, InsertThenTouchHits) {
  ObjectCache c(1000, PolicyKind::kLru);
  EXPECT_TRUE(c.insert(1, 100));
  EXPECT_EQ(c.touch(1), std::optional<std::uint64_t>(100));
  EXPECT_EQ(c.used_bytes(), 100u);
  EXPECT_EQ(c.count(), 1u);
}

TEST(ObjectCacheTest, MissReturnsNullopt) {
  ObjectCache c(1000, PolicyKind::kLru);
  EXPECT_EQ(c.touch(7), std::nullopt);
}

TEST(ObjectCacheTest, EvictsLruVictimsUntilFit) {
  ObjectCache c(300, PolicyKind::kLru);
  c.insert(1, 100);
  c.insert(2, 100);
  c.insert(3, 100);
  c.touch(1);          // heat doc 1; 2 is now coldest
  c.insert(4, 150);    // must evict 2 and 3
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_FALSE(c.contains(3));
  EXPECT_TRUE(c.contains(4));
  EXPECT_EQ(c.used_bytes(), 250u);
}

TEST(ObjectCacheTest, OversizedDocumentIsNotCached) {
  ObjectCache c(100, PolicyKind::kLru);
  c.insert(1, 50);
  EXPECT_FALSE(c.insert(2, 101));
  EXPECT_TRUE(c.contains(1));  // nothing evicted for the failed insert
  EXPECT_EQ(c.used_bytes(), 50u);
}

TEST(ObjectCacheTest, ExactCapacityFits) {
  ObjectCache c(100, PolicyKind::kLru);
  EXPECT_TRUE(c.insert(1, 100));
  EXPECT_EQ(c.used_bytes(), 100u);
}

TEST(ObjectCacheTest, DoubleInsertThrows) {
  ObjectCache c(100, PolicyKind::kLru);
  c.insert(1, 10);
  EXPECT_THROW(c.insert(1, 10), baps::InvariantError);
}

TEST(ObjectCacheTest, EraseFreesBytes) {
  ObjectCache c(100, PolicyKind::kLru);
  c.insert(1, 60);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_EQ(c.used_bytes(), 0u);
  EXPECT_TRUE(c.insert(2, 100));
}

TEST(ObjectCacheTest, PeekDoesNotDisturbRecency) {
  ObjectCache c(200, PolicyKind::kLru);
  c.insert(1, 100);
  c.insert(2, 100);
  // Peeking doc 1 must not heat it: the next insert still evicts doc 1.
  EXPECT_EQ(c.peek_size(1), std::optional<std::uint64_t>(100));
  c.insert(3, 100);
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
}

TEST(ObjectCacheTest, MoveConstructionFoldsEachEventOnce) {
  // Every event a cache counts reaches `cache_*_total{policy}` exactly
  // once: the moved-to cache folds it when it dies, the moved-from one
  // folds nothing.
  auto& reg = obs::Registry::global();
  const auto total = [&](const char* name) {
    return reg.counter(name, {{"policy", policy_name(PolicyKind::kGdsf)}})
        .value();
  };
  const std::uint64_t inserts = total("cache_insertions_total");
  const std::uint64_t hits = total("cache_hits_total");
  {
    auto source = std::make_unique<ObjectCache>(1000, PolicyKind::kGdsf);
    ASSERT_TRUE(source->insert(1, 100));
    ASSERT_TRUE(source->insert(2, 100));
    ASSERT_TRUE(source->touch(1).has_value());
    ObjectCache target(std::move(*source));
    EXPECT_EQ(target.stats().insertions, 2u);
    EXPECT_EQ(source->stats().insertions, 0u);
    source.reset();
    EXPECT_EQ(total("cache_insertions_total"), inserts);
  }
  EXPECT_EQ(total("cache_insertions_total"), inserts + 2);
  EXPECT_EQ(total("cache_hits_total"), hits + 1);
}

TEST(ObjectCacheTest, EvictionCallbackGetsCapacityVictimsOnly) {
  ObjectCache c(100, PolicyKind::kLru);
  std::vector<std::pair<DocId, std::uint64_t>> evicted;
  const auto on_evict = [&](DocId d, std::uint64_t s) {
    EXPECT_FALSE(c.contains(d));  // the victim is gone when it is handed over
    evicted.emplace_back(d, s);
  };
  c.insert(1, 60, on_evict);
  c.insert(2, 60, on_evict);  // evicts 1
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (std::pair<DocId, std::uint64_t>{1, 60}));
  EXPECT_FALSE(c.insert(3, 101, on_evict));  // rejected before evicting
  c.erase(2);  // explicit erase: no callback
  EXPECT_EQ(evicted.size(), 1u);
  EXPECT_EQ(c.used_bytes(), 0u);
}

TEST(ObjectCacheTest, SizeChangeHandledByCaller) {
  // The simulator's rule: a hit on a size-changed doc is a miss; the stale
  // copy is replaced. The cache provides the primitives.
  ObjectCache c(1000, PolicyKind::kLru);
  c.insert(1, 100);
  const auto cached = c.touch(1);
  ASSERT_TRUE(cached.has_value());
  const std::uint64_t new_size = 150;
  ASSERT_NE(*cached, new_size);
  c.erase(1);
  c.insert(1, new_size);
  EXPECT_EQ(c.peek_size(1), std::optional<std::uint64_t>(150));
  EXPECT_EQ(c.used_bytes(), 150u);
}

class CacheAccountingProperty : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(CacheAccountingProperty, BytesNeverExceedCapacityUnderChurn) {
  ObjectCache c(50'000, GetParam());
  baps::Xoshiro256 rng(11);
  std::uint64_t evicted_bytes = 0;
  std::uint64_t evicted_count = 0;
  const auto on_evict = [&](DocId, std::uint64_t s) {
    evicted_bytes += s;
    ++evicted_count;
  };
  std::uint64_t inserted_bytes = 0, erased_bytes = 0, rejected = 0;
  for (int i = 0; i < 20'000; ++i) {
    const DocId d = rng.below(5'000);
    const double u = rng.uniform();
    if (u < 0.6) {
      if (!c.contains(d)) {
        const std::uint64_t s = 1 + rng.below(3'000);
        if (c.insert(d, s, on_evict)) {
          inserted_bytes += s;
        } else {
          ++rejected;
        }
      } else {
        c.touch(d);
      }
    } else if (u < 0.8) {
      c.touch(d);
    } else if (const auto s = c.peek_size(d); s && c.erase(d)) {
      erased_bytes += *s;
    }
    ASSERT_LE(c.used_bytes(), c.capacity_bytes());
  }
  // Conservation: bytes in = bytes resident + bytes evicted + bytes erased.
  EXPECT_EQ(inserted_bytes, c.used_bytes() + evicted_bytes + erased_bytes);
  EXPECT_EQ(rejected, 0u);  // sizes are all below capacity here
  EXPECT_GT(evicted_count, 0u);
  EXPECT_EQ(evicted_count, c.stats().evictions);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CacheAccountingProperty,
                         ::testing::ValuesIn(kAllPolicies),
                         [](const auto& param_info) {
                           return policy_name(param_info.param);
                         });

}  // namespace
}  // namespace baps::cache
