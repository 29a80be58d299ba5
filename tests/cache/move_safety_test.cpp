// Moved caches keep working: a TieredCache or ExpiringCache that is
// move-constructed from another, whose source is then destroyed, must keep its own bookkeeping in step with its full cache on
// every later eviction. Nothing in a cache may point back at the object it
// was moved from; under ASan a stale self-pointer shows up here as a
// heap-use-after-free on the first eviction after the move.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/expiring_cache.hpp"
#include "cache/tiered_cache.hpp"

namespace baps::cache {
namespace {

// Caches move-construct only; assigning over a live cache does not compile.
static_assert(std::is_move_constructible_v<TieredCache>);
static_assert(!std::is_move_assignable_v<TieredCache>);
static_assert(std::is_move_constructible_v<ExpiringCache>);
static_assert(!std::is_move_assignable_v<ExpiringCache>);

using Victims = std::vector<std::pair<DocId, std::uint64_t>>;

/// Docs 1, 2, 3 of 30 bytes in a 100-byte FIFO cache whose memory tier is
/// as large as the cache. Touching 1 makes it the memory tier's most recent
/// entry while it stays the full cache's first victim.
std::unique_ptr<TieredCache> three_doc_tiered() {
  auto c = std::make_unique<TieredCache>(100, 1.0, PolicyKind::kFifo);
  c->insert(1, 30);
  c->insert(2, 30);
  c->insert(3, 30);
  EXPECT_EQ(c->touch(1)->tier, HitTier::kMemory);
  return c;
}

void expect_tiers_follow_full_cache(TieredCache& c) {
  Victims evicted;
  const auto on_evict = [&](DocId d, std::uint64_t s) {
    EXPECT_FALSE(c.contains(d));
    evicted.emplace_back(d, s);
  };
  ASSERT_TRUE(c.insert(4, 30, on_evict));  // the full cache evicts 1
  EXPECT_EQ(evicted, (Victims{{1, 30}}));
  // 1 left the memory tier with the full cache, so 2, 3 and 4 fit in RAM.
  // Had 1 stayed there, admitting 4 would have pushed 2 out.
  EXPECT_EQ(c.touch(2)->tier, HitTier::kMemory);
  EXPECT_EQ(c.touch(3)->tier, HitTier::kMemory);
  EXPECT_EQ(c.touch(4)->tier, HitTier::kMemory);

  for (DocId d = 5; d < 25; ++d) ASSERT_TRUE(c.insert(d, 30, on_evict));
  // FIFO: every insert from 4 on evicted the oldest resident document.
  ASSERT_EQ(evicted.size(), 21u);
  for (DocId d = 1; d <= 21; ++d) {
    EXPECT_EQ(evicted[d - 1], (std::pair<DocId, std::uint64_t>{d, 30}));
  }
  EXPECT_EQ(c.count(), 3u);
  EXPECT_EQ(c.used_bytes(), 90u);
  for (DocId d = 22; d < 25; ++d) {
    EXPECT_EQ(c.touch(d)->tier, HitTier::kMemory) << "doc " << d;
  }
}

TEST(MoveSafetyTest, MoveConstructedTieredCacheKeepsTiersInStep) {
  std::unique_ptr<TieredCache> source = three_doc_tiered();
  TieredCache c(std::move(*source));
  source.reset();
  expect_tiers_follow_full_cache(c);
}

/// Docs 1, 2, 3 of 30 bytes in a 100-byte LRU cache, expiring at 10, 20 and
/// 30 seconds.
std::unique_ptr<ExpiringCache> three_doc_expiring() {
  auto c = std::make_unique<ExpiringCache>(100, PolicyKind::kLru);
  c->insert(1, 30, 10.0);
  c->insert(2, 30, 20.0);
  c->insert(3, 30, 30.0);
  return c;
}

void expect_expiry_follows_cache(ExpiringCache& c) {
  Victims evicted;
  const auto on_evict = [&](DocId d, std::uint64_t s) {
    EXPECT_FALSE(c.contains(d, 0.0));
    EXPECT_EQ(c.ttl_remaining(d, 0.0), std::nullopt);
    evicted.emplace_back(d, s);
  };
  ASSERT_TRUE(c.insert(4, 30, 40.0, on_evict));  // evicts 1
  EXPECT_EQ(evicted, (Victims{{1, 30}}));
  EXPECT_EQ(c.ttl_remaining(2, 0.0), std::optional<double>(20.0));
  EXPECT_EQ(c.ttl_remaining(4, 0.0), std::optional<double>(40.0));

  // A re-inserted victim carries only its new expiry.
  ASSERT_TRUE(c.insert(1, 30, 50.0, on_evict));  // evicts 2
  EXPECT_EQ(evicted, (Victims{{1, 30}, {2, 30}}));
  EXPECT_EQ(c.ttl_remaining(1, 0.0), std::optional<double>(50.0));

  std::vector<DocId> expired;
  const auto on_expire = [&](DocId d) { expired.push_back(d); };
  EXPECT_EQ(c.touch(3, 35.0, on_expire), std::nullopt);  // expired at 30
  EXPECT_EQ(c.touch(1, 35.0, on_expire), std::optional<std::uint64_t>(30));
  EXPECT_EQ(expired, std::vector<DocId>{3});
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.used_bytes(), 60u);

  for (DocId d = 5; d < 10; ++d) {
    ASSERT_TRUE(c.insert(d, 30, 100.0, on_evict));
  }
  // LRU order from here: 4, 1 (touched at 35), then 5, 6.
  EXPECT_EQ(evicted, (Victims{{1, 30}, {2, 30}, {4, 30}, {1, 30}, {5, 30},
                              {6, 30}}));
  for (DocId d = 7; d < 10; ++d) {
    EXPECT_EQ(c.ttl_remaining(d, 0.0), std::optional<double>(100.0));
  }
}

TEST(MoveSafetyTest, MoveConstructedExpiringCacheKeepsExpiryInStep) {
  std::unique_ptr<ExpiringCache> source = three_doc_expiring();
  ExpiringCache c(std::move(*source));
  source.reset();
  expect_expiry_follows_cache(c);
}

}  // namespace
}  // namespace baps::cache
