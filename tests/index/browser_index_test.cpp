#include "index/browser_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/assert.hpp"

namespace baps::index {
namespace {

TEST(BrowserIndexTest, RejectsZeroClients) {
  EXPECT_THROW(BrowserIndex(0), baps::InvariantError);
}

TEST(BrowserIndexTest, AddThenHolds) {
  BrowserIndex idx(4);
  idx.add(1, 100);
  EXPECT_TRUE(idx.holds(1, 100));
  EXPECT_FALSE(idx.holds(2, 100));
  EXPECT_FALSE(idx.holds(1, 101));
  EXPECT_EQ(idx.entry_count(), 1u);
}

TEST(BrowserIndexTest, AddIsIdempotent) {
  BrowserIndex idx(4);
  idx.add(1, 100);
  idx.add(1, 100);
  EXPECT_EQ(idx.entry_count(), 1u);
  EXPECT_EQ(idx.holders(100).size(), 1u);
}

TEST(BrowserIndexTest, RemoveIsIdempotent) {
  BrowserIndex idx(4);
  idx.add(1, 100);
  idx.remove(1, 100);
  idx.remove(1, 100);
  EXPECT_FALSE(idx.holds(1, 100));
  EXPECT_EQ(idx.entry_count(), 0u);
  EXPECT_TRUE(idx.holders(100).empty());
}

TEST(BrowserIndexTest, FindHolderExcludesRequester) {
  BrowserIndex idx(4);
  idx.add(2, 100);
  EXPECT_EQ(idx.find_holder(100, 1), std::optional<ClientId>(2));
  // The only holder is the requester itself → no remote hit.
  EXPECT_EQ(idx.find_holder(100, 2), std::nullopt);
}

TEST(BrowserIndexTest, FindHolderOnUnknownDocIsEmpty) {
  BrowserIndex idx(4);
  EXPECT_EQ(idx.find_holder(999, 0), std::nullopt);
}

TEST(BrowserIndexTest, RoundRobinSpreadsAcrossHolders) {
  BrowserIndex idx(5);
  idx.add(1, 100);
  idx.add(2, 100);
  idx.add(3, 100);
  std::set<ClientId> seen;
  for (int i = 0; i < 12; ++i) {
    const auto h = idx.find_holder(100, 0);
    ASSERT_TRUE(h.has_value());
    EXPECT_NE(*h, 0u);
    seen.insert(*h);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three holders get picked
}

// The round-robin cursor is per-document: interleaving lookups of other
// docs must not perturb a doc's own holder rotation. This is what makes
// holder choice a pure function of that doc's lookup history, and the
// golden metrics pin the holders it picks.
TEST(BrowserIndexTest, RoundRobinIsPerDocument) {
  const auto sequence = [](bool interleave) {
    BrowserIndex idx(8, /*doc_universe=*/0);  // sparse path
    for (ClientId c = 1; c <= 3; ++c) idx.add(c, 100);
    for (ClientId c = 4; c <= 6; ++c) idx.add(c, 200);
    std::vector<ClientId> picks;
    for (int i = 0; i < 9; ++i) {
      if (interleave) idx.find_holder(200, 0);
      picks.push_back(*idx.find_holder(100, 0));
    }
    return picks;
  };
  EXPECT_EQ(sequence(false), sequence(true));

  // Same property on the dense (in-universe) path.
  const auto dense_sequence = [](bool interleave) {
    BrowserIndex idx(8, /*doc_universe=*/512);
    for (ClientId c = 1; c <= 3; ++c) idx.add(c, 100);
    for (ClientId c = 4; c <= 6; ++c) idx.add(c, 200);
    std::vector<ClientId> picks;
    for (int i = 0; i < 9; ++i) {
      if (interleave) idx.find_holder(200, 0);
      picks.push_back(*idx.find_holder(100, 0));
    }
    return picks;
  };
  EXPECT_EQ(dense_sequence(false), dense_sequence(true));
}

// When a doc's holder list empties its cursor resets, so a re-populated
// doc starts its rotation from scratch — the index behaves as if the doc
// entry were brand new (same on dense and sparse paths).
TEST(BrowserIndexTest, CursorResetsWhenDocEmpties) {
  BrowserIndex idx(8, /*doc_universe=*/512);
  idx.add(1, 100);
  idx.add(2, 100);
  const ClientId first = *idx.find_holder(100, 0);
  idx.find_holder(100, 0);  // advance the cursor
  idx.remove(1, 100);
  idx.remove(2, 100);
  idx.add(1, 100);
  idx.add(2, 100);
  EXPECT_EQ(*idx.find_holder(100, 0), first);
}

TEST(BrowserIndexTest, MultiDocMultiClientBookkeeping) {
  BrowserIndex idx(3);
  idx.add(0, 1);
  idx.add(0, 2);
  idx.add(1, 1);
  idx.add(2, 3);
  EXPECT_EQ(idx.entry_count(), 4u);
  EXPECT_EQ(idx.client_entry_count(0), 2u);
  EXPECT_EQ(idx.client_entry_count(1), 1u);
  auto h = idx.holders(1);
  std::sort(h.begin(), h.end());
  EXPECT_EQ(h, (std::vector<ClientId>{0, 1}));
  idx.remove(0, 1);
  EXPECT_EQ(idx.holders(1), std::vector<ClientId>{1});
}

TEST(BrowserIndexTest, OutOfRangeClientThrows) {
  BrowserIndex idx(2);
  EXPECT_THROW(idx.add(2, 1), baps::InvariantError);
  EXPECT_THROW(idx.remove(5, 1), baps::InvariantError);
  EXPECT_THROW(idx.holds(2, 1), baps::InvariantError);
  EXPECT_THROW(idx.client_entry_count(2), baps::InvariantError);
}

}  // namespace
}  // namespace baps::index
