#include "index/summary_index.hpp"

#include <gtest/gtest.h>

#include "index/footprint.hpp"
#include "util/assert.hpp"

namespace baps::index {
namespace {

TEST(SummaryIndexTest, FindsRealHolders) {
  SummaryIndex idx(4, 1000, 0.01);
  idx.add(2, 42);
  const auto c = idx.find_candidate(42, 0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, 2u);
}

TEST(SummaryIndexTest, ExcludesRequester) {
  SummaryIndex idx(2, 1000, 0.01);
  idx.add(1, 42);
  EXPECT_EQ(idx.find_candidate(42, 1), std::nullopt);
}

TEST(SummaryIndexTest, RemoveClearsMembership) {
  SummaryIndex idx(2, 1000, 0.01);
  idx.add(0, 7);
  idx.remove(0, 7);
  EXPECT_EQ(idx.find_candidate(7, 1), std::nullopt);
}

TEST(SummaryIndexTest, CandidatesListAllHolders) {
  SummaryIndex idx(5, 1000, 0.001);
  idx.add(1, 9);
  idx.add(3, 9);
  // Successive lookups take turns over the holders, so every holder is
  // named and nobody else is.
  EXPECT_EQ(idx.find_candidate(9, 0), 1u);
  EXPECT_EQ(idx.find_candidate(9, 0), 3u);
  EXPECT_EQ(idx.find_candidate(9, 0), 1u);
}

TEST(SummaryIndexTest, FalseForwardRateTracksTarget) {
  constexpr std::uint32_t kClients = 10;
  constexpr std::uint64_t kDocsPerClient = 2000;
  SummaryIndex idx(kClients, kDocsPerClient, 0.01);
  // Each client holds a disjoint range.
  for (ClientId c = 0; c < kClients; ++c) {
    for (std::uint64_t d = 0; d < kDocsPerClient; ++d) {
      idx.add(c, c * 1'000'000 + d);
    }
  }
  // Probe documents nobody holds; measure how often a candidate appears.
  std::uint64_t false_forwards = 0;
  constexpr std::uint64_t kProbes = 20'000;
  for (std::uint64_t p = 0; p < kProbes; ++p) {
    if (idx.find_candidate(99'000'000 + p, 0).has_value()) ++false_forwards;
  }
  // Probability any of 9 foreign filters fires ≈ 1-(1-p)^9 ≈ 9%.
  const double rate = static_cast<double>(false_forwards) / kProbes;
  EXPECT_LT(rate, 0.25);
  EXPECT_GT(rate, 0.005);
}

TEST(SummaryIndexTest, MemoryFarBelowExactIndex) {
  constexpr std::uint32_t kClients = 100;
  constexpr std::uint64_t kDocs = 12'800;  // 100MB browser / 8KB docs
  SummaryIndex idx(kClients, kDocs, 0.01);
  FootprintParams fp;
  fp.num_clients = kClients;
  fp.browser_cache_bytes = 100ULL << 20;
  fp.avg_doc_bytes = 8ULL << 10;
  const FootprintEstimate est = estimate_footprint(fp);
  EXPECT_LT(idx.byte_size(), est.exact_index_bytes);
}

TEST(FootprintTest, PaperExampleArithmetic) {
  // §5: ~100 clients, ~1K-10K pages per browser, 16-byte MD5 signatures →
  // a whole-index footprint in the tens of MB, and ~2 MB with compression.
  FootprintParams p;  // defaults: 100 clients, 8MB caches, 8KB docs
  const FootprintEstimate e = estimate_footprint(p);
  EXPECT_EQ(e.docs_per_browser, 1024u);
  EXPECT_EQ(e.total_entries, 102'400u);
  EXPECT_EQ(e.exact_index_bytes, 102'400u * 24);
  EXPECT_LT(e.bloom_index_bytes, e.exact_index_bytes / 5);
}

TEST(FootprintTest, RejectsZeroDocSize) {
  FootprintParams p;
  p.avg_doc_bytes = 0;
  EXPECT_THROW(estimate_footprint(p), baps::InvariantError);
}

}  // namespace
}  // namespace baps::index
