#include "index/summary_index.hpp"

#include "util/assert.hpp"

namespace baps::index {

SummaryIndex::SummaryIndex(std::uint32_t num_clients,
                           std::uint64_t expected_docs_per_client,
                           double target_fp_rate) {
  BAPS_REQUIRE(num_clients > 0, "summary index needs at least one client");
  filters_.reserve(num_clients);
  for (std::uint32_t i = 0; i < num_clients; ++i) {
    filters_.push_back(CountingBloomFilter::sized_for(
        expected_docs_per_client, target_fp_rate));
  }
}

void SummaryIndex::add(ClientId client, DocId doc) {
  BAPS_REQUIRE(client < filters_.size(), "client id out of range");
  filters_[client].add(doc);
}

void SummaryIndex::remove(ClientId client, DocId doc) {
  BAPS_REQUIRE(client < filters_.size(), "client id out of range");
  filters_[client].remove(doc);
}

std::optional<ClientId> SummaryIndex::find_candidate(
    DocId doc, ClientId requester) const {
  const std::size_t n = filters_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto candidate = static_cast<ClientId>((rr_ + i) % n);
    if (candidate == requester) continue;
    if (filters_[candidate].maybe_contains(doc)) {
      rr_ = (rr_ + i + 1) % n;
      return candidate;
    }
  }
  return std::nullopt;
}

std::uint64_t SummaryIndex::byte_size() const {
  std::uint64_t total = 0;
  for (const auto& f : filters_) total += f.byte_size();
  return total;
}

}  // namespace baps::index
