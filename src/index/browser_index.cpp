#include "index/browser_index.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace baps::index {

BrowserIndex::BrowserIndex(std::uint32_t num_clients, DocId doc_universe,
                           const std::vector<std::uint32_t>& client_doc_hints)
    : per_client_(num_clients) {
  BAPS_REQUIRE(num_clients > 0, "index needs at least one client");
  if (doc_universe > 0) {
    by_doc_.resize(doc_universe);
    rr_by_doc_.resize(doc_universe, 0);
  }
  for (std::uint32_t c = 0;
       c < std::min<std::size_t>(num_clients, client_doc_hints.size()); ++c) {
    per_client_[c].reserve(client_doc_hints[c]);
  }
}

std::vector<ClientId> BrowserIndex::holders(DocId doc) const {
  const HolderList* holders =
      doc < by_doc_.size() ? &by_doc_[doc] : sparse_.find(doc);
  if (holders == nullptr) return {};
  return std::vector<ClientId>(holders->begin(), holders->end());
}

std::uint64_t BrowserIndex::client_entry_count(ClientId client) const {
  BAPS_REQUIRE(client < per_client_.size(), "client id out of range");
  return per_client_[client].size();
}

void BrowserIndex::clear() {
  for (auto& holders : by_doc_) holders.clear();
  sparse_ = util::FlatMap<HolderList>();
  for (auto& set : per_client_) set.clear();
  entries_ = 0;
  std::fill(rr_by_doc_.begin(), rr_by_doc_.end(), 0u);
  sparse_rr_ = util::FlatMap<std::uint32_t>();
}

}  // namespace baps::index
