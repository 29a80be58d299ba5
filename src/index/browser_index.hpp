// The browser index file (§2): the proxy-resident directory of every
// client's browser-cache contents. Each entry is conceptually
// (client id, URL-digest, timestamp/TTL); here documents are already
// interned, so entries are (client, doc) pairs with the digest footprint
// accounted separately (see index/footprint.hpp).
//
// Two maintenance protocols from the paper:
//  * immediate invalidation — the client tells the proxy on every browser
//    cache insert/replace/delete (accurate view, one message per event);
//  * periodic batch update — each client accumulates a delta and flushes it
//    when the fraction of changed documents crosses a threshold (Fan et
//    al.'s summary-cache delay rule). Between flushes the proxy's view is
//    stale; the simulator measures the resulting hit-ratio degradation and
//    false forwards.
//
// Memory layout: simulation document ids are dense (the Trace constructor
// enforces doc < num_docs), so the doc → holders view for ids inside the
// construction-time universe is a flat table indexed directly by doc id,
// each slot an inline-capacity-2 SmallVector (most docs have 0–2 holders at
// any instant — only popular documents spill to the heap). Ids outside the
// universe — the runtime layer indexes sparse 64-bit URL-digest prefixes,
// and callers may pass doc_universe = 0 — fall back to an open-addressing
// FlatMap of holder lists. The per-client doc sets are open-addressing
// FlatSets. A lookup on the simulation hot path is one array index, no
// hashing at all; sparse ids cost one mixed hash, same as the sets.
//
// This class is the *view* the proxy holds; the update protocols live in
// index/update_protocol.hpp and feed mutations into it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "trace/record.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/small_vector.hpp"

namespace baps::index {

using trace::ClientId;
using trace::DocId;

class BrowserIndex {
 public:
  /// `doc_universe` sizes the flat doc → holders table (pass
  /// Trace::num_docs()); ids at or above it — including everything when 0 —
  /// live in the sparse overflow map. `client_doc_hints` pre-sizes each
  /// client's doc set (pass TraceStats::distinct_docs_per_client; an empty
  /// vector skips the reservation).
  explicit BrowserIndex(std::uint32_t num_clients, DocId doc_universe = 0,
                        const std::vector<std::uint32_t>& client_doc_hints = {});

  std::uint32_t num_clients() const {
    return static_cast<std::uint32_t>(per_client_.size());
  }
  std::uint64_t entry_count() const { return entries_; }

  // add/remove/holds/find_holder run once per simulated request in the
  // index-using organizations; they live here so callers inline them.

  /// Records that `client`'s browser cache now holds `doc`. Idempotent.
  void add(ClientId client, DocId doc) {
    BAPS_REQUIRE(client < per_client_.size(), "client id out of range");
    if (!per_client_[client].insert(doc)) return;  // already indexed
    if (doc < by_doc_.size()) {
      by_doc_[doc].push_back(client);
    } else {
      HolderList* holders = sparse_.find(doc);
      if (holders == nullptr) {
        sparse_.insert(doc, HolderList{});
        holders = sparse_.find(doc);
      }
      holders->push_back(client);
    }
    ++entries_;
  }

  /// Records that `client` no longer holds `doc`. Idempotent.
  void remove(ClientId client, DocId doc) {
    BAPS_REQUIRE(client < per_client_.size(), "client id out of range");
    if (!per_client_[client].erase(doc)) return;  // not indexed
    HolderList* holders =
        doc < by_doc_.size() ? &by_doc_[doc] : sparse_.find(doc);
    BAPS_ENSURE(holders != nullptr, "per-client/by-doc views out of sync");
    const auto pos = std::find(holders->begin(), holders->end(), client);
    BAPS_ENSURE(pos != holders->end(), "holder list missing client");
    // Order within the holder list is not meaningful: swap-erase.
    *pos = holders->back();
    holders->pop_back();
    if (holders->empty()) {
      if (doc < by_doc_.size()) {
        if (doc < rr_by_doc_.size()) rr_by_doc_[doc] = 0;
      } else {
        sparse_.erase(doc);
        sparse_rr_.erase(doc);
      }
    }
    --entries_;
  }

  bool holds(ClientId client, DocId doc) const {
    BAPS_REQUIRE(client < per_client_.size(), "client id out of range");
    return per_client_[client].contains(doc);
  }

  /// Some client (≠ requester) the index believes holds `doc`. Holders are
  /// chosen round-robin *per document* so repeated lookups of the same doc
  /// spread load across its peers. The cursor is per-doc state on purpose:
  /// holder choice is then a pure function of the doc's own lookup history,
  /// unmoved by how lookups of other docs interleave (the golden metrics pin
  /// the holders this picks).
  std::optional<ClientId> find_holder(DocId doc, ClientId requester) const {
    const HolderList* holders =
        doc < by_doc_.size() ? &by_doc_[doc] : sparse_.find(doc);
    if (holders == nullptr) return std::nullopt;
    const std::size_t n = holders->size();
    if (n == 0) return std::nullopt;
    std::uint32_t& rr = cursor_for(doc);
    for (std::size_t i = 0; i < n; ++i) {
      const ClientId candidate = (*holders)[(rr + i) % n];
      if (candidate != requester) {
        rr = static_cast<std::uint32_t>((rr + i + 1) % n);
        return candidate;
      }
    }
    return std::nullopt;
  }

  /// All believed holders of `doc` (unspecified order), for fan-out checks.
  std::vector<ClientId> holders(DocId doc) const;

  /// Number of docs indexed for one client.
  std::uint64_t client_entry_count(ClientId client) const;

  /// Empties the whole index (a proxy restart); keeps sizing/hints.
  void clear();

 private:
  using HolderList = util::SmallVector<ClientId, 2>;

  std::vector<HolderList> by_doc_;  // in-universe docs, indexed by doc id
  util::FlatMap<HolderList> sparse_;  // out-of-universe docs (runtime keys)
  std::vector<util::FlatSet> per_client_;
  std::uint64_t entries_ = 0;

  // Per-doc round-robin cursors, parallel to the two holder views. Mutable
  // because find_holder is logically const (index contents are unchanged)
  // yet advances the queried doc's cursor. A cursor is reset when its
  // holder list empties, so cursor state lives and dies with the entry.
  mutable std::vector<std::uint32_t> rr_by_doc_;
  mutable util::FlatMap<std::uint32_t> sparse_rr_;

  std::uint32_t& cursor_for(DocId doc) const {
    if (doc < rr_by_doc_.size()) return rr_by_doc_[doc];
    std::uint32_t* cursor = sparse_rr_.find(doc);
    if (cursor == nullptr) {
      sparse_rr_.insert(doc, 0);
      cursor = sparse_rr_.find(doc);
    }
    return *cursor;
  }
};

}  // namespace baps::index
