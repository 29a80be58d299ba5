// Summary-cache-style compressed browser index: one counting Bloom filter
// per client instead of an exact per-client directory.
//
// Trades memory for false positives: a lookup can name a client that does
// not actually hold the document ("false forward" — the proxy probes the
// client, gets a miss, and falls through to the origin path). The ablation
// bench (bench_ablation_bloom) sweeps target FP rates against measured
// false-forward rates and memory versus the exact index.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "index/bloom.hpp"
#include "trace/record.hpp"

namespace baps::index {

using trace::ClientId;
using trace::DocId;

class SummaryIndex {
 public:
  /// One filter per client, each sized for `expected_docs_per_client` at
  /// `target_fp_rate`.
  SummaryIndex(std::uint32_t num_clients,
               std::uint64_t expected_docs_per_client, double target_fp_rate);

  std::uint32_t num_clients() const {
    return static_cast<std::uint32_t>(filters_.size());
  }

  void add(ClientId client, DocId doc);
  void remove(ClientId client, DocId doc);

  /// First candidate holder ≠ requester (round-robin start). May be a false
  /// positive — the caller must verify against the real browser cache.
  std::optional<ClientId> find_candidate(DocId doc, ClientId requester) const;

  /// Total index memory (all filters).
  std::uint64_t byte_size() const;

 private:
  std::vector<CountingBloomFilter> filters_;
  mutable std::uint64_t rr_ = 0;
};

}  // namespace baps::index
