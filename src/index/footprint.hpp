// Index storage-footprint model (§5).
//
// The paper's example: each URL keyed by a 16-byte MD5 signature; 100
// clients with 100 MB browser caches and ~8 KB average documents give ~12.8K
// pages per browser → the proxy stores the whole browser index in ~tens of
// MB, and compression (Bloom summaries) shrinks it several-fold further.
// bench_overhead prints this arithmetic for the paper's example; it is a
// model, not a measurement of a built index.
#pragma once

#include <cstdint>

namespace baps::index {

struct FootprintParams {
  std::uint32_t num_clients = 100;
  std::uint64_t browser_cache_bytes = 8ULL << 20;  ///< per client
  std::uint64_t avg_doc_bytes = 8ULL << 10;
  /// Exact-index entry: 16-byte MD5 signature + client id + timestamp/TTL.
  std::uint64_t bytes_per_exact_entry = 16 + 4 + 4;
  /// Summary-cache compression budget, bits per cached document.
  double bloom_bits_per_doc = 16.0;
};

struct FootprintEstimate {
  std::uint64_t docs_per_browser = 0;
  std::uint64_t total_entries = 0;
  std::uint64_t exact_index_bytes = 0;
  std::uint64_t bloom_index_bytes = 0;
};

/// Pure arithmetic; see bench_overhead for the paper-matching instantiation.
FootprintEstimate estimate_footprint(const FootprintParams& params);

}  // namespace baps::index
