// Simulated origin web server: deterministic bodies per URL, with explicit
// mutation (publishing a new version) for staleness scenarios. A body is
// sized once and its filler written in place, one SplitMix64 draw per byte.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "runtime/types.hpp"

namespace baps::runtime {

class OriginServer {
 public:
  explicit OriginServer(std::uint64_t seed = 1) : seed_(seed) {}

  /// Current body of a URL. Deterministic in (url, version, seed).
  std::string fetch(const Url& url) const { return fetch(url, url_key(url)); }
  /// The same, for a caller that already holds `key` == url_key(url).
  std::string fetch(const Url& url, std::uint64_t key) const;

  /// Publishes a new version of the document (its body changes).
  void mutate(const Url& url);

  std::uint64_t fetch_count() const { return fetches_; }

 private:
  std::uint64_t seed_;
  std::unordered_map<std::uint64_t, std::uint32_t> versions_;
  mutable std::uint64_t fetches_ = 0;
};

}  // namespace baps::runtime
