#include "runtime/origin.hpp"

#include "util/rng.hpp"

namespace baps::runtime {

std::string OriginServer::fetch(const Url& url, std::uint64_t key) const {
  ++fetches_;
  std::uint32_t version = 0;
  if (const auto it = versions_.find(key); it != versions_.end()) {
    version = it->second;
  }
  // Body: a recognizable header plus deterministic filler whose length
  // varies by URL (128–2175 bytes; a longer header is the whole body).
  baps::SplitMix64 sm(seed_ ^ key ^ (static_cast<std::uint64_t>(version) << 32));
  const std::size_t len = 128 + (sm.next() % 2048);
  std::string body = "<html><!-- " + url + " v" + std::to_string(version) +
                     " -->";
  const std::size_t header = body.size();
  if (header < len) {
    body.resize(len);
    char* const out = body.data();
    for (std::size_t i = header; i < len; ++i) {
      out[i] = static_cast<char>('a' + (sm.next() % 26));
    }
  }
  return body;
}

void OriginServer::mutate(const Url& url) { ++versions_[url_key(url)]; }

}  // namespace baps::runtime
