// Byte-capacity LRU store of document bodies (+ watermarks) for the runtime:
// the browser caches and the proxy's RAM tier. One table in replacement
// order: the simulator's cache::LruPolicy slab orders the keys (the same
// eviction order, DESIGN §11) and a FlatMap holds the documents. put() hands
// capacity victims back, bodies intact, so the caller acts on them (index
// removes, demotion to disk) once the store is consistent again.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/lru.hpp"
#include "crypto/watermark.hpp"
#include "util/flat_map.hpp"

namespace baps::runtime {

/// A document as it travels through the system: body plus the proxy-issued
/// integrity watermark (§6.1).
struct Document {
  std::string body;
  crypto::Watermark mark;
};

class DocStore {
 public:
  using Key = std::uint64_t;  ///< URL-digest prefix (see runtime/types.hpp)
  using Evicted = std::vector<std::pair<Key, Document>>;

  explicit DocStore(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  bool contains(Key key) const { return docs_.contains(key); }
  std::size_t count() const { return docs_.size(); }
  std::uint64_t used_bytes() const { return used_; }

  /// LRU-touching lookup: nullptr on a miss. The view stays valid until the
  /// store's next mutation (put, erase, clear, corrupt).
  const Document* get(Key key);

  /// Inserts, silently replacing a resident copy of `key`. Returns false —
  /// evicting nothing — if the body exceeds the whole capacity. Capacity
  /// victims are appended to `evicted` (when non-null) in LRU order, bodies
  /// intact; without it they are dropped.
  bool put(Key key, Document doc, Evicted* evicted = nullptr);

  /// Removes `key` without reporting it as an eviction.
  bool erase(Key key);

  /// Every stored key, sorted (the table iterates in hash order; callers
  /// that replay the contents need a deterministic order).
  std::vector<Key> keys() const;

  /// Drops everything, reporting nothing — models a crash or departure,
  /// where no invalidation messages go out.
  void clear();

  /// Test hook: mutate a stored body in place (models a tampering client).
  bool corrupt(Key key);

 private:
  cache::LruPolicy lru_;
  util::FlatMap<Document> docs_;
  std::uint64_t used_ = 0;
  std::uint64_t capacity_;
};

}  // namespace baps::runtime
