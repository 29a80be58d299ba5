#include "runtime/doc_store.hpp"

#include <algorithm>

namespace baps::runtime {

const Document* DocStore::get(Key key) {
  const Document* doc = docs_.find(key);
  if (doc != nullptr) lru_.on_hit(key, doc->body.size());
  return doc;
}

bool DocStore::put(Key key, Document doc, Evicted* evicted) {
  erase(key);
  const std::uint64_t size = doc.body.size();
  if (size > capacity_) return false;
  while (used_ + size > capacity_) {
    const Key victim = lru_.pop_victim();
    Document gone;
    docs_.erase(victim, &gone);
    used_ -= gone.body.size();
    if (evicted != nullptr) evicted->emplace_back(victim, std::move(gone));
  }
  docs_.insert(key, std::move(doc));
  lru_.on_insert(key, size);
  used_ += size;
  return true;
}

bool DocStore::erase(Key key) {
  Document gone;
  if (!docs_.erase(key, &gone)) return false;
  lru_.on_remove(key);
  used_ -= gone.body.size();
  return true;
}

std::vector<DocStore::Key> DocStore::keys() const {
  std::vector<Key> out;
  out.reserve(docs_.size());
  docs_.for_each([&](Key key, const Document&) { out.push_back(key); });
  std::sort(out.begin(), out.end());
  return out;
}

void DocStore::clear() {
  lru_ = cache::LruPolicy();
  docs_.clear();
  used_ = 0;
}

bool DocStore::corrupt(Key key) {
  Document* doc = docs_.find(key);
  if (doc == nullptr || doc->body.empty()) return false;
  doc->body[0] = static_cast<char>(doc->body[0] ^ 0x5A);
  return true;
}

}  // namespace baps::runtime
