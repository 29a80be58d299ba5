#include "runtime/doc_store.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace baps::runtime {
namespace {

Document doc(const std::string& body) { return Document{body, {}}; }

std::vector<DocStore::Key> keys_of(const DocStore::Evicted& evicted) {
  std::vector<DocStore::Key> out;
  for (const auto& [key, d] : evicted) out.push_back(key);
  return out;
}

TEST(DocStoreTest, PutGetRoundTrip) {
  DocStore s(1024);
  EXPECT_TRUE(s.put(1, doc("hello")));
  const Document* d = s.get(1);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->body, "hello");
  EXPECT_EQ(s.used_bytes(), 5u);
}

TEST(DocStoreTest, MissReturnsNull) {
  DocStore s(1024);
  EXPECT_EQ(s.get(42), nullptr);
}

TEST(DocStoreTest, PutReplacesExistingBody) {
  DocStore s(1024);
  DocStore::Evicted evicted;
  s.put(1, doc("old body"));
  s.put(1, doc("new"), &evicted);
  EXPECT_EQ(s.get(1)->body, "new");
  EXPECT_EQ(s.used_bytes(), 3u);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_TRUE(evicted.empty());  // a replacement is not an eviction
}

TEST(DocStoreTest, OversizedBodyRejected) {
  DocStore s(8);
  s.put(2, doc("abcd"));
  DocStore::Evicted evicted;
  EXPECT_FALSE(s.put(1, doc("way too large"), &evicted));
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(evicted.empty());  // rejected before anything is evicted
  EXPECT_TRUE(s.contains(2));
  EXPECT_EQ(s.used_bytes(), 4u);
}

TEST(DocStoreTest, LruEvictionHandsVictimsBack) {
  DocStore s(10);
  s.put(1, doc("aaaa"));
  s.put(2, doc("bbbb"));
  s.get(1);  // heat 1; 2 becomes the victim
  DocStore::Evicted evicted;
  EXPECT_TRUE(s.put(3, doc("cccc"), &evicted));  // evicts 2
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, 2u);
  EXPECT_EQ(evicted[0].second.body, "bbbb");  // body intact
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.used_bytes(), 8u);
}

TEST(DocStoreTest, PutEvictingSeveralReturnsThemInLruOrder) {
  DocStore s(12);
  s.put(1, doc("aaa"));
  s.put(2, doc("bbb"));
  s.put(3, doc("ccc"));
  s.put(4, doc("ddd"));
  DocStore::Evicted evicted;
  EXPECT_TRUE(s.put(5, doc("eeeeeeeee"), &evicted));  // needs three slots
  EXPECT_EQ(keys_of(evicted), (std::vector<DocStore::Key>{1, 2, 3}));
  EXPECT_EQ(evicted[2].second.body, "ccc");
  EXPECT_EQ(s.keys(), (std::vector<DocStore::Key>{4, 5}));
  EXPECT_EQ(s.used_bytes(), 12u);
}

TEST(DocStoreTest, GetMakesKeyMostRecentlyUsed) {
  DocStore s(9);
  s.put(1, doc("aaa"));
  s.put(2, doc("bbb"));
  s.put(3, doc("ccc"));
  ASSERT_NE(s.get(1), nullptr);  // order is now 2, 3, 1
  DocStore::Evicted evicted;
  s.put(4, doc("dddddd"), &evicted);
  EXPECT_EQ(keys_of(evicted), (std::vector<DocStore::Key>{2, 3}));
  EXPECT_TRUE(s.contains(1));
}

TEST(DocStoreTest, EraseIsSilent) {
  DocStore s(4);
  s.put(1, doc("abc"));
  EXPECT_TRUE(s.erase(1));
  EXPECT_FALSE(s.erase(1));
  EXPECT_EQ(s.used_bytes(), 0u);
  DocStore::Evicted evicted;
  EXPECT_TRUE(s.put(2, doc("wxyz"), &evicted));
  EXPECT_TRUE(evicted.empty());  // the erased key is not reported later
}

TEST(DocStoreTest, CorruptFlipsStoredBody) {
  DocStore s(100);
  s.put(1, doc("payload"));
  EXPECT_TRUE(s.corrupt(1));
  EXPECT_NE(s.get(1)->body, "payload");
  EXPECT_FALSE(s.corrupt(99));  // absent key
}

}  // namespace
}  // namespace baps::runtime
