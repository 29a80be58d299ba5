// End-to-end protocol tests: caching behaviour, data integrity (§6.1), and
// communication anonymity (§6.2) of the runtime BAPS engine.
#include "runtime/system.hpp"

#include <gtest/gtest.h>

namespace baps::runtime {
namespace {

BapsSystem::Params small_params() {
  BapsSystem::Params p;
  p.num_clients = 3;
  p.proxy_cache_bytes = 8 << 10;   // small enough to evict under pressure
  p.browser_cache_bytes = 16 << 10;
  p.seed = 42;
  return p;
}

TEST(BapsSystemTest, FirstFetchComesFromOriginAndVerifies) {
  BapsSystem sys(small_params());
  const FetchOutcome out = sys.browse(0, "http://a.example/page.html");
  EXPECT_EQ(out.source, FetchOutcome::Source::kOrigin);
  EXPECT_TRUE(out.verified);
  EXPECT_FALSE(out.body.empty());
  EXPECT_EQ(sys.origin_fetches(), 1u);
}

TEST(BapsSystemTest, RepeatFetchHitsLocalBrowser) {
  BapsSystem sys(small_params());
  sys.browse(0, "http://a.example/p");
  const FetchOutcome out = sys.browse(0, "http://a.example/p");
  EXPECT_EQ(out.source, FetchOutcome::Source::kLocalBrowser);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(sys.origin_fetches(), 1u);
}

TEST(BapsSystemTest, SecondClientHitsProxyCache) {
  BapsSystem sys(small_params());
  sys.browse(0, "http://a.example/p");
  const FetchOutcome out = sys.browse(1, "http://a.example/p");
  EXPECT_EQ(out.source, FetchOutcome::Source::kProxy);
  EXPECT_EQ(sys.origin_fetches(), 1u);
}

TEST(BapsSystemTest, PeerServesWhenProxyEvicted) {
  BapsSystem sys(small_params());
  const Url url = "http://a.example/shared";
  sys.browse(0, url);
  // Flood the proxy cache until the shared doc is evicted from it; client
  // 0's browser still holds it.
  for (int i = 0; i < 64; ++i) {
    sys.browse(2, "http://filler.example/" + std::to_string(i));
  }
  ASSERT_TRUE(sys.client_has(0, url));
  const FetchOutcome out = sys.browse(1, url);
  EXPECT_EQ(out.source, FetchOutcome::Source::kRemoteBrowser);
  EXPECT_TRUE(out.verified);
  EXPECT_GE(sys.peer_hits(), 1u);
  // The requester keeps a verified copy.
  EXPECT_TRUE(sys.client_has(1, url));
}

TEST(BapsSystemTest, BodiesMatchOriginContent) {
  BapsSystem sys(small_params());
  const Url url = "http://a.example/content";
  const std::string direct = sys.origin().fetch(url);
  EXPECT_EQ(sys.browse(0, url).body, direct);
  EXPECT_EQ(sys.browse(1, url).body, direct);
}

// --- §6.1 data integrity ----------------------------------------------------

class TamperTest : public ::testing::Test {
 protected:
  TamperTest() : sys_(small_params()) {
    sys_.browse(0, kUrl);
    for (int i = 0; i < 64; ++i) {
      sys_.browse(2, "http://filler.example/" + std::to_string(i));
    }
    sys_.set_tampering(0, true);  // client 0 corrupts what it serves
  }
  static constexpr const char* kUrl = "http://a.example/target";
  BapsSystem sys_;
};

TEST_F(TamperTest, TamperedPeerDeliveryIsDetectedAndRecovered) {
  const FetchOutcome out = sys_.browse(1, kUrl);
  EXPECT_TRUE(out.tamper_recovered);
  EXPECT_TRUE(out.verified);  // final copy verifies
  EXPECT_EQ(out.source, FetchOutcome::Source::kOrigin);
  EXPECT_EQ(sys_.tamper_detections(), 1u);
  // The recovered body is the genuine one.
  EXPECT_EQ(out.body, sys_.origin().fetch(kUrl));
}

TEST_F(TamperTest, VictimCachesOnlyTheVerifiedCopy) {
  sys_.browse(1, kUrl);
  const FetchOutcome again = sys_.browse(1, kUrl);
  EXPECT_EQ(again.source, FetchOutcome::Source::kLocalBrowser);
  EXPECT_TRUE(again.verified);
}

TEST(IntegrityTest, NoClientCanForgeWatermarks) {
  // The watermark key pair lives in the proxy; a client-side forgery is
  // exactly the crypto-level test in watermark_test.cpp. Here: an honest
  // system never reports tamper detections.
  BapsSystem sys(small_params());
  for (int i = 0; i < 50; ++i) {
    sys.browse(static_cast<ClientId>(i % 3),
               "http://site.example/" + std::to_string(i % 10));
  }
  EXPECT_EQ(sys.tamper_detections(), 0u);
}

// --- stale index / false forwards -------------------------------------------

TEST(FalseForwardTest, SilentDropCausesFalseForwardThenRecovery) {
  BapsSystem sys(small_params());
  const Url url = "http://a.example/vanishing";
  sys.browse(0, url);
  for (int i = 0; i < 64; ++i) {
    sys.browse(2, "http://filler.example/" + std::to_string(i));
  }
  sys.drop_silently(0, url);  // proxy index now stale
  const FetchOutcome out = sys.browse(1, url);
  EXPECT_EQ(sys.false_forwards(), 1u);
  EXPECT_EQ(out.source, FetchOutcome::Source::kOrigin);
  EXPECT_TRUE(out.verified);
  // The recovery re-filled the proxy cache, so the index is not consulted
  // until the proxy evicts the doc again. After that, client 1's silently
  // dropped copy produces the second false forward — and the repaired index
  // (client 0's entry was removed above) has no other holder to try.
  sys.drop_silently(1, url);
  for (int i = 64; i < 128; ++i) {
    sys.browse(2, "http://filler.example/" + std::to_string(i));
  }
  sys.browse(2, url);
  EXPECT_EQ(sys.false_forwards(), 2u);
}

// --- §6.2 communication anonymity --------------------------------------------

TEST(AnonymityTest, PeerFetchNeverNamesTheRequester) {
  BapsSystem sys(small_params());
  const Url url = "http://a.example/secret";
  sys.browse(0, url);
  for (int i = 0; i < 64; ++i) {
    sys.browse(2, "http://filler.example/" + std::to_string(i));
  }
  sys.messages().clear();
  const FetchOutcome out = sys.browse(1, url);
  ASSERT_EQ(out.source, FetchOutcome::Source::kRemoteBrowser);

  // Audit every message the holder (client0) saw: all of it comes from the
  // proxy, none of it from or mentioning client1.
  bool saw_peer_fetch = false;
  for (const MsgRecord& m : sys.messages().log()) {
    if (m.to == "client0") {
      EXPECT_EQ(m.from, "proxy") << msg_kind_name(m.kind);
      saw_peer_fetch |= (m.kind == MsgKind::kPeerFetch);
    }
    if (m.kind == MsgKind::kPeerFetch || m.kind == MsgKind::kPeerDeliver) {
      EXPECT_NE(m.from, "client1");
      EXPECT_NE(m.to, "client1");
    }
  }
  EXPECT_TRUE(saw_peer_fetch);
}

TEST(AnonymityTest, RequesterOnlyEverTalksToProxy) {
  BapsSystem sys(small_params());
  const Url url = "http://a.example/secret";
  sys.browse(0, url);
  for (int i = 0; i < 64; ++i) {
    sys.browse(2, "http://filler.example/" + std::to_string(i));
  }
  sys.messages().clear();
  sys.browse(1, url);
  for (const MsgRecord& m : sys.messages().log()) {
    if (m.from == "client1") {
      EXPECT_EQ(m.to, "proxy");
    }
    if (m.to == "client1") {
      EXPECT_EQ(m.from, "proxy");
    }
  }
}

// --- index maintenance traffic ----------------------------------------------

TEST(IndexTrafficTest, InsertsAndEvictionsProduceIndexMessages) {
  BapsSystem sys(small_params());
  for (int i = 0; i < 40; ++i) {
    sys.browse(0, "http://churn.example/" + std::to_string(i));
  }
  EXPECT_GT(sys.messages().count(MsgKind::kIndexAdd), 0u);
  EXPECT_GT(sys.messages().count(MsgKind::kIndexRemove), 0u);
  // The index mirrors the browser caches: every indexed doc is really held.
  for (int i = 0; i < 40; ++i) {
    const Url url = "http://churn.example/" + std::to_string(i);
    EXPECT_EQ(sys.browser_index().holds(0, url_key(url)),
              sys.client_has(0, url))
        << url;
  }
}

// --- authenticated index updates ---------------------------------------------

TEST(IndexAuthTest, SpoofedRemovalIsRejected) {
  BapsSystem sys(small_params());
  const Url url = "http://a.example/precious";
  sys.browse(0, url);
  ASSERT_TRUE(sys.browser_index().holds(0, url_key(url)));

  // Client 2 tries to knock client 0's entry out of the index.
  EXPECT_FALSE(sys.spoof_index_remove(/*attacker=*/2, /*victim=*/0, url));
  EXPECT_EQ(sys.rejected_index_updates(), 1u);
  EXPECT_TRUE(sys.browser_index().holds(0, url_key(url)));
}

TEST(IndexAuthTest, LegitimateUpdatesStillFlow) {
  BapsSystem sys(small_params());
  for (int i = 0; i < 40; ++i) {
    sys.browse(1, "http://churn.example/" + std::to_string(i));
  }
  // Plenty of adds and eviction-driven removes, none rejected.
  EXPECT_EQ(sys.rejected_index_updates(), 0u);
  EXPECT_GT(sys.messages().count(MsgKind::kIndexRemove), 0u);
}

TEST(IndexAuthTest, SelfRemovalWithOwnKeyIsAccepted) {
  // The "attack" degenerates to a legitimate update when attacker == victim.
  BapsSystem sys(small_params());
  const Url url = "http://a.example/mine";
  sys.browse(1, url);
  EXPECT_TRUE(sys.spoof_index_remove(1, 1, url));
  EXPECT_EQ(sys.rejected_index_updates(), 0u);
  EXPECT_FALSE(sys.browser_index().holds(1, url_key(url)));
}

TEST(IndexAuthTest, IndexUpdateMacFormatIsPinned) {
  // HMAC-MD5(key, "add:3:4660") and HMAC-MD5(key, "remove:3:4660"): clients,
  // the proxy and perfbench's layer replay all compute this exact message.
  EXPECT_EQ(index_update_mac("k42", 3, /*is_add=*/true, 0x1234).hex(),
            "91365902a4e07bcf764489dd3efbb39f");
  EXPECT_EQ(index_update_mac("k42", 3, /*is_add=*/false, 0x1234).hex(),
            "77fa93478923bfaf70b183040f891b8d");
}

TEST(SourceNameTest, AllSourcesNamed) {
  EXPECT_EQ(source_name(FetchOutcome::Source::kLocalBrowser), "local-browser");
  EXPECT_EQ(source_name(FetchOutcome::Source::kOrigin), "origin-server");
}

}  // namespace
}  // namespace baps::runtime
