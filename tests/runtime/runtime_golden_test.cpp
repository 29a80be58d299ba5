// Golden pin of the loopback runtime's exact behaviour. A seeded BU95 slice
// runs through a BapsSystem whose browser caches are small enough to evict,
// whose proxy has a disk tier behind a small RAM tier, one of whose clients
// tampers with what it serves, and whose browsers now and then drop a copy
// without telling the proxy. The test pins:
//
//  - the per-request (source, verified, tamper_recovered, false_forward)
//    stream, as a digest plus per-source counts;
//  - the full MessageTrace (kind, from, to, url) sequence, as a digest plus
//    its length;
//  - the store_demotions_total and store_promotions_total deltas.
//
// Every figure is a property of the protocol and the LRU order, not of the
// data structures behind them, so a storage refactor must leave all of
// them unchanged. A deliberate behaviour change re-captures them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>

#include "../store/store_test_util.hpp"
#include "obs/events.hpp"
#include "obs/registry.hpp"
#include "runtime/system.hpp"
#include "trace/presets.hpp"

namespace baps::runtime {
namespace {

/// FNV-1a, 64-bit: a stable digest of a canonical text rendering.
class Digest {
 public:
  void add(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Keeps the false_forward flag of every "fetch" event, in order (it is the
/// one outcome field FetchOutcome does not carry).
class FalseForwardSink final : public obs::EventSink {
 public:
  void emit(const obs::JsonValue& event) override {
    if (event.at("event").as_string() != "fetch") return;
    flags += event.at("false_forward").as_bool() ? '1' : '0';
  }
  std::string flags;
};

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

constexpr std::size_t kRequests = 1500;
constexpr std::uint32_t kClients = 4;
constexpr ClientId kTamperer = 1;

TEST(RuntimeGoldenTest, PresetSliceStreamsArePinned) {
  store_test::TempDir dir("baps-runtime-golden");
  BapsSystem::Params params;
  params.num_clients = kClients;
  params.seed = 23;
  params.browser_cache_bytes = 8 << 10;  // a handful of bodies per browser
  params.proxy_cache_bytes = 6 << 10;
  params.store.dir = dir.str();
  params.store.capacity_bytes = 32 << 10;
  params.store.segment_bytes = 8 << 10;

  BapsSystem sys(params);
  FalseForwardSink sink;
  sys.set_event_sink(&sink);
  sys.set_tampering(kTamperer, true);

  const std::uint64_t demotions_before = counter_value("store_demotions_total");
  const std::uint64_t promotions_before =
      counter_value("store_promotions_total");

  const trace::Trace t = trace::load_preset(trace::Preset::kBu95);
  std::string outcomes;
  std::uint64_t by_source[4] = {0, 0, 0, 0};
  std::uint64_t tamper_recovered = 0;
  std::size_t done = 0;
  for (const trace::Request& req : t.requests()) {
    if (done == kRequests) break;
    const auto client = static_cast<ClientId>(req.client % kClients);
    const Url url = t.url_of(req.doc);
    const FetchOutcome out = sys.browse(client, url);
    ASSERT_TRUE(out.verified) << "request " << done;
    outcomes += std::to_string(static_cast<int>(out.source));
    outcomes += out.verified ? 'v' : '-';
    outcomes += out.tamper_recovered ? 't' : '-';
    ++by_source[static_cast<int>(out.source)];
    if (out.tamper_recovered) ++tamper_recovered;
    // Stale index entries, so the stream also carries false forwards.
    if (done % 10 == 9) sys.drop_silently(client, url);
    ++done;
  }
  ASSERT_EQ(done, kRequests) << "preset slice shorter than expected";
  ASSERT_EQ(sink.flags.size(), kRequests);

  Digest requests;
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests.add(outcomes.substr(3 * i, 3));
    requests.add(std::string(1, sink.flags[i]));
    requests.add("\n");
  }

  Digest messages;
  for (const MsgRecord& m : sys.messages().log()) {
    messages.add(msg_kind_name(m.kind) + "|" + m.from + "|" + m.to + "|" +
                 std::to_string(m.url) + "\n");
  }

  const std::uint64_t demotions =
      counter_value("store_demotions_total") - demotions_before;
  const std::uint64_t promotions =
      counter_value("store_promotions_total") - promotions_before;

  // Captured with the earlier DocStore, which kept its bodies in a map
  // beside an ObjectCache; the single LRU-ordered table reproduces them.
  EXPECT_EQ(by_source[0], 251u) << "local hits";
  EXPECT_EQ(by_source[1], 149u) << "proxy hits";
  EXPECT_EQ(by_source[2], 20u) << "peer hits";
  EXPECT_EQ(by_source[3], 1080u) << "origin fetches";
  EXPECT_EQ(tamper_recovered, 6u);
  EXPECT_EQ(sys.false_forwards(), 5u);
  EXPECT_EQ(requests.value(), 0xc5fd8d7200ee7373ULL);
  EXPECT_EQ(sys.messages().log().size(), 7048u);
  EXPECT_EQ(messages.value(), 0x469153b499dc5f5dULL);
  EXPECT_EQ(demotions, 1196u);
  EXPECT_EQ(promotions, 122u);
}

}  // namespace
}  // namespace baps::runtime
