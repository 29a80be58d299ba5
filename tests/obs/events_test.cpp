#include "obs/events.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "runtime/system.hpp"

namespace baps::obs {
namespace {

JsonValue event(const char* name) {
  return json_object({{"event", JsonValue(name)}});
}

JsonValue event(const char* name, const char* key, JsonValue value) {
  return json_object({{"event", JsonValue(name)}, {key, std::move(value)}});
}

TEST(EventTest, JsonlSinkWritesOneObjectPerLine) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.emit(event("a", "n", JsonValue(std::int64_t{1})));
  sink.emit(event("b", "s", JsonValue("x")));
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    std::string error;
    ASSERT_TRUE(json_parse(line, &error).has_value()) << error;
  }
  EXPECT_EQ(lines, 2u);
}

// --- BapsSystem event stream ----------------------------------------------

class SystemEventsTest : public ::testing::Test {
 protected:
  // client0 seeds kUrlX / kUrlY, then filler traffic evicts both from the
  // proxy cache so later cross-client fetches must go to the peer. The sink
  // attaches only after this setup: the audited stream holds exactly the
  // browses each test performs.
  SystemEventsTest() : system_(params()) {
    system_.browse(0, kUrlX);
    system_.browse(0, kUrlY);
    for (int i = 0; i < 64; ++i) {
      system_.browse(2, "http://filler.example/" + std::to_string(i));
    }
    system_.set_event_sink(&sink_);
  }

  static runtime::BapsSystem::Params params() {
    runtime::BapsSystem::Params p;
    p.num_clients = 3;
    p.proxy_cache_bytes = 8 << 10;  // small enough to evict under pressure
    p.browser_cache_bytes = 16 << 10;
    p.seed = 42;
    return p;
  }

  static constexpr const char* kUrlX = "http://a.example/x";
  static constexpr const char* kUrlY = "http://a.example/y";

  runtime::BapsSystem system_;
  MemorySink sink_;
};

TEST(MemorySinkTest, BoundedCapacityDropsNewestAndCounts) {
  Registry::global().counter("events_dropped_total").reset();
  MemorySink sink(/*capacity=*/3);
  EXPECT_EQ(sink.capacity(), 3u);
  for (int i = 0; i < 5; ++i) {
    sink.emit(event("e", "i", JsonValue(std::uint64_t(i))));
  }
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 2u);
  // Oldest retained: the buffer is evidence of how the run started.
  const auto events = sink.events();
  EXPECT_EQ(events[0].at("i").as_uint(), 0u);
  EXPECT_EQ(events[2].at("i").as_uint(), 2u);
  // The truncation is also visible in the global registry.
  const Snapshot snap = Registry::global().snapshot();
  const CounterSample* dropped = snap.counter("events_dropped_total");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, 2u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(MemorySinkTest, ZeroCapacityClampsToOne) {
  MemorySink sink(0);
  EXPECT_EQ(sink.capacity(), 1u);
  sink.emit(event("a"));
  sink.emit(event("b"));
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(JsonlSinkTest, FlushesOnDestructionAndOnRequest) {
  std::ostringstream os;
  {
    JsonlSink sink(os);
    sink.emit(event("first"));
    sink.flush();
    EXPECT_NE(os.str().find("first"), std::string::npos);
    sink.emit(event("second"));
  }  // destructor flushes the second line
  const std::string out = os.str();
  EXPECT_NE(out.find("second"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

TEST_F(SystemEventsTest, OneFetchEventPerBrowseWithOutcome) {
  ASSERT_TRUE(system_.client_has(0, kUrlX));
  system_.browse(0, kUrlX);  // local-browser hit
  const auto peer = system_.browse(1, kUrlX);
  EXPECT_EQ(peer.source, runtime::FetchOutcome::Source::kRemoteBrowser);
  system_.browse(1, "http://fresh.example/z");  // origin fetch

  const auto fetches = sink_.named("fetch");
  ASSERT_EQ(fetches.size(), 3u);
  EXPECT_EQ(fetches[0].at("source").as_string(), "local-browser");
  EXPECT_EQ(fetches[1].at("source").as_string(), "remote-browser");
  EXPECT_EQ(fetches[2].at("source").as_string(), "origin-server");
  for (const auto& f : fetches) {
    EXPECT_TRUE(f.at("verified").as_bool());
    EXPECT_FALSE(f.at("tamper_recovered").as_bool());
    EXPECT_FALSE(f.at("false_forward").as_bool());
  }
  EXPECT_EQ(fetches[0].at("client").as_string(), "client0");
  EXPECT_EQ(fetches[1].at("client").as_string(), "client1");
}

TEST_F(SystemEventsTest, MessageEventsMirrorTheTrace) {
  const std::size_t already_logged = system_.messages().log().size();
  system_.browse(1, kUrlX);
  const auto messages = sink_.named("message");
  ASSERT_EQ(messages.size(),
            system_.messages().log().size() - already_logged);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const auto& rec = system_.messages().log()[already_logged + i];
    EXPECT_EQ(messages[i].at("kind").as_string(),
              runtime::msg_kind_name(rec.kind));
    EXPECT_EQ(messages[i].at("from").as_string(), rec.from);
    EXPECT_EQ(messages[i].at("to").as_string(), rec.to);
  }
}

TEST_F(SystemEventsTest, TamperedPeerDeliveryIsFlaggedInTheStream) {
  system_.set_tampering(0, true);
  const auto out = system_.browse(1, kUrlX);
  EXPECT_TRUE(out.tamper_recovered);

  const auto fetches = sink_.named("fetch");
  ASSERT_EQ(fetches.size(), 1u);
  EXPECT_TRUE(fetches[0].at("tamper_recovered").as_bool());
  EXPECT_TRUE(fetches[0].at("verified").as_bool());
  EXPECT_EQ(fetches[0].at("source").as_string(), "origin-server");
}

TEST_F(SystemEventsTest, FalseForwardIsFlaggedInTheStream) {
  system_.drop_silently(0, kUrlX);
  const auto out = system_.browse(1, kUrlX);
  EXPECT_EQ(out.source, runtime::FetchOutcome::Source::kOrigin);

  const auto fetches = sink_.named("fetch");
  ASSERT_EQ(fetches.size(), 1u);
  EXPECT_TRUE(fetches[0].at("false_forward").as_bool());
}

// The §6.2 anonymity property, audited on the emitted event stream: a
// peer-fetch names only the proxy and the holder. No field of any peer-fetch
// event may reference the requester.
TEST_F(SystemEventsTest, PeerFetchEventsCarryNoRequesterIdentity) {
  system_.browse(1, kUrlX);  // requester: client1, holder: client0
  system_.browse(2, kUrlY);  // requester: client2, holder: client0

  std::size_t peer_fetches = 0;
  for (const auto& m : sink_.named("message")) {
    if (m.at("kind").as_string() != "peer-fetch") continue;
    ++peer_fetches;
    EXPECT_EQ(m.at("from").as_string(), "proxy");
    EXPECT_EQ(m.at("to").as_string(), "client0");  // the holder
    // Exactly the envelope fields — nothing that could smuggle the
    // requester in.
    const JsonObject& fields = m.as_object();
    ASSERT_EQ(fields.size(), 5u);
    EXPECT_EQ(fields[0].first, "event");
    EXPECT_EQ(fields[1].first, "kind");
    EXPECT_EQ(fields[2].first, "from");
    EXPECT_EQ(fields[3].first, "to");
    EXPECT_EQ(fields[4].first, "url");
    for (const auto& [key, value] : fields) {
      if (value.is_string()) {
        EXPECT_NE(value.as_string(), "client1")
            << "peer-fetch leaked the requester";
        EXPECT_NE(value.as_string(), "client2")
            << "peer-fetch leaked the requester";
      }
    }
  }
  EXPECT_EQ(peer_fetches, 2u);
}

// The exact bytes of each event kind's JSONL line: trace_check and
// --trace-out read these lines, so a field's name, order or spelling is part
// of the format. One peer browse gives the message and fetch lines.
TEST_F(SystemEventsTest, JsonlLinesArePinned) {
  std::ostringstream os;
  JsonlSink jsonl(os);
  system_.set_event_sink(&jsonl);
  system_.browse(1, kUrlX);
  jsonl.flush();
  const std::string url = "\"url\":6086018008079535931";
  EXPECT_EQ(os.str(),
            "{\"event\":\"message\",\"kind\":\"client-request\","
            "\"from\":\"client1\",\"to\":\"proxy\"," + url + "}\n"
            "{\"event\":\"message\",\"kind\":\"peer-fetch\","
            "\"from\":\"proxy\",\"to\":\"client0\"," + url + "}\n"
            "{\"event\":\"message\",\"kind\":\"peer-deliver\","
            "\"from\":\"client0\",\"to\":\"proxy\"," + url + "}\n"
            "{\"event\":\"message\",\"kind\":\"proxy-response\","
            "\"from\":\"proxy\",\"to\":\"client1\"," + url + "}\n"
            "{\"event\":\"message\",\"kind\":\"index-add\","
            "\"from\":\"client1\",\"to\":\"proxy\"," + url + "}\n"
            "{\"event\":\"fetch\",\"client\":\"client1\"," + url +
            ",\"source\":\"remote-browser\",\"verified\":true,"
            "\"tamper_recovered\":false,\"false_forward\":false}\n");
}

TEST(JsonlSinkTest, SpanLineIsPinned) {
  Registry reg;
  Tracer::Params p;
  p.seed = 7;
  p.sample_rate = 1.0;
  p.service = "proxyd";
  Tracer tracer(p, &reg);
  std::ostringstream os;
  JsonlSink jsonl(os);
  tracer.set_sink(&jsonl);
  TraceContext parent;
  parent.trace_id = 0x1234;
  parent.span_id = 0x56;
  parent.sampled = true;
  tracer.record_span(SpanKind::kPeerTransfer, parent, 1000, 3500);
  jsonl.flush();
  // Span ids are salted per tracer instance; read this one back.
  const std::uint64_t span_id = tracer.recent_spans(1).at(0).span_id;
  EXPECT_EQ(os.str(),
            "{\"event\":\"span\",\"service\":\"proxyd\",\"trace_id\":4660,"
            "\"span_id\":" + std::to_string(span_id) +
            ",\"parent_id\":86,\"kind\":\"peer_transfer\","
            "\"start_ns\":1000,\"end_ns\":3500,\"duration_ns\":2500}\n");
}

TEST_F(SystemEventsTest, DetachingTheSinkStopsTheStream) {
  system_.browse(0, kUrlX);
  const std::size_t before = sink_.size();
  system_.set_event_sink(nullptr);
  system_.browse(0, "http://fresh.example/z");
  EXPECT_EQ(sink_.size(), before);
}

}  // namespace
}  // namespace baps::obs
