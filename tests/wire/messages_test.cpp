#include "wire/messages.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "wire/codec.hpp"

namespace baps::wire {
namespace {

// Strictness harness: a valid encoding must decode, every strict prefix of
// it must not (truncation), and neither must the encoding plus a trailing
// byte (a different message shape), nor any of `also_rejected` (e.g. a
// retired shape of the same kind).
template <typename Msg>
void expect_strict(const std::string& payload,
                   const std::vector<std::string>& also_rejected = {}) {
  Msg out;
  EXPECT_TRUE(decode(payload, &out));
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Msg partial;
    EXPECT_FALSE(decode(std::string_view(payload).substr(0, len), &partial))
        << "prefix " << len << " of " << payload.size();
  }
  Msg extended;
  EXPECT_FALSE(decode(payload + '\0', &extended));
  for (const std::string& other : also_rejected) {
    Msg rejected;
    EXPECT_FALSE(decode(other, &rejected)) << other.size() << "-byte input";
  }
}

TEST(MessagesTest, HelloRoundTrip) {
  Hello in;
  in.peer_port = 45123;
  Hello out;
  ASSERT_TRUE(decode(encode(in), &out));
  EXPECT_EQ(out.peer_port, in.peer_port);
  // A Hello names no browser: it is the host's peer port and nothing else.
  EXPECT_EQ(encode(in).size(), 2u);
  // The retired shape (u32 client id, then the port) is rejected, not
  // misread as a port.
  Writer retired;
  retired.u32(3);
  retired.u16(in.peer_port);
  expect_strict<Hello>(encode(in), {retired.take()});
}

TEST(MessagesTest, VersionOneFramesAreRejectedAtTheHeader) {
  // A peer still speaking version 1 (per-browser Hello, id-less fetches and
  // updates) is refused with a typed status before any payload is read.
  Writer retired;
  retired.u32(3);
  retired.u16(45123);
  std::string frame = encode_frame(FrameKind::kHello, retired.take());
  frame[4] = 1;
  EXPECT_EQ(decode_frame(frame).status, DecodeStatus::kBadVersion);
  frame[4] = static_cast<char>(kVersion);
  const DecodeResult current = decode_frame(frame);
  ASSERT_EQ(current.status, DecodeStatus::kOk);
  Hello hello;
  EXPECT_FALSE(decode(current.frame.payload, &hello));
  EXPECT_EQ(kVersion, 2);
}

TEST(MessagesTest, HelloAckRoundTrip) {
  HelloAck in;
  in.rsa_n = {0x01, 0xFF, 0x00, 0x7A};
  in.rsa_e = {0x01, 0x00, 0x01};
  in.max_clients = 16;
  HelloAck out;
  ASSERT_TRUE(decode(encode(in), &out));
  EXPECT_EQ(out.rsa_n, in.rsa_n);
  EXPECT_EQ(out.rsa_e, in.rsa_e);
  EXPECT_EQ(out.max_clients, in.max_clients);
  expect_strict<HelloAck>(encode(in));
}

TEST(MessagesTest, HelloAckRejectsOversizedKey) {
  Writer w;
  w.u32(kMaxKeyLen + 1);  // key-length prefix beyond the ceiling
  std::string payload = w.take();
  payload.append(kMaxKeyLen + 1, 'A');
  HelloAck out;
  EXPECT_FALSE(decode(payload, &out));
}

TEST(MessagesTest, FetchRequestRoundTrip) {
  FetchRequest in;
  in.client = 7;
  in.url = "http://example.test/a/b/c?d=e";
  in.avoid_peers = true;
  FetchRequest out;
  ASSERT_TRUE(decode(encode(in), &out));
  EXPECT_EQ(out.client, in.client);
  EXPECT_EQ(out.url, in.url);
  EXPECT_TRUE(out.avoid_peers);
  expect_strict<FetchRequest>(encode(in));
}

TEST(MessagesTest, FetchRequestRejectsNonBooleanFlag) {
  FetchRequest in;
  in.url = "u";
  std::string payload = encode(in);
  payload.back() = 2;  // the avoid_peers byte: anything but 0/1 is corruption
  FetchRequest out;
  EXPECT_FALSE(decode(payload, &out));
}

TEST(MessagesTest, FetchRequestRejectsOversizedUrl) {
  Writer w;
  w.u32(0);
  w.str(std::string(kMaxUrlLen + 1, 'u'));
  w.u8(0);
  FetchRequest out;
  EXPECT_FALSE(decode(w.take(), &out));
}

TEST(MessagesTest, FetchResponseRoundTrip) {
  FetchResponse in;
  in.source = WireSource::kRemoteBrowser;
  in.false_forward = true;
  in.body = std::string(1024, 'b');
  in.watermark = {9, 8, 7};
  FetchResponse out;
  ASSERT_TRUE(decode(encode(in), &out));
  EXPECT_EQ(out.source, in.source);
  EXPECT_TRUE(out.false_forward);
  EXPECT_EQ(out.body, in.body);
  EXPECT_EQ(out.watermark, in.watermark);
  expect_strict<FetchResponse>(encode(in));
}

TEST(MessagesTest, FetchResponseRejectsInvalidSource) {
  FetchResponse in;
  in.source = WireSource::kProxy;
  for (std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{4}, std::uint8_t{255}}) {
    std::string payload = encode(in);
    payload[0] = static_cast<char>(bad);
    FetchResponse out;
    EXPECT_FALSE(decode(payload, &out)) << "source " << static_cast<int>(bad);
  }
  EXPECT_FALSE(wire_source_valid(0));
  EXPECT_TRUE(wire_source_valid(1));
  EXPECT_TRUE(wire_source_valid(3));
  EXPECT_FALSE(wire_source_valid(4));
}

TEST(MessagesTest, IndexUpdateRoundTrip) {
  IndexUpdate in;
  in.sender = 5;
  in.is_add = true;
  in.key = 0xDEADBEEFCAFEF00Dull;
  for (std::size_t i = 0; i < in.mac.size(); ++i) {
    in.mac[i] = static_cast<std::uint8_t>(i * 17);
  }
  IndexUpdate out;
  ASSERT_TRUE(decode(encode(in), &out));
  EXPECT_EQ(out.sender, in.sender);
  EXPECT_EQ(out.is_add, in.is_add);
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.mac, in.mac);
  expect_strict<IndexUpdate>(encode(in));
}

TEST(MessagesTest, PeerFetchIsExactlyTheHolderAndTheKey) {
  constexpr std::uint32_t kHolder = 0;     // the addressee
  constexpr std::uint32_t kRequester = 2;  // never on the wire
  PeerFetch in;
  in.holder = kHolder;
  in.key = 0x0123456789ABCDEFull;
  const std::string payload = encode(in);
  // §6.2 structurally: four holder bytes and eight key bytes, no room for a
  // requester identity.
  EXPECT_EQ(payload.size(), 12u);
  PeerFetch out;
  ASSERT_TRUE(decode(payload, &out));
  EXPECT_EQ(out.holder, kHolder);
  EXPECT_NE(out.holder, kRequester);
  EXPECT_EQ(out.key, in.key);
  // The retired key-only shape is rejected, not misread.
  Writer legacy;
  legacy.u64(in.key);
  expect_strict<PeerFetch>(payload, {legacy.take()});
}

TEST(MessagesTest, PeerDeliverRoundTrip) {
  PeerDeliver in;
  in.found = true;
  in.body = "document body";
  in.watermark = {1, 2, 3, 4};
  PeerDeliver out;
  ASSERT_TRUE(decode(encode(in), &out));
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.body, in.body);
  EXPECT_EQ(out.watermark, in.watermark);
  expect_strict<PeerDeliver>(encode(in));

  PeerDeliver miss;  // defaults: not found, empty body
  ASSERT_TRUE(decode(encode(miss), &out));
  EXPECT_FALSE(out.found);
  EXPECT_TRUE(out.body.empty());
}

TEST(MessagesTest, StatsRoundTrip) {
  EXPECT_TRUE(encode(StatsRequest{}).empty());
  StatsRequest req;
  EXPECT_TRUE(decode("", &req));
  EXPECT_FALSE(decode("x", &req));

  StatsResponse in;
  in.proxy_hits = 1;
  in.peer_hits = 2;
  in.origin_fetches = 3;
  in.false_forwards = 4;
  in.rejected_index_updates = 5;
  StatsResponse out;
  ASSERT_TRUE(decode(encode(in), &out));
  EXPECT_EQ(out.proxy_hits, 1u);
  EXPECT_EQ(out.peer_hits, 2u);
  EXPECT_EQ(out.origin_fetches, 3u);
  EXPECT_EQ(out.false_forwards, 4u);
  EXPECT_EQ(out.rejected_index_updates, 5u);
  expect_strict<StatsResponse>(encode(in));
}

TEST(MessagesTest, TraceStatsRoundTrip) {
  TraceStatsRequest req;
  req.max_spans = 128;
  TraceStatsRequest req_out;
  ASSERT_TRUE(decode(encode(req), &req_out));
  EXPECT_EQ(req_out.max_spans, 128u);
  expect_strict<TraceStatsRequest>(encode(req));

  TraceStatsResponse in;
  in.json = "{\"schema\":\"baps.trace_stats.v1\",\"spans_recorded\":42}";
  TraceStatsResponse out;
  ASSERT_TRUE(decode(encode(in), &out));
  EXPECT_EQ(out.json, in.json);
  expect_strict<TraceStatsResponse>(encode(in));

  TraceStatsResponse empty;
  ASSERT_TRUE(decode(encode(TraceStatsResponse{}), &empty));
  EXPECT_TRUE(empty.json.empty());
}

TEST(MessagesTest, TimeSeriesRoundTrip) {
  TimeSeriesRequest req;
  req.max_intervals = 16;
  TimeSeriesRequest req_out;
  ASSERT_TRUE(decode(encode(req), &req_out));
  EXPECT_EQ(req_out.max_intervals, 16u);
  expect_strict<TimeSeriesRequest>(encode(req));

  TimeSeriesResponse in;
  in.json =
      "{\"schema\":\"baps.timeseries_window.v1\",\"intervals\":[]}";
  TimeSeriesResponse out;
  ASSERT_TRUE(decode(encode(in), &out));
  EXPECT_EQ(out.json, in.json);
  expect_strict<TimeSeriesResponse>(encode(in));

  TimeSeriesResponse empty;
  ASSERT_TRUE(decode(encode(TimeSeriesResponse{}), &empty));
  EXPECT_TRUE(empty.json.empty());
}

TEST(MessagesTest, ErrorAndByeRoundTrip) {
  ErrorMsg in{"client id out of range"};
  ErrorMsg out;
  ASSERT_TRUE(decode(encode(in), &out));
  EXPECT_EQ(out.message, in.message);
  expect_strict<ErrorMsg>(encode(in));

  EXPECT_TRUE(encode(Bye{}).empty());
  Bye bye;
  EXPECT_TRUE(decode("", &bye));
  EXPECT_FALSE(decode("z", &bye));
}

TEST(MessagesTest, MessageKindsMatchFrameKinds) {
  EXPECT_EQ(Hello::kKind, FrameKind::kHello);
  EXPECT_EQ(HelloAck::kKind, FrameKind::kHelloAck);
  EXPECT_EQ(FetchRequest::kKind, FrameKind::kFetchRequest);
  EXPECT_EQ(FetchResponse::kKind, FrameKind::kFetchResponse);
  EXPECT_EQ(IndexUpdate::kKind, FrameKind::kIndexUpdate);
  EXPECT_EQ(IndexAck::kKind, FrameKind::kIndexAck);
  EXPECT_EQ(PeerFetch::kKind, FrameKind::kPeerFetch);
  EXPECT_EQ(PeerDeliver::kKind, FrameKind::kPeerDeliver);
  EXPECT_EQ(StatsRequest::kKind, FrameKind::kStatsRequest);
  EXPECT_EQ(StatsResponse::kKind, FrameKind::kStatsResponse);
  EXPECT_EQ(ErrorMsg::kKind, FrameKind::kError);
  EXPECT_EQ(Bye::kKind, FrameKind::kBye);
  EXPECT_EQ(TraceStatsRequest::kKind, FrameKind::kTraceStatsRequest);
  EXPECT_EQ(TraceStatsResponse::kKind, FrameKind::kTraceStatsResponse);
  EXPECT_EQ(TimeSeriesRequest::kKind, FrameKind::kTimeSeriesRequest);
  EXPECT_EQ(TimeSeriesResponse::kKind, FrameKind::kTimeSeriesResponse);
}

}  // namespace
}  // namespace baps::wire
