// FrameChannel's read path over a real socket: frames that share a write
// come back one per recv in order, a frame trickled a byte at a time still
// decodes, a slow-loris sender gets one read deadline for the whole frame,
// and a header claiming an oversized payload is rejected without waiting
// for any payload byte.
#include "netio/frame_channel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "obs/registry.hpp"
#include "wire/frame.hpp"

namespace baps::netio {
namespace {

using Clock = std::chrono::steady_clock;

/// A raw writer end and a FrameChannel reading the other end.
struct RawToChannel {
  TcpConnection writer;
  FrameChannel reader;
};

std::optional<RawToChannel> connect_pair(
    int read_ms, std::uint64_t max_payload = wire::kDefaultMaxPayload) {
  NetError err;
  auto listener = TcpListener::listen("127.0.0.1", 0, 8, &err);
  if (!listener.has_value()) return std::nullopt;
  auto conn = TcpConnection::connect("127.0.0.1", listener->port(), 1000, &err);
  if (!conn.has_value()) return std::nullopt;
  auto accepted = listener->accept(1000, &err);
  if (!accepted.has_value()) return std::nullopt;
  return RawToChannel{
      std::move(*conn),
      FrameChannel(std::move(*accepted), Deadlines{1000, read_ms, 1000},
                   max_payload)};
}

long long ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

TEST(FrameChannelTest, TwoFramesInOneWriteComeBackInOrder) {
  auto pair = connect_pair(2000);
  ASSERT_TRUE(pair.has_value());
  const std::string bytes =
      wire::encode_frame(wire::FrameKind::kFetchResponse, "first body") +
      wire::encode_frame(wire::FrameKind::kBye, "second");
  NetError err;
  ASSERT_TRUE(pair->writer.write_all(bytes.data(), bytes.size(), 1000, &err));
  // The writer is closed before either recv: whatever the first read took
  // in, the second frame must still come back whole, from the read-ahead
  // or the socket.
  pair->writer.close();
  const auto first = pair->reader.recv(&err);
  ASSERT_TRUE(first.has_value()) << err.message;
  EXPECT_EQ(first->kind, wire::FrameKind::kFetchResponse);
  EXPECT_EQ(first->payload, "first body");
  const auto second = pair->reader.recv(&err);
  ASSERT_TRUE(second.has_value()) << err.message;
  EXPECT_EQ(second->kind, wire::FrameKind::kBye);
  EXPECT_EQ(second->payload, "second");
  // Then the orderly EOF, not a stray frame.
  EXPECT_FALSE(pair->reader.recv(&err).has_value());
  EXPECT_EQ(err.status, NetStatus::kClosed);
}

TEST(FrameChannelTest, FrameTrickledOneByteAtATimeDecodes) {
  auto pair = connect_pair(5000);
  ASSERT_TRUE(pair.has_value());
  const std::string payload(200, 'p');
  const std::string bytes =
      wire::encode_frame(wire::FrameKind::kPeerDeliver, payload);
  std::thread writer([&] {
    NetError werr;
    for (const char c : bytes) {
      if (!pair->writer.write_all(&c, 1, 1000, &werr)) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  NetError err;
  const auto frame = pair->reader.recv(&err);
  writer.join();
  ASSERT_TRUE(frame.has_value()) << err.message;
  EXPECT_EQ(frame->kind, wire::FrameKind::kPeerDeliver);
  EXPECT_EQ(frame->payload, payload);
}

TEST(FrameChannelTest, SlowLorisGetsOneDeadlineForTheWholeFrame) {
  // The header trickles in over most of the deadline, then the payload
  // trickles on. A fresh deadline per read phase would let the sender hold
  // the reader for nearly two deadlines; one deadline for the frame ends it
  // at about one.
  constexpr int kReadMs = 500;
  auto pair = connect_pair(kReadMs);
  ASSERT_TRUE(pair.has_value());
  const std::string bytes =
      wire::encode_frame(wire::FrameKind::kFetchRequest, std::string(64, 'x'));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    NetError werr;
    for (const char c : bytes) {
      if (stop.load()) return;
      if (!pair->writer.write_all(&c, 1, 1000, &werr)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });
  const auto started = Clock::now();
  NetError err;
  const auto frame = pair->reader.recv(&err);
  const long long elapsed = ms_since(started);
  stop.store(true);
  writer.join();
  EXPECT_FALSE(frame.has_value());
  EXPECT_EQ(err.status, NetStatus::kTimeout);
  EXPECT_GE(elapsed, kReadMs - 50);
  // Header done at ~480 ms, so a fresh payload deadline would end at ~980.
  EXPECT_LT(elapsed, kReadMs + 300);
}

TEST(FrameChannelTest, OversizedLengthIsRejectedBeforeAnyPayloadByte) {
  auto pair = connect_pair(5000, /*max_payload=*/1024);
  ASSERT_TRUE(pair.has_value());
  // Only the header goes out: it claims 4 KiB against a 1-KiB ceiling.
  std::string bytes =
      wire::encode_frame(wire::FrameKind::kFetchResponse, std::string(4096, 'y'));
  bytes.resize(wire::kHeaderSize);
  const obs::Counter& oversized = obs::Registry::global().counter(
      "wire_decode_errors_total", {{"reason", "oversized"}});
  const std::uint64_t before = oversized.value();
  NetError err;
  ASSERT_TRUE(pair->writer.write_all(bytes.data(), bytes.size(), 1000, &err));
  const auto started = Clock::now();
  const auto frame = pair->reader.recv(&err);
  EXPECT_FALSE(frame.has_value());
  EXPECT_EQ(err.status, NetStatus::kError);
  EXPECT_NE(err.message.find("oversized"), std::string::npos) << err.message;
  EXPECT_EQ(oversized.value(), before + 1);
  // Rejected on the header alone, not after the 5-s read deadline.
  EXPECT_LT(ms_since(started), 1000);
}

}  // namespace
}  // namespace baps::netio
