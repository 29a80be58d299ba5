// The epoll frame server against real sockets: echo semantics, partial-frame
// resume (bytes dribbled across many writes decode to the same frames), write
// backpressure bounds, idle-timeout reaping, graceful drain, per-connection
// handler state, and a concurrent many-connection sweep — the properties the
// proxy's edge-triggered loop relies on.
#include "netio/epoll_server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "netio/frame_channel.hpp"
#include "netio/socket.hpp"
#include "wire/frame.hpp"

namespace baps::netio {
namespace {

using Clock = std::chrono::steady_clock;

EpollFrameServer::Params fast_params() {
  EpollFrameServer::Params p;
  p.drain_timeout_ms = 500;
  return p;
}

/// Echoes every frame back; the default handler for these tests.
EpollFrameServer::FrameHandler echo_handler() {
  return [](EpollFrameServer::Connection& conn, wire::Frame&& frame) {
    return conn.send(frame.kind, frame.payload);
  };
}

std::optional<FrameChannel> dial(std::uint16_t port) {
  NetError err;
  auto conn = TcpConnection::connect("127.0.0.1", port, 2000, &err);
  if (!conn.has_value()) return std::nullopt;
  return FrameChannel(std::move(*conn), Deadlines{2000, 5000, 5000});
}

TEST(EpollFrameServerTest, EchoesFramesOverRealSockets) {
  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  auto channel = dial(server.port());
  ASSERT_TRUE(channel.has_value());
  for (int i = 0; i < 10; ++i) {
    const std::string payload = "ping-" + std::to_string(i);
    NetError err;
    ASSERT_TRUE(channel->send(wire::FrameKind::kHello, payload, &err));
    const auto frame = channel->recv(&err);
    ASSERT_TRUE(frame.has_value()) << err.message;
    EXPECT_EQ(frame->kind, wire::FrameKind::kHello);
    EXPECT_EQ(frame->payload, payload);
  }
  channel->close();
  server.stop();
  EXPECT_GE(server.sessions_handled(), 1u);
}

TEST(EpollFrameServerTest, PartialFramesResumeAcrossDribbledWrites) {
  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetError err;
  auto conn = TcpConnection::connect("127.0.0.1", server.port(), 2000, &err);
  ASSERT_TRUE(conn.has_value()) << err.message;

  // Two frames encoded back to back, then pushed through the socket a few
  // bytes at a time: every chunk boundary lands mid-header or mid-payload at
  // some point, so the server's read FSM must park a partial frame and
  // resume it on the next readiness edge.
  const std::string p1(300, 'a');
  const std::string p2 = "tail-frame";
  std::string bytes = wire::encode_frame(wire::FrameKind::kHello, p1);
  bytes += wire::encode_frame(wire::FrameKind::kBye, p2);
  for (std::size_t off = 0; off < bytes.size();) {
    const std::size_t n = std::min<std::size_t>(7, bytes.size() - off);
    ASSERT_TRUE(conn->write_all(bytes.data() + off, n, 2000, &err));
    off += n;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  FrameChannel channel(std::move(*conn), Deadlines{2000, 5000, 5000});
  auto f1 = channel.recv(&err);
  ASSERT_TRUE(f1.has_value()) << err.message;
  EXPECT_EQ(f1->kind, wire::FrameKind::kHello);
  EXPECT_EQ(f1->payload, p1);
  auto f2 = channel.recv(&err);
  ASSERT_TRUE(f2.has_value()) << err.message;
  EXPECT_EQ(f2->kind, wire::FrameKind::kBye);
  EXPECT_EQ(f2->payload, p2);
  server.stop();
}

TEST(EpollFrameServerTest, CoalescedFramesAllReachTheHandler) {
  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetError err;
  auto conn = TcpConnection::connect("127.0.0.1", server.port(), 2000, &err);
  ASSERT_TRUE(conn.has_value()) << err.message;
  // Many frames in ONE write: a single readiness edge carries them all, so
  // the decode loop must keep consuming until kNeedMore, not stop at one.
  std::string bytes;
  for (int i = 0; i < 32; ++i) {
    bytes += wire::encode_frame(wire::FrameKind::kStatsRequest,
                                "req-" + std::to_string(i));
  }
  ASSERT_TRUE(conn->write_all(bytes.data(), bytes.size(), 2000, &err));
  FrameChannel channel(std::move(*conn), Deadlines{2000, 5000, 5000});
  for (int i = 0; i < 32; ++i) {
    const auto frame = channel.recv(&err);
    ASSERT_TRUE(frame.has_value()) << "frame " << i << ": " << err.message;
    EXPECT_EQ(frame->payload, "req-" + std::to_string(i));
  }
  server.stop();
}

TEST(EpollFrameServerTest, HandlerFalseEndsSessionAfterFlushingReplies) {
  // Replies queued by the final frame must still reach the client (the
  // proxy session's "send error reply, then drop" pattern).
  EpollFrameServer server(
      fast_params(),
      [](EpollFrameServer::Connection& conn, wire::Frame&& frame) {
        conn.send(wire::FrameKind::kError, frame.payload);
        return false;
      });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto channel = dial(server.port());
  ASSERT_TRUE(channel.has_value());
  NetError err;
  ASSERT_TRUE(channel->send(wire::FrameKind::kHello, "doomed", &err));
  const auto reply = channel->recv(&err);
  ASSERT_TRUE(reply.has_value()) << err.message;
  EXPECT_EQ(reply->kind, wire::FrameKind::kError);
  EXPECT_EQ(reply->payload, "doomed");
  // Then the server closes: the next read sees EOF, not a timeout.
  EXPECT_FALSE(channel->recv(&err).has_value());
  EXPECT_EQ(err.status, NetStatus::kClosed);
  server.stop();
}

TEST(EpollFrameServerTest, PerConnectionStatePersistsAcrossFrames) {
  EpollFrameServer server(
      fast_params(),
      [](EpollFrameServer::Connection& conn, wire::Frame&&) {
        auto count = std::static_pointer_cast<int>(conn.state());
        if (count == nullptr) {
          count = std::make_shared<int>(0);
          conn.state() = count;
        }
        ++*count;
        return conn.send(wire::FrameKind::kStatsResponse,
                         std::to_string(*count));
      });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto a = dial(server.port());
  auto b = dial(server.port());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  NetError err;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(a->send(wire::FrameKind::kStatsRequest, "", &err));
    const auto fa = a->recv(&err);
    ASSERT_TRUE(fa.has_value());
    EXPECT_EQ(fa->payload, std::to_string(i)) << "state lost or shared";
  }
  // Connection b has its own counter: the state slot is per-connection.
  ASSERT_TRUE(b->send(wire::FrameKind::kStatsRequest, "", &err));
  const auto fb = b->recv(&err);
  ASSERT_TRUE(fb.has_value());
  EXPECT_EQ(fb->payload, "1");
  server.stop();
}

TEST(EpollFrameServerTest, IdleConnectionsAreReaped) {
  EpollFrameServer::Params params = fast_params();
  params.idle_timeout_ms = 150;
  EpollFrameServer server(params, echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto channel = dial(server.port());
  ASSERT_TRUE(channel.has_value());
  // Active traffic keeps the connection alive past the idle budget...
  NetError err;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(channel->send(wire::FrameKind::kHello, "tick", &err));
    ASSERT_TRUE(channel->recv(&err).has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  // ...then silence: the server must close it within a few timeouts.
  const auto frame = channel->recv(&err);
  EXPECT_FALSE(frame.has_value());
  EXPECT_EQ(err.status, NetStatus::kClosed);
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (server.connections_active() != 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.connections_active(), 0u);
  server.stop();
}

TEST(EpollFrameServerTest, StopDrainsQueuedWritesBeforeClosing) {
  // The handler replies with a large frame and the client reads slowly:
  // stop() must let the queued bytes flush (within drain_timeout_ms), so the
  // client still receives a complete, CRC-valid frame after stop() begins.
  const std::string big(2u << 20, 'x');
  EpollFrameServer::Params params = fast_params();
  params.drain_timeout_ms = 5000;
  EpollFrameServer server(
      params, [&big](EpollFrameServer::Connection& conn, wire::Frame&&) {
        conn.send(wire::FrameKind::kFetchResponse, big);
        conn.close_after_flush();
        return true;
      });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto channel = dial(server.port());
  ASSERT_TRUE(channel.has_value());
  NetError err;
  ASSERT_TRUE(channel->send(wire::FrameKind::kFetchRequest, "want", &err));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread stopper([&server] { server.stop(); });
  const auto frame = channel->recv(&err);
  stopper.join();
  ASSERT_TRUE(frame.has_value()) << err.message;
  EXPECT_EQ(frame->payload.size(), big.size());
  EXPECT_FALSE(server.running());
}

TEST(EpollFrameServerTest, ManyConcurrentConnectionsAllEcho) {
  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Open a batch of connections FIRST, then exchange on all of them: the
  // server is demonstrably holding them concurrently, not serially.
  constexpr int kConns = 64;
  std::vector<FrameChannel> channels;
  channels.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    auto channel = dial(server.port());
    ASSERT_TRUE(channel.has_value()) << "dial " << i;
    channels.push_back(std::move(*channel));
  }
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (server.connections_active() < kConns && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.connections_active(), static_cast<std::size_t>(kConns));
  NetError err;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kConns; ++i) {
      const std::string payload =
          std::to_string(round) + ":" + std::to_string(i);
      ASSERT_TRUE(channels[static_cast<std::size_t>(i)].send(
          wire::FrameKind::kHello, payload, &err));
      const auto frame = channels[static_cast<std::size_t>(i)].recv(&err);
      ASSERT_TRUE(frame.has_value()) << err.message;
      EXPECT_EQ(frame->payload, payload);
    }
  }
  for (auto& c : channels) c.close();
  server.stop();
  EXPECT_GE(server.sessions_handled(), static_cast<std::uint64_t>(kConns));
}

TEST(EpollFrameServerTest, ConnectionCeilingParksAcceptUntilACloseFreesASlot) {
  EpollFrameServer::Params params = fast_params();
  params.max_connections = 2;
  EpollFrameServer server(params, echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto a = dial(server.port());
  auto b = dial(server.port());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  NetError err;
  ASSERT_TRUE(a->send(wire::FrameKind::kHello, "a", &err));
  ASSERT_TRUE(a->recv(&err).has_value());
  ASSERT_TRUE(b->send(wire::FrameKind::kHello, "b", &err));
  ASSERT_TRUE(b->recv(&err).has_value());

  // A third dial connects at TCP level (backlog) but is not accepted: its
  // frame gets no echo while the ceiling holds.
  auto c = dial(server.port());
  ASSERT_TRUE(c.has_value());
  ASSERT_TRUE(c->send(wire::FrameKind::kHello, "c", &err));
  EXPECT_EQ(server.connections_active(), 2u);

  // Closing one parked-out connection frees the slot; the server un-parks
  // and finally serves c.
  a->close();
  const auto frame = c->recv(&err);
  ASSERT_TRUE(frame.has_value()) << err.message;
  EXPECT_EQ(frame->payload, "c");
  server.stop();
}

}  // namespace
}  // namespace baps::netio
