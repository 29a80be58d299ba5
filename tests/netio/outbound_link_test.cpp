// Outbound links owned by the epoll loop: a non-blocking dial completes and
// carries a frame round trip, a refused dial and a missed reply deadline
// each close the link and fire the close hook (the deadline counted as a
// peer timeout, not an idle close), and a parked session's next frame waits
// for the reply to the one before it while other sessions are still served.
//
// The server under test relays: a client session sends "dial:<port>:<ms>",
// the handler parks the session, dials the port and sends "ping" with a
// reply deadline of <ms>; the link's reply (or its close) is relayed back
// to the session, which is then unparked. "now" is answered at once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "netio/epoll_server.hpp"
#include "netio/frame_channel.hpp"
#include "netio/socket.hpp"
#include "obs/registry.hpp"
#include "wire/frame.hpp"

namespace baps::netio {
namespace {

using Clock = std::chrono::steady_clock;
using Connection = EpollFrameServer::Connection;

const std::string kHost = "127.0.0.1";

EpollFrameServer::Params fast_params() {
  EpollFrameServer::Params p;
  p.drain_timeout_ms = 500;
  return p;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::optional<FrameChannel> dial(std::uint16_t port) {
  NetError err;
  auto conn = TcpConnection::connect(kHost, port, 2000, &err);
  if (!conn.has_value()) return std::nullopt;
  return FrameChannel(std::move(*conn), Deadlines{2000, 5000, 5000});
}

/// Sends one frame and returns the payload of the next frame read back.
std::string ask(FrameChannel& channel, const std::string& payload) {
  NetError err;
  if (!channel.send(wire::FrameKind::kHello, payload, &err)) return "!send";
  const auto frame = channel.recv(&err);
  return frame.has_value() ? frame->payload : "!" + err.message;
}

/// A port nothing listens on: bound once, then closed.
std::uint16_t dead_port() {
  NetError err;
  auto listener = TcpListener::listen(kHost, 0, 1, &err);
  return listener.has_value() ? listener->port() : 0;
}

class OutboundLinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    relay_ = std::make_unique<EpollFrameServer>(
        fast_params(),
        [this](Connection& conn, wire::Frame&& frame) {
          return conn.outbound() ? on_link(conn, frame)
                                 : on_session(conn, frame);
        },
        [this](Connection& link) { on_closed(link); });
    std::string error;
    ASSERT_TRUE(relay_->start(&error)) << error;
    ASSERT_TRUE(echo_.start(&error)) << error;
  }

  void TearDown() override {
    relay_->stop();
    echo_.stop();
  }

  bool on_session(Connection& conn, const wire::Frame& frame) {
    if (frame.payload == "now") return conn.send(frame.kind, "now");
    // "dial:<port>:<reply deadline ms>"
    const std::size_t colon = frame.payload.find(':', 5);
    const auto port = static_cast<std::uint16_t>(
        std::stoi(frame.payload.substr(5, colon - 5)));
    const int deadline_ms = std::stoi(frame.payload.substr(colon + 1));
    conn.park();
    Connection& link = relay_->connect(kHost, port, 500);
    link.state() = std::make_shared<std::uint64_t>(conn.id());
    if (link.send(wire::FrameKind::kHello, "ping")) {
      link.expect_reply(deadline_ms);
    }
    return true;
  }

  bool on_link(Connection& link, const wire::Frame& frame) {
    const auto session = std::static_pointer_cast<std::uint64_t>(link.state());
    if (Connection* s = relay_->find(*session)) {
      s->send(frame.kind, "reply:" + frame.payload);
      s->unpark();
    }
    link.state().reset();  // answered: the close hook has nothing to relay
    return true;
  }

  void on_closed(Connection& link) {
    closes_.fetch_add(1);
    const auto session = std::static_pointer_cast<std::uint64_t>(link.state());
    if (session == nullptr) return;
    if (Connection* s = relay_->find(*session)) {
      s->send(wire::FrameKind::kError, "closed");
      s->unpark();
    }
  }

  std::atomic<int> closes_{0};
  EpollFrameServer echo_{fast_params(),
                         [](Connection& conn, wire::Frame&& frame) {
                           return conn.send(frame.kind, frame.payload);
                         }};
  std::unique_ptr<EpollFrameServer> relay_;  // its loop uses the above
};

TEST_F(OutboundLinkTest, ConnectsToAListenerAndRoundTripsAFrame) {
  auto client = dial(relay_->port());
  ASSERT_TRUE(client.has_value());
  const std::string cmd = "dial:" + std::to_string(echo_.port()) + ":2000";
  EXPECT_EQ(ask(*client, cmd), "reply:ping");
  // The link stays open for reuse: no close was reported, and it does not
  // count as an accepted session.
  EXPECT_EQ(closes_.load(), 0);
  EXPECT_EQ(relay_->connections_active(), 1u);
  EXPECT_EQ(ask(*client, cmd), "reply:ping");
}

TEST_F(OutboundLinkTest, RefusedConnectFiresTheCloseHook) {
  const std::uint16_t port = dead_port();
  ASSERT_NE(port, 0);
  auto client = dial(relay_->port());
  ASSERT_TRUE(client.has_value());
  const auto start = Clock::now();
  EXPECT_EQ(ask(*client, "dial:" + std::to_string(port) + ":2000"), "closed");
  EXPECT_LT(Clock::now() - start, std::chrono::milliseconds(400))
      << "a refused dial must not wait out the connect deadline";
  EXPECT_EQ(closes_.load(), 1);
}

TEST_F(OutboundLinkTest, ReplyDeadlineClosesTheLinkAndFiresTheHook) {
  // A listener that never accepts: the kernel completes the handshake and
  // the ping sits unread, so only the reply deadline ends the wait.
  NetError err;
  auto black_hole = TcpListener::listen(kHost, 0, 8, &err);
  ASSERT_TRUE(black_hole.has_value()) << err.message;
  const std::uint64_t timeouts = counter("netio_peer_timeouts_total");
  const std::uint64_t idle = counter("netio_epoll_idle_closes_total");
  auto client = dial(relay_->port());
  ASSERT_TRUE(client.has_value());
  const auto start = Clock::now();
  EXPECT_EQ(ask(*client, "dial:" + std::to_string(black_hole->port()) +
                             ":150"),
            "closed");
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(150));
  EXPECT_EQ(closes_.load(), 1);
  EXPECT_EQ(counter("netio_peer_timeouts_total"), timeouts + 1);
  EXPECT_EQ(counter("netio_epoll_idle_closes_total"), idle);
}

TEST_F(OutboundLinkTest, ParkedSessionsNextFrameWaitsForItsReply) {
  NetError err;
  auto black_hole = TcpListener::listen(kHost, 0, 8, &err);
  ASSERT_TRUE(black_hole.has_value()) << err.message;
  auto parked = dial(relay_->port());
  auto other = dial(relay_->port());
  ASSERT_TRUE(parked.has_value());
  ASSERT_TRUE(other.has_value());

  // Two frames back to back: the second is already in the relay's socket
  // buffer while the first waits on the black hole.
  const auto start = Clock::now();
  ASSERT_TRUE(parked->send(wire::FrameKind::kHello,
                           "dial:" + std::to_string(black_hole->port()) +
                               ":300",
                           &err));
  ASSERT_TRUE(parked->send(wire::FrameKind::kHello, "now", &err));

  // Meanwhile another session is answered at once.
  EXPECT_EQ(ask(*other, "now"), "now");
  EXPECT_LT(Clock::now() - start, std::chrono::milliseconds(250));

  const auto first = parked->recv(&err);
  ASSERT_TRUE(first.has_value()) << err.message;
  EXPECT_EQ(first->payload, "closed");
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(300));
  const auto second = parked->recv(&err);
  ASSERT_TRUE(second.has_value()) << err.message;
  EXPECT_EQ(second->payload, "now");
}

}  // namespace
}  // namespace baps::netio
