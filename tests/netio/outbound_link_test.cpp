// Outbound links owned by the epoll loop: a non-blocking dial completes and
// carries a frame round trip, a refused dial and a missed reply deadline
// each close the link and fire the close hook (the deadline counted as a
// peer timeout, not an idle close), and a parked session's next frame waits
// for the reply to the one before it while other sessions are still served.
// Tasks posted from another thread run on the loop thread in order and may
// dial; post() after stop() runs nothing. Dials that fail for want of fds
// (RLIMIT_NOFILE lowered) each fire the close hook once, leave accepted
// sessions served, and succeed again once the limit is restored.
//
// The server under test relays: a client session sends "dial:<port>:<ms>",
// the handler parks the session, dials the port and sends "ping" with a
// reply deadline of <ms>; the link's reply (or its close) is relayed back
// to the session, which is then unparked. "now" is answered at once.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

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

/// The highest fd number this process has open.
int highest_open_fd() {
  int highest = -1;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  return highest;
}

/// Session id of a link no client session waits on (session ids start at 1).
constexpr std::uint64_t kNoSession = 0;

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
    if (saved_limit_.has_value()) ::setrlimit(RLIMIT_NOFILE, &*saved_limit_);
    relay_->stop();
    echo_.stop();
  }

  /// Runs `task` on the relay's loop and waits until it, and the close hooks
  /// of whatever it closed, have run.
  void run_on_loop(std::function<void()> task) {
    std::promise<void> done;
    ASSERT_TRUE(relay_->post([&] {
      task();
      // Posted from the loop, so it runs on a later pass: after this pass's
      // close hooks.
      relay_->post([&] { done.set_value(); });
    }));
    done.get_future().wait();
  }

  bool on_session(Connection& conn, const wire::Frame& frame) {
    loop_thread_.store(std::this_thread::get_id());
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
    if (*session == kNoSession) link_replies_.push_back(frame.payload);
    if (Connection* s = relay_->find(*session)) {
      s->send(frame.kind, "reply:" + frame.payload);
      s->unpark();
    }
    link.state().reset();  // answered: the close hook has nothing to relay
    return true;
  }

  void on_closed(Connection& link) {
    closes_.fetch_add(1);
    closed_ids_.push_back(link.id());
    const auto session = std::static_pointer_cast<std::uint64_t>(link.state());
    if (session == nullptr) return;
    if (Connection* s = relay_->find(*session)) {
      s->send(wire::FrameKind::kError, "closed");
      s->unpark();
    }
  }

  std::atomic<int> closes_{0};
  std::atomic<std::thread::id> loop_thread_{};
  // Loop thread only; read by the test after run_on_loop() returns.
  std::vector<std::uint64_t> closed_ids_;
  std::vector<std::string> link_replies_;
  std::optional<rlimit> saved_limit_;
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

TEST_F(OutboundLinkTest, PostedTasksRunOnTheLoopThreadInOrder) {
  auto client = dial(relay_->port());
  ASSERT_TRUE(client.has_value());
  ASSERT_EQ(ask(*client, "now"), "now");  // records the loop thread
  std::vector<int> order;
  std::vector<std::thread::id> threads;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(relay_->post([&, i] {
      order.push_back(i);
      threads.push_back(std::this_thread::get_id());
    }));
  }
  run_on_loop([] {});
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  for (const std::thread::id id : threads) {
    EXPECT_EQ(id, loop_thread_.load());
    EXPECT_NE(id, std::this_thread::get_id());
  }
}

TEST_F(OutboundLinkTest, PostedTaskDialsAndRoundTripsAFrame) {
  run_on_loop([this] {
    Connection& link = relay_->connect(kHost, echo_.port(), 500);
    link.state() = std::make_shared<std::uint64_t>(kNoSession);
    link.send(wire::FrameKind::kHello, "ping");
    link.expect_reply(2000);
  });
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::vector<std::string> replies;
  while (replies.empty() && Clock::now() < deadline) {
    run_on_loop([&] { replies = link_replies_; });
  }
  EXPECT_EQ(replies, std::vector<std::string>{"ping"});
  EXPECT_EQ(closes_.load(), 0);
}

TEST_F(OutboundLinkTest, PostAfterStopReturnsFalseAndRunsNothing) {
  relay_->stop();
  bool ran = false;
  EXPECT_FALSE(relay_->post([&ran] { ran = true; }));
  EXPECT_FALSE(ran);
}

TEST_F(OutboundLinkTest, DialsOutOfFdsFireTheCloseHookOnceEach) {
  NetError err;
  auto black_hole = TcpListener::listen(kHost, 0, 64, &err);
  ASSERT_TRUE(black_hole.has_value()) << err.message;
  auto client = dial(relay_->port());
  ASSERT_TRUE(client.has_value());
  ASSERT_EQ(ask(*client, "now"), "now");  // accepted before the limit drops

  // A few fd numbers above the highest open one; the holes below it are few.
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  saved_limit_ = limit;
  rlimit low = limit;
  low.rlim_cur = static_cast<rlim_t>(highest_open_fd() + 1 + 3);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  // Dial until four dials in a row have failed.
  std::vector<std::uint64_t> opened;
  std::vector<std::uint64_t> failed;
  run_on_loop([&] {
    while (failed.size() < 4 && opened.size() < 64) {
      Connection& link = relay_->connect(kHost, black_hole->port(), 2000);
      link.state() = std::make_shared<std::uint64_t>(kNoSession);
      (link.closed() ? failed : opened).push_back(link.id());
    }
  });
  ASSERT_EQ(failed.size(), 4u) << opened.size() << " dials got an fd";
  EXPECT_EQ(ask(*client, "now"), "now");  // the session is still served
  std::vector<std::uint64_t> closed;
  run_on_loop([&] { closed = closed_ids_; });
  EXPECT_EQ(closed, failed) << "each failed dial closes exactly once";

  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &limit), 0);
  saved_limit_.reset();
  EXPECT_EQ(ask(*client, "dial:" + std::to_string(echo_.port()) + ":2000"),
            "reply:ping");
  run_on_loop([&] { closed = closed_ids_; });
  EXPECT_EQ(closed, failed);
}

}  // namespace
}  // namespace baps::netio
