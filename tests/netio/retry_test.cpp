// Regression tests for two netio timing bugs: the retry backoff that a zero
// initial_backoff_ms froze at 0ms forever (a hot retry spin), and the frame
// receive deadline that restarted in full for the payload read (a slow-loris
// peer could hold a worker for ~2x the configured timeout).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "netio/frame_channel.hpp"
#include "netio/retry.hpp"
#include "netio/socket.hpp"
#include "wire/frame.hpp"
#include "wire/messages.hpp"

namespace baps::netio {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

TEST(RetryBackoffTest, ZeroInitialBackoffStillBacksOff) {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 0;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 250;

  int attempts = 0;
  const auto start = Clock::now();
  NetError err;
  const bool ok = retry_with_backoff(
      policy, "test_zero_backoff",
      [&attempts](NetError* e) {
        ++attempts;
        e->status = NetStatus::kRefused;  // transient: keeps retrying
        return false;
      },
      &err);
  const auto elapsed = ms_since(start);

  EXPECT_FALSE(ok);
  EXPECT_EQ(attempts, 8);
  // Sleeps are 0,1,2,4,8,16,32ms once the clamp kicks in — 63ms minimum.
  // The frozen-at-zero bug finished in ~0ms.
  EXPECT_GE(elapsed, 50);
}

TEST(RetryBackoffTest, MultiplierBelowOneCannotStallAtZero) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 1;
  policy.multiplier = 0.1;  // rounds to 0 without the clamp
  policy.max_backoff_ms = 250;

  const auto start = Clock::now();
  NetError err;
  retry_with_backoff(
      policy, "test_tiny_multiplier",
      [](NetError* e) {
        e->status = NetStatus::kReset;
        return false;
      },
      &err);
  // 1 + 1 + 1 ms of clamped sleeps.
  EXPECT_GE(ms_since(start), 3);
}

TEST(RetryBackoffTest, NonTransientErrorFailsWithoutRetrying) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int attempts = 0;
  NetError err;
  EXPECT_FALSE(retry_with_backoff(
      policy, "test_hard_error",
      [&attempts](NetError* e) {
        ++attempts;
        e->status = NetStatus::kTimeout;
        return false;
      },
      &err));
  EXPECT_EQ(attempts, 1);
}

TEST(FrameDeadlineTest, PayloadReadDoesNotRestartTheDeadline) {
  NetError err;
  auto listener = TcpListener::listen("127.0.0.1", 0, 1, &err);
  ASSERT_TRUE(listener.has_value()) << err.message;

  // The slow-loris peer: deliver the header late, then withhold the payload
  // the header promised forever.
  std::thread peer([port = listener->port()] {
    NetError perr;
    auto conn = TcpConnection::connect("127.0.0.1", port, 2000, &perr);
    if (!conn.has_value()) return;
    wire::Hello hello;
    hello.peer_port = 4242;  // the 2-byte payload the peer never sends
    const std::string frame =
        wire::encode_frame(wire::FrameKind::kHello, wire::encode(hello));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    conn->write_all(frame.data(), wire::kHeaderSize, 1000, &perr);
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  });

  auto accepted = listener->accept(2000, &err);
  ASSERT_TRUE(accepted.has_value()) << err.message;
  FrameChannel channel(std::move(*accepted), Deadlines{2000, 500, 500});

  const auto start = Clock::now();
  const auto got = channel.recv(500, &err);
  const auto elapsed = ms_since(start);
  peer.join();

  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(err.status, NetStatus::kTimeout) << err.message;
  // One whole-frame deadline: ~500ms total. The restarted-deadline bug spent
  // ~300ms on the header and then a fresh 500ms on the payload (~800ms).
  EXPECT_LT(elapsed, 700) << "payload read restarted the deadline";
  EXPECT_GE(elapsed, 450);
}

}  // namespace
}  // namespace baps::netio
