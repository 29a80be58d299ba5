// The peer-fetch channel pool against a real epoll echo server: a first
// acquire dials, a released channel is reused, at most one channel is parked
// per target, a channel whose far end closed while parked comes back
// `reused` and fails its exchange (the signal ProxyServer::peer_fetch retries
// on a fresh dial), an invalid channel is never parked, and clear() empties
// the pool.
#include "netio/channel_pool.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "netio/epoll_server.hpp"
#include "obs/registry.hpp"
#include "wire/frame.hpp"

namespace baps::netio {
namespace {

const std::string kHost = "127.0.0.1";

/// Echoes every frame; a "close" payload is echoed and then ends the
/// session, so the far end of a parked channel can hang up on cue.
EpollFrameServer::FrameHandler echo_or_close() {
  return [](EpollFrameServer::Connection& conn, wire::Frame&& frame) {
    return conn.send(frame.kind, frame.payload) && frame.payload != "close";
  };
}

EpollFrameServer::Params server_params() {
  EpollFrameServer::Params p;
  p.drain_timeout_ms = 500;
  return p;
}

ChannelPool::Params pool_params() {
  return ChannelPool::Params{Deadlines{2000, 2000, 2000}};
}

bool echo(FrameChannel& channel, const std::string& payload) {
  NetError err;
  if (!channel.send(wire::FrameKind::kHello, payload, &err)) return false;
  const auto frame = channel.recv(&err);
  return frame.has_value() && frame->payload == payload;
}

std::uint64_t pool_counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

class ChannelPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(server_.start(&error)) << error;
  }
  void TearDown() override { server_.stop(); }

  EpollFrameServer server_{server_params(), echo_or_close()};
  ChannelPool pool_{pool_params()};
};

TEST_F(ChannelPoolTest, FirstAcquireDials) {
  const std::uint64_t dials = pool_counter("netio_pool_dial_total");
  NetError err;
  auto acquired = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(acquired.channel, nullptr) << err.message;
  EXPECT_FALSE(acquired.reused);
  EXPECT_TRUE(echo(*acquired.channel, "ping"));
  EXPECT_EQ(pool_counter("netio_pool_dial_total"), dials + 1);
  EXPECT_EQ(pool_.idle_count(), 0u);
}

TEST_F(ChannelPoolTest, ReleasedChannelIsReused) {
  NetError err;
  auto first = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(first.channel, nullptr) << err.message;
  ASSERT_TRUE(echo(*first.channel, "one"));
  const FrameChannel* parked = first.channel.get();
  pool_.release(kHost, server_.port(), std::move(first.channel));
  EXPECT_EQ(pool_.idle_count(), 1u);

  const std::uint64_t reuses = pool_counter("netio_pool_reuse_total");
  const std::uint64_t dials = pool_counter("netio_pool_dial_total");
  auto second = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(second.channel, nullptr);
  EXPECT_TRUE(second.reused);
  EXPECT_EQ(second.channel.get(), parked);
  EXPECT_TRUE(echo(*second.channel, "two"));
  EXPECT_EQ(pool_counter("netio_pool_reuse_total"), reuses + 1);
  EXPECT_EQ(pool_counter("netio_pool_dial_total"), dials);
  EXPECT_EQ(pool_.idle_count(), 0u);
}

TEST_F(ChannelPoolTest, AtMostOneChannelIsParkedPerTarget) {
  NetError err;
  auto a = pool_.acquire(kHost, server_.port(), &err);
  auto b = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(a.channel, nullptr);
  ASSERT_NE(b.channel, nullptr);
  EXPECT_FALSE(b.reused);
  pool_.release(kHost, server_.port(), std::move(a.channel));
  pool_.release(kHost, server_.port(), std::move(b.channel));
  EXPECT_EQ(pool_.idle_count(), 1u);
  auto again = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(again.channel, nullptr);
  EXPECT_TRUE(again.reused);
  EXPECT_TRUE(echo(*again.channel, "still up"));
}

TEST_F(ChannelPoolTest, ChannelClosedWhileParkedComesBackReusedAndFails) {
  NetError err;
  auto first = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(first.channel, nullptr) << err.message;
  // The far end answers, then hangs up: the exchange succeeded, so the
  // channel is parked, but its socket is dead.
  ASSERT_TRUE(echo(*first.channel, "close"));
  pool_.release(kHost, server_.port(), std::move(first.channel));
  ASSERT_EQ(pool_.idle_count(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto stale = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(stale.channel, nullptr);
  EXPECT_TRUE(stale.reused);
  EXPECT_FALSE(echo(*stale.channel, "hello?"));

  // What peer_fetch does next: a fresh dial, which works.
  auto fresh = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(fresh.channel, nullptr) << err.message;
  EXPECT_FALSE(fresh.reused);
  EXPECT_TRUE(echo(*fresh.channel, "hello"));
}

TEST_F(ChannelPoolTest, InvalidChannelIsNeverParked) {
  NetError err;
  auto acquired = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(acquired.channel, nullptr) << err.message;
  acquired.channel->close();
  pool_.release(kHost, server_.port(), std::move(acquired.channel));
  pool_.release(kHost, server_.port(), nullptr);
  EXPECT_EQ(pool_.idle_count(), 0u);
  auto next = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(next.channel, nullptr);
  EXPECT_FALSE(next.reused);
}

TEST_F(ChannelPoolTest, ClearEmptiesThePool) {
  EpollFrameServer other(server_params(), echo_or_close());
  std::string error;
  ASSERT_TRUE(other.start(&error)) << error;
  NetError err;
  for (const std::uint16_t port : {server_.port(), other.port()}) {
    auto acquired = pool_.acquire(kHost, port, &err);
    ASSERT_NE(acquired.channel, nullptr) << err.message;
    pool_.release(kHost, port, std::move(acquired.channel));
  }
  EXPECT_EQ(pool_.idle_count(), 2u);
  pool_.clear();
  EXPECT_EQ(pool_.idle_count(), 0u);
  auto after = pool_.acquire(kHost, server_.port(), &err);
  ASSERT_NE(after.channel, nullptr);
  EXPECT_FALSE(after.reused);
  other.stop();
}

}  // namespace
}  // namespace baps::netio
