// The proxy's links to holder hosts, against a live ProxyServer and a
// scripted holder host: an idle link is reused for the next fetch, a reused
// link that fails retries once on a fresh dial and still delivers, and two
// fetches in flight to one host at once use two links — one request per
// link, since a PeerDeliver names no key. Client hosts are RawHost sessions,
// so the test decides exactly which holder the index names.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "netio/epoll_server.hpp"
#include "obs/registry.hpp"
#include "raw_host.hpp"
#include "runtime/proxy_server.hpp"

namespace baps::runtime {
namespace {

using netio::EpollFrameServer;
using testing::RawHost;

constexpr std::uint64_t kSeed = 17;
constexpr std::uint32_t kClients = 3;
constexpr ClientId kHolder = 0;

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

ProxyServer::Params proxy_params() {
  ProxyServer::Params p;
  p.core.num_clients = kClients;
  p.core.seed = kSeed;
  return p;
}

/// A holder host's peer server that delivers every key it is asked for.
/// It can hold replies back until `batch` requests are waiting, and can
/// hang up — without answering — on the first request that arrives on a
/// connection which already served one.
class ScriptedHolder {
 public:
  explicit ScriptedHolder(std::size_t batch = 1)
      : batch_(batch),
        server_(EpollFrameServer::Params{},
                [this](EpollFrameServer::Connection& conn,
                       wire::Frame&& frame) { return serve(conn, frame); }) {}
  ScriptedHolder(const ScriptedHolder&) = delete;
  ScriptedHolder& operator=(const ScriptedHolder&) = delete;

  bool start() {
    std::string error;
    return server_.start(&error);
  }
  void stop() { server_.stop(); }
  std::uint16_t port() const { return server_.port(); }

  std::atomic<bool> drop_reused{false};

  /// Connections that carried at least one PeerFetch.
  std::size_t links_seen() {
    const std::lock_guard<std::mutex> lock(mu_);
    return links_.size();
  }

 private:
  bool serve(EpollFrameServer::Connection& conn, const wire::Frame& frame) {
    wire::PeerFetch request;
    if (frame.kind != wire::PeerFetch::kKind ||
        !wire::decode(frame.payload, &request)) {
      return false;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const bool seen = !links_.insert(conn.id()).second;
      if (seen && drop_reused.exchange(false)) return false;
    }
    waiting_.push_back({conn.id(), request.key});
    if (waiting_.size() < batch_) return true;
    for (const auto& [id, key] : waiting_) {
      if (EpollFrameServer::Connection* c = server_.find(id)) {
        wire::PeerDeliver deliver;
        deliver.found = true;
        deliver.body = "held:" + std::to_string(key);
        deliver.watermark = {1, 2, 3};
        c->send(wire::PeerDeliver::kKind, wire::encode(deliver));
      }
    }
    waiting_.clear();
    return true;
  }

  const std::size_t batch_;
  /// Loop-thread only: requests held back until the batch fills.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> waiting_;
  std::mutex mu_;
  std::set<std::uint64_t> links_;  ///< guarded by mu_
  EpollFrameServer server_;        // declared last: its loop uses the above
};

class PeerLinkTest : public ::testing::Test {
 protected:
  void start(ScriptedHolder& holder) {
    ASSERT_TRUE(holder.start());
    std::string error;
    ASSERT_TRUE(server_.start(&error)) << error;
    // The holder's host registers one browser's cache with the proxy.
    holder_host_ = std::make_unique<RawHost>(server_.port(), holder.port(),
                                             kSeed, kClients);
    ASSERT_TRUE(holder_host_->ok());
  }

  void TearDown() override { server_.stop(); }

  ProxyServer server_{proxy_params()};
  std::unique_ptr<RawHost> holder_host_;
};

TEST_F(PeerLinkTest, IdleLinkIsReused) {
  ScriptedHolder holder;
  start(holder);
  ASSERT_TRUE(holder_host_->announce(kHolder, "http://a.test/1"));
  RawHost client(server_.port(), 0, kSeed, kClients);

  const std::uint64_t dials = counter("netio_pool_dial_total");
  const std::uint64_t reuses = counter("netio_pool_reuse_total");
  for (int i = 0; i < 3; ++i) {
    const auto reply = client.fetch(1, "http://a.test/1");
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->source, wire::WireSource::kRemoteBrowser);
    EXPECT_EQ(reply->body, "held:" + std::to_string(url_key("http://a.test/1")));
  }
  EXPECT_EQ(counter("netio_pool_dial_total"), dials + 1);
  EXPECT_EQ(counter("netio_pool_reuse_total"), reuses + 2);
  EXPECT_EQ(holder.links_seen(), 1u);
  holder.stop();
}

TEST_F(PeerLinkTest, ReusedLinkThatFailsRetriesOnceOnAFreshDial) {
  ScriptedHolder holder;
  start(holder);
  ASSERT_TRUE(holder_host_->announce(kHolder, "http://b.test/1"));
  RawHost client(server_.port(), 0, kSeed, kClients);
  const auto first = client.fetch(1, "http://b.test/1");
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->source, wire::WireSource::kRemoteBrowser);

  // The idle link dies under the next request: the proxy sees the link
  // close, dials once more, and the fresh link delivers.
  holder.drop_reused.store(true);
  const std::uint64_t dials = counter("netio_pool_dial_total");
  const std::uint64_t reuses = counter("netio_pool_reuse_total");
  const std::uint64_t retries = counter("netio_peer_retries_total");
  const auto second = client.fetch(1, "http://b.test/1");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->source, wire::WireSource::kRemoteBrowser);
  EXPECT_FALSE(second->false_forward);
  EXPECT_EQ(counter("netio_pool_reuse_total"), reuses + 1);
  EXPECT_EQ(counter("netio_pool_dial_total"), dials + 1);
  EXPECT_EQ(counter("netio_peer_retries_total"), retries + 1);
  EXPECT_EQ(holder.links_seen(), 2u);
  holder.stop();
}

TEST_F(PeerLinkTest, TwoConcurrentFetchesToOneHostUseTwoLinks) {
  // The holder answers only once two requests wait: one link carrying both
  // in turn would stall the first until its deadline.
  ScriptedHolder holder(/*batch=*/2);
  start(holder);
  ASSERT_TRUE(holder_host_->announce(kHolder, "http://c.test/1"));
  ASSERT_TRUE(holder_host_->announce(kHolder, "http://c.test/2"));
  RawHost a(server_.port(), 0, kSeed, kClients);
  RawHost b(server_.port(), 0, kSeed, kClients);

  const std::uint64_t dials = counter("netio_pool_dial_total");
  ASSERT_TRUE(a.send_fetch(1, "http://c.test/1"));
  ASSERT_TRUE(b.send_fetch(2, "http://c.test/2"));
  const auto ra = a.recv_fetch();
  const auto rb = b.recv_fetch();
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(ra->source, wire::WireSource::kRemoteBrowser);
  EXPECT_EQ(rb->source, wire::WireSource::kRemoteBrowser);
  EXPECT_EQ(ra->body, "held:" + std::to_string(url_key("http://c.test/1")));
  EXPECT_EQ(rb->body, "held:" + std::to_string(url_key("http://c.test/2")));
  EXPECT_EQ(counter("netio_pool_dial_total"), dials + 2);
  EXPECT_EQ(holder.links_seen(), 2u);
  holder.stop();
}

}  // namespace
}  // namespace baps::runtime
