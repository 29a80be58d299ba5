// Frame-fault injection over the real TCP stack: a corrupted peer-deliver
// frame is rejected by the proxy's CRC check and the request recovers from
// the origin; a dropped frame costs one bounded peer deadline. Both paths
// must leave the fault plan fully recovered.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "fault/fault_plan.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"

namespace baps::runtime {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeed = 5;
constexpr std::uint32_t kClients = 3;

ProxyServer::Params proxy_params() {
  ProxyServer::Params p;
  p.core.num_clients = kClients;
  // Small enough that filler traffic evicts the target document, forcing
  // the interesting request through the browser index.
  p.core.proxy_cache_bytes = 8 << 10;
  p.core.seed = kSeed;
  p.peer_deadlines = netio::Deadlines{300, 1000, 1000};
  return p;
}

BapsSystem::Params system_params() {
  BapsSystem::Params params;
  params.num_clients = kClients;
  params.proxy_cache_bytes = 8 << 10;
  params.seed = kSeed;
  return params;
}

/// Runs `sys` to the point where `url` lives only in client 0's browser (the
/// proxy evicted it), so the next request must go through the peer path.
void stage_peer_only_copy(BapsSystem& sys, const Url& url) {
  sys.browse(0, url);
  for (int i = 0; i < 64; ++i) {
    sys.browse(2, "http://filler.test/" + std::to_string(i));
  }
  ASSERT_TRUE(sys.client_has(0, url));
}

class FaultTcpTest : public ::testing::Test {
 protected:
  FaultTcpTest() : server_(proxy_params()) {}

  void SetUp() override {
    std::string error;
    ASSERT_TRUE(server_.start(&error)) << error;
    TcpTransport::Params tp;
    tp.proxy_port = server_.port();
    transport_ = std::make_unique<TcpTransport>(tp);
    sys_ = std::make_unique<BapsSystem>(system_params(), *transport_);
  }

  void TearDown() override { server_.stop(); }

  ProxyServer server_;
  std::unique_ptr<TcpTransport> transport_;
  std::unique_ptr<BapsSystem> sys_;
};

TEST_F(FaultTcpTest, CorruptedPeerFrameIsRejectedAndRecoveredFromOrigin) {
  const Url url = "http://corrupt.test/doc";
  stage_peer_only_copy(*sys_, url);

  // Attach after staging so the setup traffic runs fault-free; every peer
  // deliver from here on is corrupted on the wire.
  fault::FaultRates rates;
  rates.of(fault::FaultKind::kCorruptFrame) = 1.0;
  fault::FaultPlan plan(21, rates);
  sys_->attach_fault_plan(&plan);

  const FetchOutcome out = sys_->browse(1, url);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.source, FetchOutcome::Source::kOrigin)
      << "corrupted frame must fail the CRC and fall back to origin";
  EXPECT_EQ(out.body, sys_->browse(1, url).body);  // cached verified copy
  EXPECT_GE(plan.injected(fault::FaultKind::kCorruptFrame), 1u);
  EXPECT_TRUE(plan.fully_recovered());
  EXPECT_GE(sys_->false_forwards(), 1u);
}

TEST_F(FaultTcpTest, DroppedPeerFrameCostsOneBoundedDeadline) {
  const Url url = "http://drop.test/doc";
  stage_peer_only_copy(*sys_, url);

  fault::FaultRates rates;
  rates.of(fault::FaultKind::kDropFrame) = 1.0;
  fault::FaultPlan plan(22, rates);
  sys_->attach_fault_plan(&plan);

  const auto start = Clock::now();
  const FetchOutcome out = sys_->browse(1, url);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Clock::now() - start)
                      .count();
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.source, FetchOutcome::Source::kOrigin);
  EXPECT_LT(ms, 5000) << "dropped frame must cost one bounded wait";
  EXPECT_GE(plan.injected(fault::FaultKind::kDropFrame), 1u);
  EXPECT_TRUE(plan.fully_recovered());
}

TEST_F(FaultTcpTest, ZeroRatePlanLeavesTcpOutcomesUntouched) {
  const Url url = "http://clean.test/doc";
  stage_peer_only_copy(*sys_, url);

  fault::FaultPlan plan(23, fault::FaultRates{});
  sys_->attach_fault_plan(&plan);

  const FetchOutcome out = sys_->browse(1, url);
  EXPECT_EQ(out.source, FetchOutcome::Source::kRemoteBrowser);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(plan.injected_total(), 0u);
}

}  // namespace
}  // namespace baps::runtime
