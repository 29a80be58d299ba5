// FaultPlan unit tests: spec parsing, per-kind stream determinism, and the
// injected/recovered accounting contract.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fault/churn.hpp"
#include "util/assert.hpp"

namespace baps::fault {
namespace {

FaultRates all_at(double rate) {
  FaultRates rates;
  rates.rate.fill(rate);
  return rates;
}

TEST(FaultKindTest, NamesAndRecoverability) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kPeerDisconnect), "peer_disconnect");
  EXPECT_STREQ(fault_kind_name(FaultKind::kProxyRestart), "proxy_restart");
  EXPECT_TRUE(fault_kind_recoverable(FaultKind::kDropFrame));
  EXPECT_TRUE(fault_kind_recoverable(FaultKind::kCorruptFrame));
  EXPECT_FALSE(fault_kind_recoverable(FaultKind::kPeerDepart));
  EXPECT_FALSE(fault_kind_recoverable(FaultKind::kPeerJoin));
}

TEST(FaultRatesTest, ParsesFullSpec) {
  std::string error;
  const auto rates = FaultRates::parse(
      "disconnect=0.1,depart=0.01,join=0.5,slow=0.2,drop=0.05,"
      "corrupt=0.02,restart=0.001,slow_ms=80,slow_budget_ms=40,polite=1",
      &error);
  ASSERT_TRUE(rates.has_value()) << error;
  EXPECT_DOUBLE_EQ(rates->of(FaultKind::kPeerDisconnect), 0.1);
  EXPECT_DOUBLE_EQ(rates->of(FaultKind::kPeerJoin), 0.5);
  EXPECT_DOUBLE_EQ(rates->of(FaultKind::kProxyRestart), 0.001);
  EXPECT_EQ(rates->slow_peer_delay_ms, 80);
  EXPECT_EQ(rates->slow_peer_budget_ms, 40);
  EXPECT_TRUE(rates->polite_departures);
  EXPECT_TRUE(rates->any());
}

TEST(FaultRatesTest, EmptySpecIsAllZero) {
  std::string error;
  const auto rates = FaultRates::parse("", &error);
  ASSERT_TRUE(rates.has_value()) << error;
  EXPECT_FALSE(rates->any());
}

TEST(FaultRatesTest, RejectsBadInput) {
  std::string error;
  EXPECT_FALSE(FaultRates::parse("bogus=0.1", &error).has_value());
  EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
  EXPECT_FALSE(FaultRates::parse("drop_holders=1", &error).has_value());
  EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
  EXPECT_FALSE(FaultRates::parse("drop=1.5", &error).has_value());
  EXPECT_FALSE(FaultRates::parse("drop=abc", &error).has_value());
  EXPECT_FALSE(FaultRates::parse("noequals", &error).has_value());
}

TEST(FaultPlanTest, SameSeedSameSchedule) {
  FaultPlan a(99, all_at(0.3));
  FaultPlan b(99, all_at(0.3));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.decide(FaultKind::kDropFrame), b.decide(FaultKind::kDropFrame));
    EXPECT_EQ(a.pick(FaultKind::kPeerDepart, 7),
              b.pick(FaultKind::kPeerDepart, 7));
  }
  FaultPlan c(100, all_at(0.3));
  int diverged = 0;
  for (int i = 0; i < 500; ++i) {
    diverged += a.decide(FaultKind::kSlowPeer) != c.decide(FaultKind::kSlowPeer);
  }
  EXPECT_GT(diverged, 0) << "different seeds must not share a schedule";
}

TEST(FaultPlanTest, InterleavingNeverShiftsAKindsStream) {
  // Plan a consults only drop_frame; plan b interleaves every other kind
  // between the drop decisions. The drop schedules must be identical.
  FaultPlan a(7, all_at(0.5));
  FaultPlan b(7, all_at(0.5));
  std::vector<bool> pure, interleaved;
  for (int i = 0; i < 200; ++i) {
    pure.push_back(a.decide(FaultKind::kDropFrame));
    b.decide(FaultKind::kSlowPeer);
    b.decide(FaultKind::kPeerDisconnect);
    b.pick(FaultKind::kPeerJoin, 3);
    interleaved.push_back(b.decide(FaultKind::kDropFrame));
    b.decide(FaultKind::kProxyRestart);
  }
  EXPECT_EQ(pure, interleaved);
}

TEST(FaultPlanTest, ZeroRateNeverFiresButStreamsStayAligned) {
  FaultRates rates = all_at(0.0);
  rates.of(FaultKind::kCorruptFrame) = 0.5;
  FaultPlan mixed(13, rates);
  FaultPlan corrupt_only(13, rates);
  for (int i = 0; i < 300; ++i) {
    // The zero-rate kinds consume their own streams, never the corrupt one.
    EXPECT_FALSE(mixed.decide(FaultKind::kDropFrame));
    EXPECT_FALSE(mixed.should_inject(FaultKind::kSlowPeer));
    EXPECT_EQ(mixed.decide(FaultKind::kCorruptFrame),
              corrupt_only.decide(FaultKind::kCorruptFrame));
  }
  EXPECT_EQ(mixed.injected_total(), 0u);
}

TEST(FaultPlanTest, PickStaysInBounds) {
  FaultPlan plan(3, all_at(1.0));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(plan.pick(FaultKind::kPeerDepart, 5), 5u);
  }
  EXPECT_EQ(plan.pick(FaultKind::kPeerDepart, 1), 0u);
  EXPECT_THROW(plan.pick(FaultKind::kPeerDepart, 0), InvariantError);
}

TEST(FaultPlanTest, RecoveryWindowPromotesPendingOnSuccess) {
  FaultPlan plan(1, all_at(1.0));
  plan.begin_request();
  EXPECT_TRUE(plan.should_inject(FaultKind::kDropFrame));
  EXPECT_TRUE(plan.should_inject(FaultKind::kCorruptFrame));
  EXPECT_EQ(plan.injected(FaultKind::kDropFrame), 1u);
  EXPECT_EQ(plan.recovered(FaultKind::kDropFrame), 0u);
  EXPECT_FALSE(plan.fully_recovered());
  plan.end_request_ok();
  EXPECT_EQ(plan.recovered(FaultKind::kDropFrame), 1u);
  EXPECT_EQ(plan.recovered(FaultKind::kCorruptFrame), 1u);
  EXPECT_TRUE(plan.fully_recovered());
  EXPECT_EQ(plan.injected_total(), plan.recovered_total());
}

TEST(FaultPlanTest, AbandonedRequestLeavesFaultsUnrecovered) {
  FaultPlan plan(1, all_at(1.0));
  plan.begin_request();
  plan.should_inject(FaultKind::kPeerDisconnect);
  // The next request starts before the first ever completed: the pending
  // injection is dropped, not promoted.
  plan.begin_request();
  plan.end_request_ok();
  EXPECT_EQ(plan.injected(FaultKind::kPeerDisconnect), 1u);
  EXPECT_EQ(plan.recovered(FaultKind::kPeerDisconnect), 0u);
  EXPECT_FALSE(plan.fully_recovered());
}

TEST(FaultPlanTest, ChurnKindsAreNotPartOfTheRecoveryContract) {
  FaultPlan plan(1, all_at(1.0));
  plan.begin_request();
  plan.note_injected(FaultKind::kPeerDepart);
  plan.note_injected(FaultKind::kPeerJoin);
  plan.end_request_ok();
  EXPECT_EQ(plan.injected(FaultKind::kPeerDepart), 1u);
  EXPECT_EQ(plan.recovered(FaultKind::kPeerDepart), 0u);
  // Depart/join are membership events; they never block full recovery.
  EXPECT_TRUE(plan.fully_recovered());
}

// --- ChurnModel ------------------------------------------------------------

TEST(ChurnModelTest, SameSeedSameMembershipHistory) {
  ChurnModel a(5, 0.4, 8);
  ChurnModel b(5, 0.4, 8);
  for (std::uint32_t r = 0; r < 2000; ++r) {
    const std::uint32_t requester = r % 8;
    EXPECT_EQ(a.ensure_present(requester), b.ensure_present(requester));
    const auto ea = a.tick(requester);
    const auto eb = b.tick(requester);
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (ea.has_value()) {
      EXPECT_EQ(ea->kind, eb->kind);
      EXPECT_EQ(ea->client, eb->client);
    }
  }
  EXPECT_EQ(a.departed_count(), b.departed_count());
}

TEST(ChurnModelTest, ZeroRateIsInert) {
  ChurnModel m(5, 0.0, 4);
  for (std::uint32_t r = 0; r < 100; ++r) {
    EXPECT_FALSE(m.ensure_present(r % 4));
    EXPECT_FALSE(m.tick(r % 4).has_value());
  }
  EXPECT_EQ(m.departed_count(), 0u);
}

TEST(ChurnModelTest, RequesterNeverDepartsAndStateStaysConsistent) {
  ChurnModel m(11, 1.0, 6);
  for (std::uint32_t r = 0; r < 5000; ++r) {
    const std::uint32_t requester = r % 6;
    m.ensure_present(requester);
    if (const auto ev = m.tick(requester)) {
      if (ev->kind == ChurnModel::Event::Kind::kDepart) {
        EXPECT_NE(ev->client, requester);
        EXPECT_TRUE(m.departed(ev->client));
      } else {
        EXPECT_FALSE(m.departed(ev->client));
      }
    }
    EXPECT_LT(m.departed_count(), m.num_clients());
  }
}

TEST(ChurnModelTest, DepartedRequesterRejoinsOnItsNextRequest) {
  ChurnModel m(2, 1.0, 2);
  // With two clients and rate 1, every tick churns; force client 1 out.
  std::uint32_t victim = 2;
  for (int r = 0; r < 100 && victim == 2; ++r) {
    if (const auto ev = m.tick(0);
        ev.has_value() && ev->kind == ChurnModel::Event::Kind::kDepart) {
      victim = ev->client;
    }
  }
  ASSERT_EQ(victim, 1u);
  ASSERT_TRUE(m.departed(1));
  EXPECT_TRUE(m.ensure_present(1));  // its own request brings it back
  EXPECT_FALSE(m.departed(1));
  EXPECT_FALSE(m.ensure_present(1));
}

}  // namespace
}  // namespace baps::fault
