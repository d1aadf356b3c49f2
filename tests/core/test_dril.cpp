#include "core/dril.hpp"

#include <gtest/gtest.h>

#include "fake_status.hpp"

namespace wormsim::core {
namespace {

using testing::FakeStatus;
using testing::make_route;

InjectionRequest request_at(NodeId node, const routing::RouteResult& route,
                            std::uint64_t cycle, std::uint64_t head_wait) {
  InjectionRequest req;
  req.node = node;
  req.dst = node + 1;
  req.length_flits = 16;
  req.route = &route;
  req.cycle = cycle;
  req.head_wait = head_wait;
  return req;
}

class DrilTest : public ::testing::Test {
 protected:
  FakeStatus status_{4, 6, 3};
  DrilLimiter dril_{4, /*detect_wait=*/16, /*margin=*/1,
                    /*relax_period=*/1000};
  routing::RouteResult route_ = make_route({0, 2, 4}, 3);
};

TEST_F(DrilTest, UnrestrictedBeforeSaturation) {
  // Heavy occupancy but short head wait: no freeze, always allowed.
  status_.fill_uniform(0, 0);
  for (std::uint64_t t = 0; t < 100; ++t) {
    EXPECT_TRUE(dril_.allow(request_at(0, route_, t, 5), status_));
  }
  EXPECT_FALSE(dril_.frozen(0));
}

TEST_F(DrilTest, FreezesThresholdOnLongHeadWait) {
  // 12 busy VCs at freeze time, margin 1 -> threshold 11.
  for (unsigned c = 0; c < 6; ++c) {
    status_.set_free(0, static_cast<ChannelId>(c), 0b001);  // 2 busy each
  }
  // The freezing call itself already restricts: 12 busy >= threshold 11.
  EXPECT_FALSE(dril_.allow(request_at(0, route_, 100, 17), status_));
  EXPECT_TRUE(dril_.frozen(0));
  EXPECT_EQ(dril_.threshold(0), 11u);
}

TEST_F(DrilTest, RestrictsWhileBusyAboveThreshold) {
  for (unsigned c = 0; c < 6; ++c) {
    status_.set_free(0, static_cast<ChannelId>(c), 0b001);
  }
  (void)dril_.allow(request_at(0, route_, 100, 17), status_);  // freeze @ 11
  // Still 12 busy: restricted.
  EXPECT_FALSE(dril_.allow(request_at(0, route_, 101, 0), status_));
  // Load drains to 6 busy (< 11): allowed again.
  for (unsigned c = 0; c < 6; ++c) {
    status_.set_free(0, static_cast<ChannelId>(c), 0b011);
  }
  EXPECT_TRUE(dril_.allow(request_at(0, route_, 102, 0), status_));
}

TEST_F(DrilTest, RelaxationEventuallyUnfreezes) {
  for (unsigned c = 0; c < 6; ++c) {
    status_.set_free(0, static_cast<ChannelId>(c), 0b001);
  }
  (void)dril_.allow(request_at(0, route_, 0, 17), status_);
  ASSERT_TRUE(dril_.frozen(0));
  const unsigned t0 = dril_.threshold(0);
  // After one relax period the threshold grows by one.
  (void)dril_.allow(request_at(0, route_, 1000, 0), status_);
  EXPECT_EQ(dril_.threshold(0), t0 + 1);
  // After enough periods the node unfreezes entirely (total 18 VCs).
  (void)dril_.allow(request_at(0, route_, 1000 * 20, 0), status_);
  EXPECT_FALSE(dril_.frozen(0));
}

TEST_F(DrilTest, NodesFreezeIndependently) {
  for (unsigned c = 0; c < 6; ++c) {
    status_.set_free(0, static_cast<ChannelId>(c), 0b001);  // 12 busy
    status_.set_free(1, static_cast<ChannelId>(c), 0b000);  // 18 busy
  }
  (void)dril_.allow(request_at(0, route_, 10, 20), status_);
  (void)dril_.allow(request_at(1, route_, 500, 20), status_);
  EXPECT_TRUE(dril_.frozen(0));
  EXPECT_TRUE(dril_.frozen(1));
  // Different busy counts at freeze time -> different thresholds (the
  // source of DRIL's unfairness in the paper's Figure 4).
  EXPECT_NE(dril_.threshold(0), dril_.threshold(1));
  EXPECT_FALSE(dril_.frozen(2));
}

TEST_F(DrilTest, ResetClearsAllState) {
  for (unsigned c = 0; c < 6; ++c) {
    status_.set_free(0, static_cast<ChannelId>(c), 0b001);
  }
  (void)dril_.allow(request_at(0, route_, 10, 20), status_);
  ASSERT_TRUE(dril_.frozen(0));
  dril_.reset();
  EXPECT_FALSE(dril_.frozen(0));
}

TEST_F(DrilTest, BusyTotalCountsAllChannels) {
  status_.fill_uniform(2, 1);  // 1 free per channel -> 2 busy x 6 = 12
  EXPECT_EQ(DrilLimiter::busy_total(status_.free_row(2), 6, 3), 12u);
  status_.fill_uniform(2, 3);
  EXPECT_EQ(DrilLimiter::busy_total(status_.free_row(2), 6, 3), 0u);
}

TEST_F(DrilTest, ThresholdClampedToAtLeastOne) {
  // Freeze with almost nothing busy: threshold still >= 1.
  status_.fill_uniform(3, 3);
  (void)dril_.allow(request_at(3, route_, 10, 20), status_);
  EXPECT_TRUE(dril_.frozen(3));
  EXPECT_GE(dril_.threshold(3), 1u);
}

TEST(DrilFactory, MakeLimiterWiresParams) {
  LimiterConfig cfg;
  cfg.kind = LimiterKind::DRIL;
  cfg.dril_detect_wait = 8;
  auto limiter = make_limiter(cfg, 16);
  EXPECT_EQ(limiter->kind(), LimiterKind::DRIL);
}

TEST(LimiterFactory, AllKindsConstructible) {
  for (const auto kind : {LimiterKind::None, LimiterKind::ALO, LimiterKind::LF,
                          LimiterKind::DRIL}) {
    LimiterConfig cfg;
    cfg.kind = kind;
    auto limiter = make_limiter(cfg, 8);
    ASSERT_NE(limiter, nullptr);
    EXPECT_EQ(limiter->kind(), kind);
  }
}

TEST(LimiterNames, ParseRoundTrip) {
  for (const auto kind : {LimiterKind::None, LimiterKind::ALO, LimiterKind::LF,
                          LimiterKind::DRIL}) {
    EXPECT_EQ(parse_limiter(limiter_name(kind)), kind);
  }
  EXPECT_THROW(parse_limiter("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace wormsim::core
