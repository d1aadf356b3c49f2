#include "routing/selection.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

namespace wormsim::routing {
namespace {

/// Test double: a router's free-VC row, every channel busy until set.
struct FakeView {
  std::array<std::uint8_t, 32> masks_{};
  const std::uint8_t* row() const { return masks_.data(); }
};

RouteResult two_channel_route(std::uint32_t mask0, std::uint32_t mask2,
                              bool second_escape = false) {
  RouteResult r;
  r.candidates.push_back({0, mask0, false});
  r.candidates.push_back({2, mask2, second_escape});
  r.useful_phys_mask = 0b101;
  return r;
}

TEST(Selection, ParseNames) {
  EXPECT_EQ(parse_selection("max-free"), SelectionPolicy::MaxFreeVcs);
  EXPECT_EQ(parse_selection("first-fit"), SelectionPolicy::FirstFit);
  EXPECT_EQ(parse_selection("round-robin"), SelectionPolicy::RoundRobin);
  EXPECT_THROW(parse_selection("best"), std::invalid_argument);
}

TEST(Selection, NoFreeVcReturnsNullopt) {
  const Selector sel(SelectionPolicy::FirstFit);
  FakeView view;  // everything busy
  const auto r = two_channel_route(0b111, 0b111);
  EXPECT_FALSE(sel.select(r, view.row(), 0).has_value());
}

TEST(Selection, FirstFitTakesFirstCandidate) {
  const Selector sel(SelectionPolicy::FirstFit);
  FakeView view;
  view.masks_[0] = 0b010;
  view.masks_[2] = 0b111;
  const auto pick =
      sel.select(two_channel_route(0b111, 0b111), view.row(), 5);
  ASSERT_TRUE(pick);
  EXPECT_EQ(pick->channel, 0);
  EXPECT_EQ(pick->vc, 1);  // lowest free usable VC
}

TEST(Selection, FirstFitSkipsFullyBusyChannel) {
  const Selector sel(SelectionPolicy::FirstFit);
  FakeView view;
  view.masks_[0] = 0;
  view.masks_[2] = 0b100;
  const auto pick =
      sel.select(two_channel_route(0b111, 0b111), view.row(), 0);
  ASSERT_TRUE(pick);
  EXPECT_EQ(pick->channel, 2);
  EXPECT_EQ(pick->vc, 2);
}

TEST(Selection, RespectsVcMaskRestrictions) {
  const Selector sel(SelectionPolicy::FirstFit);
  FakeView view;
  view.masks_[0] = 0b001;  // VC0 free
  view.masks_[2] = 0b010;  // VC1 free
  // Candidate masks forbid exactly those free VCs.
  const auto pick =
      sel.select(two_channel_route(0b110, 0b101), view.row(), 0);
  EXPECT_FALSE(pick.has_value());
}

TEST(Selection, MaxFreePrefersEmptierChannel) {
  const Selector sel(SelectionPolicy::MaxFreeVcs);
  FakeView view;
  view.masks_[0] = 0b001;  // one free VC
  view.masks_[2] = 0b111;  // three free VCs
  const auto pick =
      sel.select(two_channel_route(0b111, 0b111), view.row(), 0);
  ASSERT_TRUE(pick);
  EXPECT_EQ(pick->channel, 2);
}

TEST(Selection, MaxFreeCountsOnlyUsableVcs) {
  const Selector sel(SelectionPolicy::MaxFreeVcs);
  FakeView view;
  view.masks_[0] = 0b011;  // two free, both usable
  view.masks_[2] = 0b111;  // three free but only one usable below
  const auto pick =
      sel.select(two_channel_route(0b011, 0b100), view.row(), 0);
  ASSERT_TRUE(pick);
  EXPECT_EQ(pick->channel, 0);
}

TEST(Selection, MaxFreeRotatesTies) {
  const Selector sel(SelectionPolicy::MaxFreeVcs);
  FakeView view;
  view.masks_[0] = 0b111;
  view.masks_[2] = 0b111;
  const auto r = two_channel_route(0b111, 0b111);
  const auto p0 = sel.select(r, view.row(), 0);
  const auto p1 = sel.select(r, view.row(), 1);
  ASSERT_TRUE(p0 && p1);
  EXPECT_NE(p0->channel, p1->channel);
}

TEST(Selection, RoundRobinCyclesCandidates) {
  const Selector sel(SelectionPolicy::RoundRobin);
  FakeView view;
  view.masks_[0] = 0b111;
  view.masks_[2] = 0b111;
  const auto r = two_channel_route(0b111, 0b111);
  const auto p0 = sel.select(r, view.row(), 0);
  const auto p1 = sel.select(r, view.row(), 1);
  const auto p2 = sel.select(r, view.row(), 2);
  ASSERT_TRUE(p0 && p1 && p2);
  EXPECT_EQ(p0->channel, 0);
  EXPECT_EQ(p1->channel, 2);
  EXPECT_EQ(p2->channel, p0->channel);
}

TEST(Selection, AdaptivePreferredOverEscape) {
  const Selector sel(SelectionPolicy::MaxFreeVcs);
  FakeView view;
  view.masks_[0] = 0b001;  // adaptive: one free VC
  view.masks_[2] = 0b111;  // escape channel completely free
  const auto pick =
      sel.select(two_channel_route(0b111, 0b111, /*second_escape=*/true),
                 view.row(), 0);
  ASSERT_TRUE(pick);
  EXPECT_EQ(pick->channel, 0);
  EXPECT_FALSE(pick->escape);
}

TEST(Selection, FallsBackToEscapeWhenAdaptiveBusy) {
  const Selector sel(SelectionPolicy::MaxFreeVcs);
  FakeView view;
  view.masks_[0] = 0;      // adaptive exhausted
  view.masks_[2] = 0b010;  // escape VC 1 free
  const auto pick =
      sel.select(two_channel_route(0b111, 0b010, /*second_escape=*/true),
                 view.row(), 0);
  ASSERT_TRUE(pick);
  EXPECT_EQ(pick->channel, 2);
  EXPECT_TRUE(pick->escape);
  EXPECT_EQ(pick->vc, 1);
}

TEST(Selection, EmptyRouteReturnsNullopt) {
  const Selector sel(SelectionPolicy::MaxFreeVcs);
  FakeView view;
  RouteResult r;
  EXPECT_FALSE(sel.select(r, view.row(), 0).has_value());
}

}  // namespace
}  // namespace wormsim::routing
