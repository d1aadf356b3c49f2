// Property tests: for random status registers and candidate sets, every
// Pick a Selector returns must be admissible (free + usable), and the
// three policies must agree on *feasibility* (all succeed or all fail).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "routing/selection.hpp"
#include "util/rng.hpp"

namespace wormsim::routing {
namespace {

/// A router's free-VC row, every channel busy until set.
struct RandomView {
  std::array<std::uint8_t, 32> masks_{};
  const std::uint8_t* row() const { return masks_.data(); }
};

class SelectionPropertyTest : public ::testing::TestWithParam<SelectionPolicy> {
};

TEST_P(SelectionPropertyTest, PicksAreAlwaysAdmissible) {
  const Selector sel(GetParam());
  util::Rng rng(1234);
  constexpr unsigned kVcs = 3;
  for (int iter = 0; iter < 5000; ++iter) {
    RandomView view;
    RouteResult route;
    const unsigned num_cands = 1 + static_cast<unsigned>(rng.below(6));
    bool feasible = false;
    for (unsigned i = 0; i < num_cands; ++i) {
      const auto ch = static_cast<topo::ChannelId>(i);
      const auto vc_mask =
          static_cast<std::uint32_t>(rng.between(1, (1u << kVcs) - 1));
      const auto free =
          static_cast<std::uint32_t>(rng.below(1u << kVcs));
      view.masks_[ch] = static_cast<std::uint8_t>(free);
      // Escape candidates must come last; make the final one escape
      // half the time.
      const bool escape = (i == num_cands - 1) && rng.bernoulli(0.5);
      route.candidates.push_back({ch, vc_mask, escape});
      route.useful_phys_mask |= 1u << ch;
      feasible |= (vc_mask & free) != 0;
    }
    const auto rr = static_cast<std::uint32_t>(rng.below(16));
    const auto pick = sel.select(route, view.row(), rr);
    ASSERT_EQ(pick.has_value(), feasible) << "iteration " << iter;
    if (pick) {
      // The picked VC must be free and usable on the picked channel.
      const Candidate* cand = nullptr;
      for (const auto& c : route.candidates) {
        if (c.channel == pick->channel && c.escape == pick->escape) cand = &c;
      }
      ASSERT_NE(cand, nullptr);
      EXPECT_TRUE(cand->vc_mask & (1u << pick->vc));
      EXPECT_TRUE(view.masks_[pick->channel] & (1u << pick->vc));
    }
  }
}

TEST_P(SelectionPropertyTest, EscapeOnlyChosenWhenNoAdaptiveOption) {
  const Selector sel(GetParam());
  util::Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    RandomView view;
    RouteResult route;
    const auto adaptive_free = static_cast<std::uint32_t>(rng.below(8));
    view.masks_[0] = static_cast<std::uint8_t>(adaptive_free);
    view.masks_[2] = 0b111;
    route.candidates.push_back({0, 0b111, false});
    route.candidates.push_back({2, 0b011, true});
    route.useful_phys_mask = 0b101;
    const auto pick =
        sel.select(route, view.row(), static_cast<std::uint32_t>(iter));
    ASSERT_TRUE(pick.has_value());
    if (adaptive_free != 0) {
      EXPECT_FALSE(pick->escape) << "adaptive VC was free but escape taken";
    } else {
      EXPECT_TRUE(pick->escape);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SelectionPropertyTest,
                         ::testing::Values(SelectionPolicy::MaxFreeVcs,
                                           SelectionPolicy::FirstFit,
                                           SelectionPolicy::RoundRobin));

}  // namespace
}  // namespace wormsim::routing
