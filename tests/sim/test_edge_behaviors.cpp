// Edge behaviours: wraparound traversal, adaptive avoidance of blocked
// channels, recovery/limiter interplay, and mid-run load changes.
#include <gtest/gtest.h>

#include "core/alo.hpp"
#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;
using testing::ideal_latency;
using testing::make_sim;
using testing::make_traffic_sim;
using testing::run_until_delivered;

TEST(EdgeBehavior, WraparoundPathIsMinimal) {
  // 7 -> 1 on an 8-ring: minimal route crosses the wraparound (2 hops
  // Plus), not the 6-hop interior path.
  auto sim = make_sim(8, 1);
  metrics::SpatialMetrics spatial(8, sim->network().num_net_links(),
                                  sim->config().net.num_vcs);
  sim->set_spatial(&spatial);
  sim->push_message(7, 1, 16);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
  const auto r = sim->totals();
  EXPECT_DOUBLE_EQ(r.latency_mean,
                   static_cast<double>(ideal_latency(*sim, 7, 1, 16)));
  // The wrap link 7->0 (dim 0 Plus) carried all 16 flits.
  const auto wrap = sim->network().net_link(
      7, topo::make_channel(0, topo::Dir::Plus));
  EXPECT_EQ(spatial.link_flits(wrap), 16u);
}

TEST(EdgeBehavior, DorCrossesDatelineWithoutDeadlockDetectionArmed) {
  // Moderate load: dateline crossings happen constantly, and the armed
  // FC3D-style detector must stay silent. (Close to ring saturation the
  // detector does show false positives on DOR — stalled-but-live chains
  // longer than the threshold — which is the documented limitation of
  // threshold-based presumption that FC3D's threshold tuning addresses.)
  SimulatorConfig cfg = default_config();
  cfg.algorithm = routing::Algorithm::DOR;
  cfg.detection.enabled = true;
  auto sim = make_traffic_sim(8, 1, 0.25, 16, cfg);
  sim->step_cycles(10000);
  EXPECT_EQ(sim->scan_stats().deadlocks, 0u);
  EXPECT_GT(sim->scan_stats().delivered, 1000u);
}

TEST(EdgeBehavior, TfarRoutesAroundOccupiedChannel) {
  // Two-dimension adaptivity: with the preferred dim-0 channel fully
  // occupied by a long worm, a second message to a diagonal destination
  // proceeds through dim 1 instead of waiting.
  auto cfg = default_config();
  cfg.net.num_vcs = 1;
  auto sim = make_sim(4, 2, cfg);
  // Blocker: 0 -> 2 straight along dim 0 (through (1,0)), long.
  sim->push_message(0, 2, 200);
  sim->step_cycles(6);  // blocker owns link 0->(1,0)
  // Contender: 0 -> 5 = (1,1); useful channels: dim0+ (busy) and dim1+.
  sim->push_message(0, 5, 16);
  const Cycle start = sim->cycle();
  ASSERT_TRUE(run_until_delivered(*sim, 1, 2000));
  // Delivered while the blocker is still transferring -> it adapted.
  const Cycle elapsed = sim->cycle() - start;
  EXPECT_LT(elapsed, 60u);
  EXPECT_EQ(sim->scan_stats().delivered, 1u);
}

TEST(EdgeBehavior, RecoveredMessagesBypassTheLimiter) {
  // Force deadlocks on a 1-VC ring with the ALO limiter active: the
  // absorbed messages must be re-injected (and delivered) even though
  // the local channels look congested to ALO at that moment.
  auto cfg = default_config();
  cfg.net.num_vcs = 1;
  cfg.limiter.kind = core::LimiterKind::ALO;
  auto sim = make_sim(5, 1, cfg);
  for (topo::NodeId i = 0; i < 5; ++i) {
    // Bypass generation-side throttling by injecting all at once: ALO
    // allows the first injection on an idle network.
    ASSERT_TRUE(sim->push_message(i, (i + 2) % 5, 16));
  }
  EXPECT_TRUE(run_until_delivered(*sim, 5, 30000));
  EXPECT_GE(sim->scan_stats().deadlocks, 1u);
}

TEST(EdgeBehavior, MidRunLoadChangeTakesEffect) {
  auto sim = make_traffic_sim(4, 2, 0.1, 16);
  sim->step_cycles(3000);
  const auto low = sim->totals().messages_generated;
  sim->workload()->set_offered_load(0.8);
  sim->step_cycles(3000);
  const auto total = sim->totals().messages_generated;
  // Second half at 8x the rate: generation in that window must dominate.
  EXPECT_GT(total - low, 4 * low);
}

TEST(EdgeBehavior, TwoByTwoTorusWorks) {
  // Smallest torus: k=2 rings where Plus and Minus reach the same
  // neighbor. Everything must still route and drain.
  auto sim = make_sim(2, 2);
  unsigned count = 0;
  for (topo::NodeId s = 0; s < 4; ++s) {
    for (topo::NodeId d = 0; d < 4; ++d) {
      if (s != d) {
        sim->push_message(s, d, 8);
        ++count;
      }
    }
  }
  ASSERT_TRUE(run_until_delivered(*sim, count, 5000));
  EXPECT_TRUE(sim->network().quiescent());
}

TEST(EdgeBehavior, EightAryThreeCubeSmoke) {
  // Paper-scale topology, brief run: sanity that the 512-node network
  // sustains traffic with ALO and stays deadlock-clean at moderate load.
  SimulatorConfig cfg = default_config();
  cfg.limiter.kind = core::LimiterKind::ALO;
  auto sim = make_traffic_sim(8, 3, 0.3, 16, cfg);
  sim->step_cycles(2000);
  EXPECT_GT(sim->scan_stats().delivered, 10000u);
  EXPECT_EQ(sim->scan_stats().deadlocks, 0u);
}

}  // namespace
}  // namespace wormsim::sim
