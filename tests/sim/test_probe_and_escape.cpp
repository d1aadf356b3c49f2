// Focused behaviours: the Figure-2 probe samples exactly once per hop,
// and Duato's escape layer actually carries traffic when the adaptive
// VCs are exhausted.
#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;
using testing::make_sim;
using testing::make_traffic_sim;
using testing::run_until_delivered;

TEST(Probe, SamplesOncePerRoutingHop) {
  // A lone message at distance H triggers exactly H routing occurrences
  // at routers where it is not yet at its destination (source router
  // included, destination router excluded).
  auto sim = make_sim(4, 2);
  const topo::NodeId dst = 9;  // (1,2): distance(0, 9) == 3 on the 4x4 torus
  ASSERT_EQ(sim->topology().distance(0, dst), 3u);
  sim->push_message(0, dst, 8);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
  EXPECT_EQ(sim->totals().probe.samples, 3u);
}

TEST(Probe, BlockedHeaderDoesNotResample) {
  // Two worms colliding on a 1-VC ring: the blocked header retries its
  // routing every cycle but the probe must count one occurrence per hop,
  // so total samples = total hops across both messages.
  auto cfg = default_config();
  cfg.net.num_vcs = 1;
  auto sim = make_sim(5, 1, cfg);
  sim->push_message(0, 2, 32);  // 2 hops
  sim->push_message(1, 3, 32);  // 2 hops, blocked behind the first
  ASSERT_TRUE(run_until_delivered(*sim, 2, 5000));
  EXPECT_EQ(sim->totals().probe.samples, 4u);
}

TEST(Probe, IdleNetworkSatisfiesBothRules) {
  auto sim = make_sim(4, 2);
  sim->push_message(0, 5, 8);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
  const auto probe = sim->totals().probe;
  EXPECT_EQ(probe.samples, probe.rule_a);
  EXPECT_EQ(probe.samples, probe.rule_b);
  EXPECT_DOUBLE_EQ(probe.pct_either(), 100.0);
}

TEST(DuatoEscape, EscapeLayerCarriesTrafficUnderContention) {
  // Saturate a Duato-routed network and verify VC0/VC1 (escape layer)
  // actually carried flits: without a live escape layer the protocol's
  // deadlock-freedom argument would be vacuous.
  SimulatorConfig cfg = default_config();
  cfg.algorithm = routing::Algorithm::Duato;
  cfg.detection.enabled = false;
  auto sim = make_traffic_sim(4, 2, /*offered=*/0.8, /*len=*/16, cfg);
  sim->step_cycles(6000);

  // Count tenancies observed on escape vs adaptive VCs right now, plus
  // deliveries as a liveness check.
  const Network& net = sim->network();
  unsigned escape_busy = 0, adaptive_busy = 0;
  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    const auto mask = net.link(l).active_vc_mask;
    escape_busy += (mask & 0b011) != 0;
    adaptive_busy += (mask & 0b100) != 0;
  }
  EXPECT_GT(adaptive_busy, 0u);
  EXPECT_GT(escape_busy, 0u);
  EXPECT_GT(sim->scan_stats().delivered, 2000u);
  EXPECT_EQ(sim->scan_stats().deadlocks, 0u);
}

TEST(DuatoEscape, LowLoadPrefersAdaptiveVcs) {
  SimulatorConfig cfg = default_config();
  cfg.algorithm = routing::Algorithm::Duato;
  cfg.detection.enabled = false;
  auto sim = make_sim(4, 2, cfg);
  sim->push_message(0, 5, 16);
  sim->step_cycles(4);
  // The first hop allocation must be on the adaptive VC (VC 2).
  const Network& net = sim->network();
  unsigned adaptive = 0, escape = 0;
  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    const auto mask = net.link(l).active_vc_mask;
    escape += (mask & 0b011) != 0;
    adaptive += (mask & 0b100) != 0;
  }
  EXPECT_EQ(escape, 0u);
  EXPECT_GE(adaptive, 1u);
}

TEST(EjectionSharing, PortsReleasedAndReused) {
  // Sequential bursts to one node must reuse ejection ports cleanly.
  auto cfg = default_config();
  cfg.net.eje_channels = 1;
  auto sim = make_sim(4, 2, cfg);
  for (int round = 0; round < 3; ++round) {
    for (const topo::NodeId src : {1u, 2u, 4u, 8u}) {
      sim->push_message(src, 0, 8);
    }
    ASSERT_TRUE(run_until_delivered(
        *sim, static_cast<std::uint64_t>(4 * (round + 1)), 5000));
    EXPECT_TRUE(sim->network().quiescent());
  }
}

}  // namespace
}  // namespace wormsim::sim
