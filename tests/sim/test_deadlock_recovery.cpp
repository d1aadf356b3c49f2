// Deadlock construction, FC3D-style detection and software-based
// recovery.
//
// The canonical deterministic deadlock: on a 5-ring with one VC, five
// messages i -> i+2 injected simultaneously each allocate link i->i+1
// and then wait for link i+1->i+2, which the next message holds — a
// 5-cycle in the channel wait-for graph that can never resolve on its
// own.
#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;
using testing::make_sim;
using testing::make_traffic_sim;
using testing::run_until_delivered;

SimulatorConfig ring_config(bool detection) {
  SimulatorConfig cfg = default_config();
  cfg.net.num_vcs = 1;
  cfg.detection.enabled = detection;
  cfg.detection.threshold = 32;
  cfg.recovery.base_delay = 32;
  return cfg;
}

void inject_ring_deadlock(Simulator& sim, std::uint32_t len = 16) {
  for (topo::NodeId i = 0; i < 5; ++i) {
    ASSERT_TRUE(sim.push_message(i, (i + 2) % 5, len));
  }
}

TEST(DeadlockRecovery, RingDeadlockIsRealWithoutDetection) {
  auto sim = make_sim(5, 1, ring_config(/*detection=*/false));
  inject_ring_deadlock(*sim);
  sim->step_cycles(5000);
  EXPECT_EQ(sim->scan_stats().delivered, 0u);
  EXPECT_EQ(sim->messages_in_flight(), 5u);
  EXPECT_EQ(sim->scan_stats().deadlocks, 0u);
}

TEST(DeadlockRecovery, DetectionBreaksRingDeadlock) {
  auto sim = make_sim(5, 1, ring_config(/*detection=*/true));
  inject_ring_deadlock(*sim);
  EXPECT_TRUE(run_until_delivered(*sim, 5, 20000));
  EXPECT_GE(sim->scan_stats().deadlocks, 1u);
  EXPECT_TRUE(sim->network().quiescent());
  EXPECT_EQ(sim->recovery_pending(), 0u);
}

TEST(DeadlockRecovery, DetectionLatencyRespectsThreshold) {
  // No detection can fire before the threshold has elapsed.
  auto sim = make_sim(5, 1, ring_config(true));
  inject_ring_deadlock(*sim);
  sim->step_cycles(32);  // threshold cycles from t=0
  EXPECT_EQ(sim->scan_stats().deadlocks, 0u);
  sim->step_cycles(200);
  EXPECT_GE(sim->scan_stats().deadlocks, 1u);
}

/// FC3D fires exactly `threshold` cycles after the last flit of the worm
/// moved — even when that move was a tail leaving an upstream VC, so the
/// newest progress sits mid-worm rather than at the header. On an 8-ring
/// with one VC, 0 -> 3 (8 flits, 4-flit buffers) blocks at node 2 behind
/// a frozen tenant of link 2 -> 3: the header's VC fills, then the next
/// one, and the tail leaving the injection VC is the last move.
TEST(DeadlockRecovery, DetectionFiresThresholdAfterLastFlitMoved) {
  auto sim = make_sim(8, 1, ring_config(true));
  Network& net = sim->network();
  const topo::KAryNCube& topo = sim->topology();
  const auto channel_to = [&](topo::NodeId from, topo::NodeId to) {
    for (unsigned c = 0; c < topo.num_channels(); ++c) {
      if (topo.neighbor(from, static_cast<topo::ChannelId>(c)) == to) {
        return static_cast<topo::ChannelId>(c);
      }
    }
    return topo::ChannelId{0};
  };
  const VcRef blocker{net.net_link(2, channel_to(2, 3)), 0};
  net.vc(blocker).msg = 999;  // a tenant that never moves
  net.set_active(blocker, true);
  const VcRef inj{net.inj_link(0, 0), 0};
  const VcRef mid{net.net_link(0, channel_to(0, 1)), 0};
  const VcRef head{net.net_link(1, channel_to(1, 2)), 0};

  ASSERT_TRUE(sim->push_message(0, 3, 8));
  Cycle tail_left = 0;
  bool inj_was_busy = false;  // during the previous cycle
  while (sim->scan_stats().deadlocks == 0 && sim->cycle() < 500) {
    const Cycle t = sim->cycle();
    sim->step();
    const bool busy = !net.vc(inj).free();
    if (inj_was_busy && !busy) {
      tail_left = t;
      // The worm now spans `mid` (newest stamp) and the blocked `head`.
      EXPECT_EQ(net.vc(head).occupancy, 4u);  // full, flits in flight included
      EXPECT_EQ(net.progress(mid), t);
      EXPECT_LT(net.progress(head), t);
      EXPECT_EQ(net.worm_progress(head), t);
    }
    inj_was_busy = busy;
    if (sim->scan_stats().deadlocks != 0) {
      ASSERT_GT(tail_left, 0u);
      EXPECT_EQ(t, tail_left + 32);
    }
  }
  EXPECT_EQ(sim->scan_stats().deadlocks, 1u);
}

TEST(DeadlockRecovery, RecoveredLatencyIncludesStallTime) {
  auto sim = make_sim(5, 1, ring_config(true));
  inject_ring_deadlock(*sim);
  ASSERT_TRUE(run_until_delivered(*sim, 5, 20000));
  const auto r = sim->totals();
  // Every delivered message carries at least the detection threshold of
  // stall (generation time is preserved across absorption).
  EXPECT_GT(r.latency_min, 32.0);
}

TEST(DeadlockRecovery, AbsorptionCleansEveryHeldResource) {
  auto sim = make_sim(5, 1, ring_config(true));
  inject_ring_deadlock(*sim, /*len=*/64);
  ASSERT_TRUE(run_until_delivered(*sim, 5, 40000));
  EXPECT_TRUE(sim->network().quiescent());
  EXPECT_EQ(sim->network().flits_in_network(), 0u);
  EXPECT_EQ(sim->messages_in_flight(), 0u);
}

TEST(DeadlockRecovery, LongMessagesRecoverToo) {
  auto sim = make_sim(5, 1, ring_config(true));
  inject_ring_deadlock(*sim, /*len=*/128);
  EXPECT_TRUE(run_until_delivered(*sim, 5, 60000));
}

TEST(DeadlockRecovery, BlockedButAliveWormIsNotFalselyDetected) {
  // One worm blocked behind another that keeps draining: FC3D must not
  // fire because the requested channel shows flit activity.
  auto cfg = ring_config(true);
  auto sim = make_sim(5, 1, cfg);
  sim->push_message(0, 2, 256);  // long worm holding 1->2 for ~256 cycles
  sim->push_message(1, 3, 16);   // blocked behind it well beyond threshold
  ASSERT_TRUE(run_until_delivered(*sim, 2, 5000));
  EXPECT_EQ(sim->scan_stats().deadlocks, 0u);
}

TEST(DeadlockRecovery, HeaderInInjectionChannelIsExempt)
{
  // A message that cannot even enter the network holds no network
  // channel and must not be absorbed, no matter how long it waits.
  auto cfg = ring_config(true);
  auto sim = make_sim(5, 1, cfg);
  inject_ring_deadlock(*sim);            // consumes all first-hop VCs
  sim->push_message(0, 1, 16);           // waits in an injection channel
  sim->step_cycles(31);
  // After the ring resolves everything must deliver, and detections must
  // not exceed what the 5-cycle deadlock (and any re-formed cycles among
  // those 5 messages) accounts for.
  ASSERT_TRUE(run_until_delivered(*sim, 6, 30000));
  EXPECT_TRUE(sim->network().quiescent());
}

TEST(DeadlockRecovery, DeadlockFreeAlgorithmsNeverDetect) {
  // DOR and Duato under sustained moderate load with detection armed:
  // zero detections expected (they are deadlock-free by construction,
  // and live congestion must not look like deadlock).
  for (const auto algo : {routing::Algorithm::DOR, routing::Algorithm::Duato}) {
    SimulatorConfig cfg = default_config();
    cfg.algorithm = algo;
    cfg.detection.enabled = true;
    auto sim = make_traffic_sim(4, 2, /*offered=*/0.3, /*len=*/16, cfg);
    sim->step_cycles(20000);
    EXPECT_EQ(sim->scan_stats().deadlocks, 0u)
        << routing::algorithm_name(algo);
    EXPECT_GT(sim->scan_stats().delivered, 1000u);
  }
}

TEST(DeadlockRecovery, ReinjectionHappensAtAbsorptionNode) {
  // After recovery the message is re-injected where its header was
  // absorbed; it still reaches the original destination.
  auto sim = make_sim(5, 1, ring_config(true));
  inject_ring_deadlock(*sim);
  ASSERT_TRUE(run_until_delivered(*sim, 5, 20000));
  // Delivery implies correct destination; fairness counters recorded 5
  // injections from the 5 original sources (re-injections do not count
  // as fairness-relevant sends).
  const auto& fairness = sim->collector().fairness();
  for (topo::NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(fairness.at(i), 1u);
  }
}

TEST(DeadlockRecovery, RepeatedDeadlocksEventuallyResolve) {
  // Sustained TFAR traffic on a tiny 1-VC ring deadlocks repeatedly;
  // recovery must keep the network live and keep delivering.
  auto cfg = ring_config(true);
  auto sim = make_traffic_sim(5, 1, /*offered=*/0.5, /*len=*/16, cfg);
  sim->step_cycles(30000);
  EXPECT_GT(sim->scan_stats().delivered, 500u);
  EXPECT_GT(sim->scan_stats().deadlocks, 0u);
}

}  // namespace
}  // namespace wormsim::sim
