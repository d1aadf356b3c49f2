// Wormhole switching semantics: pipelining, link bandwidth, VC
// multiplexing, blocking and ejection contention.
#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;
using testing::ideal_latency;
using testing::make_sim;
using testing::run_until_delivered;

TEST(Wormhole, LinkSaturatesAtOneFlitPerCycle) {
  // Back-to-back messages across one link: n messages of length L need
  // about n*L cycles of link time (pipelined), not n * full-latency.
  auto sim = make_sim(5, 1);
  const topo::NodeId dst = sim->topology().neighbor(0, 0);
  constexpr int kMsgs = 20;
  constexpr std::uint32_t kLen = 16;
  for (int i = 0; i < kMsgs; ++i) sim->push_message(0, dst, kLen);
  ASSERT_TRUE(run_until_delivered(*sim, kMsgs, 10000));
  const auto total = sim->cycle();
  // Lower bound: serialization of all flits over one ejection-side VC;
  // upper bound allows per-message header overhead but must be far
  // below fully serialized end-to-end latency.
  EXPECT_GE(total, kMsgs * kLen);
  EXPECT_LE(total, kMsgs * kLen + 100);
}

TEST(Wormhole, WormSpansMultipleRouters) {
  // A 64-flit message over a 6-hop path with 4-flit buffers must occupy
  // several VCs at once mid-flight.
  auto sim = make_sim(8, 1, [] {
    auto cfg = default_config();
    cfg.net.num_vcs = 1;
    return cfg;
  }());
  sim->push_message(0, 3, 64);
  // Step into the middle of the transfer and count held VCs.
  sim->step_cycles(20);
  std::uint64_t held = 0;
  const auto& net = sim->network();
  for (LinkId l = 0; l < net.num_links(); ++l) {
    for (unsigned v = 0; v < net.vcs_on(l); ++v) {
      if (!net.vc({l, static_cast<std::uint8_t>(v)}).free()) ++held;
    }
  }
  EXPECT_GE(held, 3u);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 2000));
  EXPECT_TRUE(sim->network().quiescent());
}

TEST(Wormhole, SingleVcBlocksSecondWorm) {
  // k=5 ring, 1 VC: 0->2 and 1->3 share link 1->2. The second worm must
  // wait for the first tail to release the VC.
  auto cfg = default_config();
  cfg.net.num_vcs = 1;
  auto solo = make_sim(5, 1, cfg);
  solo->push_message(1, 3, 32);
  ASSERT_TRUE(run_until_delivered(*solo, 1, 2000));
  const double solo_lat = solo->totals().latency_mean;

  auto sim = make_sim(5, 1, cfg);
  sim->push_message(0, 2, 32);
  sim->push_message(1, 3, 32);
  ASSERT_TRUE(run_until_delivered(*sim, 2, 5000));
  const auto r = sim->totals();
  // Message 1->3 blocked behind 0->2's worm: its latency exceeds solo.
  EXPECT_GT(r.latency_max, solo_lat + 10);
}

TEST(Wormhole, TwoVcsMultiplexTheLink) {
  // Same conflict with 2 VCs: both worms advance, sharing bandwidth.
  auto cfg = default_config();
  cfg.net.num_vcs = 2;
  auto sim = make_sim(5, 1, cfg);
  sim->push_message(0, 2, 32);
  sim->push_message(1, 3, 32);
  ASSERT_TRUE(run_until_delivered(*sim, 2, 5000));
  const auto r = sim->totals();

  auto cfg1 = default_config();
  cfg1.net.num_vcs = 1;
  auto blocked = make_sim(5, 1, cfg1);
  blocked->push_message(0, 2, 32);
  blocked->push_message(1, 3, 32);
  ASSERT_TRUE(run_until_delivered(*blocked, 2, 5000));
  const auto rb = blocked->totals();

  // VC multiplexing strictly improves the blocked worm's completion.
  EXPECT_LT(r.latency_max, rb.latency_max);
}

TEST(Wormhole, RoundRobinSharesBandwidthFairly) {
  // Two long worms multiplexing one link should finish close together.
  auto cfg = default_config();
  cfg.net.num_vcs = 2;
  auto sim = make_sim(5, 1, cfg);
  sim->push_message(0, 2, 64);
  sim->push_message(1, 3, 64);
  ASSERT_TRUE(run_until_delivered(*sim, 2, 5000));
  const auto r = sim->totals();
  // Demand-slotted round robin: both take ~2x the solo time; the spread
  // between the two must be small compared to the message length.
  EXPECT_LT(r.latency_max - r.latency_min, 64.0);
}

TEST(Wormhole, EjectionPortsLimitSinkBandwidth) {
  // 6 long messages to one destination with 2 ejection ports: the sink
  // drains at most 2 flits/cycle.
  auto cfg = default_config();
  cfg.net.eje_channels = 2;
  auto sim = make_sim(4, 2, cfg);
  constexpr std::uint32_t kLen = 32;
  // Six different sources, same destination 5.
  for (const topo::NodeId src : {0u, 1u, 2u, 3u, 8u, 12u}) {
    sim->push_message(src, 5, kLen);
  }
  ASSERT_TRUE(run_until_delivered(*sim, 6, 5000));
  // 6*32 = 192 flits through 2 ports >= 96 cycles.
  EXPECT_GE(sim->cycle(), 96u);
}

TEST(Wormhole, BodyFollowsHeaderPath) {
  // After delivery the network must be fully clean — no stranded flits
  // anywhere along the multi-hop path.
  auto sim = make_sim(4, 3);
  sim->push_message(0, 42 % 64, 64);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 3000));
  EXPECT_EQ(sim->network().flits_in_network(), 0u);
  EXPECT_TRUE(sim->network().quiescent());
}

TEST(Wormhole, ManyParallelWormsAllComplete) {
  auto sim = make_sim(4, 2);
  unsigned count = 0;
  for (topo::NodeId src = 0; src < 16; ++src) {
    const topo::NodeId dst = (src + 5) % 16;
    if (dst == src) continue;
    sim->push_message(src, dst, 24);
    ++count;
  }
  ASSERT_TRUE(run_until_delivered(*sim, count, 10000));
  EXPECT_TRUE(sim->network().quiescent());
  EXPECT_EQ(sim->total_deadlock_detections(), 0u);
}

TEST(Wormhole, HeaderWaitsForRoutingDelay) {
  // Doubling the routing delay adds one cycle per hop.
  auto cfg = default_config();
  cfg.routing_delay = 2;
  auto sim = make_sim(4, 2, cfg);
  sim->push_message(0, 5, 16);  // distance 2
  ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
  const auto r = sim->totals();
  EXPECT_DOUBLE_EQ(r.latency_mean,
                   static_cast<double>(ideal_latency(*sim, 0, 5, 16)));
}

TEST(Wormhole, LinkDelayScalesPerHop) {
  auto cfg = default_config();
  cfg.net.link_delay = 4;
  cfg.net.buf_flits = 8;  // buffer must cover the credit round-trip
  auto sim = make_sim(4, 2, cfg);
  sim->push_message(0, 5, 16);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
  const auto r = sim->totals();
  EXPECT_DOUBLE_EQ(r.latency_mean,
                   static_cast<double>(ideal_latency(*sim, 0, 5, 16)));
}

TEST(Wormhole, ShallowBuffersAddCreditStalls) {
  // With buf_flits == link_delay the buffer cannot cover the credit
  // round-trip, costing one bubble per hop — a real router effect the
  // simulator must reproduce.
  auto cfg = default_config();
  cfg.net.link_delay = 4;
  cfg.net.buf_flits = 4;
  auto sim = make_sim(4, 2, cfg);
  sim->push_message(0, 5, 16);  // 2 hops
  ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
  const auto r = sim->totals();
  EXPECT_GT(r.latency_mean,
            static_cast<double>(ideal_latency(*sim, 0, 5, 16)));
}

}  // namespace
}  // namespace wormsim::sim
