// Whole-simulator invariants under random traffic: conservation of
// messages and flits, buffer bounds, clean drain, and determinism.
#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;
using testing::make_traffic_sim;

void check_structural_invariants(const Simulator& sim) {
  const Network& net = sim.network();
  const auto cap = net.params().buf_flits;
  for (LinkId l = 0; l < net.num_links(); ++l) {
    for (unsigned v = 0; v < net.vcs_on(l); ++v) {
      const VcState& vc = net.vc({l, static_cast<std::uint8_t>(v)});
      if (vc.free()) {
        ASSERT_EQ(vc.buffered(), 0u);
        ASSERT_EQ(vc.occupancy, 0u);
        ASSERT_EQ(net.link(l).active_vc_mask & (1u << v), 0u)
            << "free VC marked active";
      } else {
        ASSERT_NE(net.link(l).active_vc_mask & (1u << v), 0u)
            << "tenant VC not marked active";
        ASSERT_LE(vc.out_count, vc.in_count);
        ASSERT_LE(vc.buffered(), cap);
        ASSERT_LE(vc.buffered(), vc.occupancy);
        ASSERT_LE(vc.occupancy, cap);
        const Message& m = sim.message(vc.msg);
        ASSERT_LE(vc.in_count, m.length);
        // Worm chain consistency: a valid upstream must point back here.
        if (vc.upstream.valid()) {
          const VcState& up = net.vc(vc.upstream);
          ASSERT_EQ(up.msg, vc.msg);
          ASSERT_EQ(up.out_kind, VcState::OutKind::Vc);
          ASSERT_EQ(up.out.link, l);
          ASSERT_EQ(up.out.vc, v);
        }
      }
    }
  }
}

class InvariantTest
    : public ::testing::TestWithParam<std::tuple<double, unsigned>> {};

TEST_P(InvariantTest, HoldThroughoutRandomRun) {
  const auto [offered, vcs] = GetParam();
  SimulatorConfig cfg = default_config();
  cfg.net.num_vcs = vcs;
  auto sim = make_traffic_sim(4, 2, offered, 16, cfg);
  for (int block = 0; block < 40; ++block) {
    sim->step_cycles(100);
    check_structural_invariants(*sim);
  }
  // Conservation: generated = delivered + in flight + queued + pending
  // recovery.
  const auto r = sim->totals();
  EXPECT_EQ(r.messages_generated,
            r.messages_delivered + sim->messages_in_flight() +
                sim->source_queue_total());
}

INSTANTIATE_TEST_SUITE_P(
    Loads, InvariantTest,
    ::testing::Values(std::make_tuple(0.1, 3u), std::make_tuple(0.5, 3u),
                      std::make_tuple(0.9, 3u), std::make_tuple(1.5, 3u),
                      std::make_tuple(0.7, 1u), std::make_tuple(0.7, 2u)));

TEST(Invariants, NetworkDrainsWhenTrafficStops) {
  auto sim = make_traffic_sim(4, 2, 0.5, 16, default_config());
  sim->step_cycles(5000);
  sim->workload()->set_offered_load(0.0);
  // Everything in flight and queued must eventually deliver.
  std::uint64_t limit = sim->cycle() + 50000;
  while ((sim->messages_in_flight() > 0 || sim->source_queue_total() > 0 ||
          sim->recovery_pending() > 0) &&
         sim->cycle() < limit) {
    sim->step();
  }
  EXPECT_EQ(sim->messages_in_flight(), 0u);
  EXPECT_EQ(sim->source_queue_total(), 0u);
  EXPECT_TRUE(sim->network().quiescent());
  const auto r = sim->totals();
  EXPECT_EQ(r.messages_generated, r.messages_delivered);
}

TEST(Invariants, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    auto sim = make_traffic_sim(4, 2, 0.8, 16, default_config(),
                                traffic::PatternKind::Uniform, seed);
    sim->step_cycles(8000);
    const auto r = sim->totals();
    return std::make_tuple(r.messages_generated, r.messages_delivered,
                           sim->scan_stats().deadlocks,
                           r.latency_mean);
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(Invariants, MeasuredLatencyOnlyCountsWindowMessages) {
  const topo::KAryNCube topo(4, 2);
  SimulatorConfig cfg = default_config();
  traffic::WorkloadConfig wcfg;
  wcfg.offered_flits_per_node_cycle = 0.3;
  wcfg.length.fixed = 16;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 7);
  Simulator sim(topo, cfg, std::move(workload));
  RunProtocol protocol;
  protocol.warmup = 2000;
  protocol.measure = 5000;
  protocol.drain_max = 20000;
  const auto r = sim.run(protocol);
  EXPECT_GT(r.measured_generated, 0u);
  EXPECT_EQ(r.measured_delivered, r.measured_generated);
  EXPECT_TRUE(r.fully_drained);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.latency_mean, 0.0);
  EXPECT_NEAR(r.accepted_flits_per_node_cycle, 0.3, 0.02);
}

TEST(Invariants, ProbeCountsAccumulate) {
  const topo::KAryNCube topo(4, 2);
  SimulatorConfig cfg = default_config();
  traffic::WorkloadConfig wcfg;
  wcfg.offered_flits_per_node_cycle = 0.4;
  wcfg.length.fixed = 16;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 9);
  Simulator sim(topo, cfg, std::move(workload));
  RunProtocol protocol;
  protocol.warmup = 1000;
  protocol.measure = 4000;
  const auto r = sim.run(protocol);
  EXPECT_GT(r.probe.samples, 0u);
  EXPECT_GE(r.probe.pct_either(), r.probe.pct_a());
  EXPECT_GE(r.probe.pct_either(), r.probe.pct_b());
  EXPECT_LE(r.probe.pct_either(), 100.0);
}

TEST(Invariants, FairnessCountsMatchInjections) {
  const topo::KAryNCube topo(4, 2);
  SimulatorConfig cfg = default_config();
  traffic::WorkloadConfig wcfg;
  wcfg.offered_flits_per_node_cycle = 0.2;
  wcfg.length.fixed = 16;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 11);
  Simulator sim(topo, cfg, std::move(workload));
  RunProtocol protocol;
  protocol.warmup = 500;
  protocol.measure = 3000;
  const auto r = sim.run(protocol);
  std::uint64_t fairness_total = 0;
  for (topo::NodeId n = 0; n < 16; ++n) {
    fairness_total += sim.collector().fairness().at(n);
  }
  EXPECT_EQ(fairness_total, r.messages_injected_window);
}

}  // namespace
}  // namespace wormsim::sim
