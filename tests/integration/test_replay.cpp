// Trace replay equivalence: replaying a recorded workload trace must
// reproduce the live simulation exactly.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/replay.hpp"
#include "metrics/spatial.hpp"

namespace wormsim {
namespace {

sim::SimulatorConfig sim_cfg() {
  sim::SimulatorConfig cfg;
  cfg.detection.threshold = 32;
  return cfg;
}

traffic::WorkloadConfig workload_cfg(double offered) {
  traffic::WorkloadConfig cfg;
  cfg.offered_flits_per_node_cycle = offered;
  cfg.length.fixed = 16;
  return cfg;
}

TEST(Replay, MatchesLiveWorkloadExactly) {
  const topo::KAryNCube topo(4, 2);
  const auto wcfg = workload_cfg(0.6);
  constexpr std::uint64_t kCycles = 4000;

  // Live run.
  auto live_workload = std::make_unique<traffic::Workload>(topo, wcfg, 7);
  sim::Simulator live(topo, sim_cfg(), std::move(live_workload));
  live.step_cycles(kCycles);

  // Recorded + replayed run.
  const traffic::Trace trace =
      traffic::Trace::from_workload(topo, wcfg, 7, kCycles);
  sim::Simulator replay(topo, sim_cfg(), nullptr);
  harness::TraceReplayer replayer(trace);
  while (replay.cycle() < kCycles) replayer.pump_and_step(replay);

  EXPECT_TRUE(replayer.exhausted());
  const auto rl = live.totals();
  const auto rr = replay.totals();
  EXPECT_EQ(rl.messages_generated, rr.messages_generated);
  EXPECT_EQ(rl.messages_delivered, rr.messages_delivered);
  EXPECT_DOUBLE_EQ(rl.latency_mean, rr.latency_mean);
  EXPECT_EQ(live.total_deadlock_detections(),
            replay.total_deadlock_detections());
  EXPECT_EQ(live.network().flits_in_network(),
            replay.network().flits_in_network());
}

/// A trace recorded on a larger network names nodes the replaying one
/// does not have: replay must refuse it, not index past its queues.
TEST(Replay, TraceForALargerNetworkThrows) {
  const traffic::Trace trace = traffic::Trace::from_workload(
      topo::KAryNCube(8, 3), workload_cfg(0.3), 11, 200);
  const auto& records = trace.records();
  ASSERT_TRUE(std::any_of(records.begin(), records.end(), [](const auto& r) {
    return r.src >= 64 || r.dst >= 64;
  }));
  const topo::KAryNCube small(8, 2);
  sim::Simulator sim(small, sim_cfg(), nullptr);
  harness::TraceReplayer replayer(trace);
  EXPECT_THROW(replayer.run_to_completion(sim, 100), std::invalid_argument);
}

TEST(Replay, RunToCompletionDrains) {
  const topo::KAryNCube topo(4, 2);
  const traffic::Trace trace =
      traffic::Trace::from_workload(topo, workload_cfg(0.3), 9, 1500);
  sim::Simulator sim(topo, sim_cfg(), nullptr);
  harness::TraceReplayer replayer(trace);
  replayer.run_to_completion(sim, 20000);
  EXPECT_EQ(replayer.replayed(), trace.size());
  EXPECT_TRUE(sim.network().quiescent());
  EXPECT_EQ(sim.total_delivered(), trace.size());
}

TEST(Replay, UtilizationCountersMatchLiveRun) {
  const topo::KAryNCube topo(4, 2);
  const auto wcfg = workload_cfg(0.5);
  constexpr std::uint64_t kCycles = 3000;
  const auto links = static_cast<std::uint32_t>(topo.num_links());
  const unsigned vcs = sim_cfg().net.num_vcs;

  auto live_workload = std::make_unique<traffic::Workload>(topo, wcfg, 3);
  sim::Simulator live(topo, sim_cfg(), std::move(live_workload));
  metrics::SpatialMetrics live_links(topo.num_nodes(), links, vcs);
  live.set_spatial(&live_links);
  live.step_cycles(kCycles);

  const auto trace = traffic::Trace::from_workload(topo, wcfg, 3, kCycles);
  sim::Simulator replay(topo, sim_cfg(), nullptr);
  metrics::SpatialMetrics replay_links(topo.num_nodes(), links, vcs);
  replay.set_spatial(&replay_links);
  harness::TraceReplayer replayer(trace);
  while (replay.cycle() < kCycles) replayer.pump_and_step(replay);

  std::uint64_t total = 0;
  for (std::uint32_t l = 0; l < links; ++l) {
    EXPECT_EQ(live_links.link_flits(l), replay_links.link_flits(l))
        << "link " << l;
    total += live_links.link_flits(l);
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace wormsim
