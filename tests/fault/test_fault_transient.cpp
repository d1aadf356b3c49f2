// Degraded-operation soak: 20k cycles of Bursty traffic at saturation
// load under ALO, with two physical links killed a few thousand cycles
// in. The network must ride through the reconfiguration transient and
// settle back to a steady-state accepted throughput comparable to the
// pre-fault level — the testable core of the ISSUE-6 headline sweep.
// Parametrized over the flow-control schemes: credit backpressure and
// VCT admission must survive the same surgery deadlock-free.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "../sim/sim_test_util.hpp"
#include "../support/invariants.hpp"
#include "fault/schedule.hpp"
#include "metrics/online/online_stats.hpp"
#include "sim/flow_control.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;

class FaultTransientSoak : public ::testing::TestWithParam<FlowControl> {};

TEST_P(FaultTransientSoak, BurstyThroughputRecoversAfterLinkKills) {
  constexpr std::uint64_t kKillCycle = 3000;
  constexpr std::uint64_t kSoakCycles = 20000;
  constexpr std::uint64_t kInterval = 500;

  const topo::KAryNCube topo(8, 2);
  SimulatorConfig cfg = default_config();
  cfg.limiter.kind = core::LimiterKind::ALO;
  cfg.flow.scheme = GetParam();
  if (GetParam() == FlowControl::Vct) {
    cfg.net.buf_flits = 16;  // whole-packet admission needs deep buffers
  }
  cfg.faults = fault::make_transient(topo, 2, kKillCycle, 0, 0xB5E5);
  traffic::WorkloadConfig wcfg;
  wcfg.process = traffic::ProcessKind::Bursty;
  wcfg.offered_flits_per_node_cycle = 1.0;
  wcfg.length.fixed = 16;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 0xB5E5);
  Simulator sim(topo, cfg, std::move(workload));
  metrics::OnlineConfig online_cfg;
  online_cfg.window_cycles = kInterval;
  metrics::OnlineStats online(topo.num_nodes(), online_cfg);
  sim.set_online(&online);

  sim.step_cycles(kSoakCycles);
  ASSERT_EQ(sim.fault_events_applied(), 2u);
  ASSERT_EQ(sim.lut_rebuilds(), 1u);
  ASSERT_TRUE(testing::check_all_invariants(sim));

  const double nodes = topo.num_nodes();
  const auto mean_accepted = [&](std::uint64_t from, std::uint64_t to) {
    double sum = 0.0;
    unsigned count = 0;
    for (const metrics::Window& w : online.windows()) {
      if (w.start_cycle >= from && w.start_cycle + kInterval <= to) {
        sum += static_cast<double>(w.accepted_flits) /
               (static_cast<double>(w.cycles) * nodes);
        ++count;
      }
    }
    EXPECT_GT(count, 0u);
    return count ? sum / count : 0.0;
  };

  // Skip the cold start; compare warm pre-fault throughput against the
  // degraded steady state well after the rebuild transient.
  const double pre = mean_accepted(1000, kKillCycle);
  const double post = mean_accepted(10000, kSoakCycles);
  EXPECT_GT(pre, 0.1);
  EXPECT_GE(post, 0.8 * pre)
      << "degraded steady state " << post
      << " fell more than 20% below pre-fault throughput " << pre;
}

INSTANTIATE_TEST_SUITE_P(Schemes, FaultTransientSoak,
                         ::testing::Values(FlowControl::Wormhole,
                                           FlowControl::Credit,
                                           FlowControl::Vct),
                         [](const auto& param_info) {
                           return std::string(
                               flow_control_name(param_info.param));
                         });

}  // namespace
}  // namespace wormsim::sim
