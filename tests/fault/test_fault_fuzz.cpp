// Seeded fuzz over the fault subsystem, mirroring the active-set
// fuzzer: ~100 randomized short runs on small tori per flow-control
// scheme, each with a random kill/restore schedule applied mid-flight,
// asserting every 64 cycles that flit/message conservation holds (with
// the lost-to-faults term), that the active-set bookkeeping stays
// coherent through the surgery, that the fault invariants hold (dead
// links hold no tenants and advertise no free VCs, dead nodes have
// empty queues and idle ports, no active message targets a dead
// destination), and — under credit flow control — that fault teardown
// neither strands nor double-frees credits.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "../sim/sim_test_util.hpp"
#include "../support/invariants.hpp"
#include "fault/schedule.hpp"
#include "sim/flow_control.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;

struct FuzzConfig {
  unsigned k;
  unsigned n;
  unsigned vcs;
  double offered;
  std::uint32_t msg_len;
  traffic::PatternKind pattern;
  traffic::ProcessKind process;
  core::LimiterKind limiter;
  FlowControl scheme;
  unsigned credit_delay;
  fault::FaultSchedule schedule;
};

constexpr std::uint64_t kRunCycles = 1024;  // 16 blocks x 64 cycles

FuzzConfig draw_config(std::mt19937_64& rng, FlowControl scheme) {
  const auto pick = [&](auto... vals) {
    using T = std::common_type_t<decltype(vals)...>;
    const T options[] = {vals...};
    return options[rng() % (sizeof...(vals))];
  };
  FuzzConfig f;
  f.k = pick(2u, 3u, 4u);
  f.n = pick(1u, 2u);
  f.vcs = pick(1u, 2u, 3u);
  f.offered = pick(0.02, 0.15, 0.5, 1.0, 1.6);
  f.msg_len = pick(4u, 16u, 64u);
  f.pattern = f.k == 3 ? pick(traffic::PatternKind::Uniform,
                              traffic::PatternKind::Tornado)
                       : pick(traffic::PatternKind::Uniform,
                              traffic::PatternKind::Complement,
                              traffic::PatternKind::BitReversal,
                              traffic::PatternKind::Tornado);
  f.process = pick(traffic::ProcessKind::Exponential,
                   traffic::ProcessKind::Bernoulli,
                   traffic::ProcessKind::Bursty);
  f.limiter = pick(core::LimiterKind::None, core::LimiterKind::ALO,
                   core::LimiterKind::LF, core::LimiterKind::DRIL);
  f.scheme = scheme;
  f.credit_delay = pick(0u, 1u, 2u, 5u);

  // Random kill/restore pairs: 1-4 faulty components, each killed at a
  // random cycle inside the run and restored later with probability
  // 2/3 (possibly past the end of the run, which must be harmless).
  const topo::KAryNCube topo(f.k, f.n);
  std::vector<fault::FaultEvent> events;
  const unsigned components = 1 + rng() % 4;
  for (unsigned i = 0; i < components; ++i) {
    const fault::Cycle kill_at = rng() % (kRunCycles - 64);
    const bool node_fault = rng() % 4 == 0;
    const topo::NodeId node =
        static_cast<topo::NodeId>(rng() % topo.num_nodes());
    const topo::ChannelId channel =
        static_cast<topo::ChannelId>(rng() % topo.num_channels());
    const auto kind =
        node_fault ? fault::FaultKind::NodeKill : fault::FaultKind::LinkKill;
    events.push_back({kill_at, kind, node, node_fault ? topo::ChannelId{0}
                                                      : channel});
    if (rng() % 3 != 0) {
      const fault::Cycle restore_at = kill_at + 64 + rng() % kRunCycles;
      events.push_back({restore_at,
                        node_fault ? fault::FaultKind::NodeRestore
                                   : fault::FaultKind::LinkRestore,
                        node, node_fault ? topo::ChannelId{0} : channel});
    }
  }
  f.schedule = fault::FaultSchedule(std::move(events));
  return f;
}

std::unique_ptr<Simulator> build(const FuzzConfig& f, std::uint64_t seed) {
  const topo::KAryNCube topo(f.k, f.n);
  SimulatorConfig cfg = default_config();
  cfg.net.num_vcs = f.vcs;
  cfg.limiter.kind = f.limiter;
  cfg.flow.scheme = f.scheme;
  cfg.flow.credit_return_delay = f.credit_delay;
  if (f.scheme == FlowControl::Vct) {
    // Whole-packet admission needs message-deep buffers.
    cfg.net.buf_flits = std::max(cfg.net.buf_flits, f.msg_len);
  }
  cfg.faults = f.schedule;
  traffic::WorkloadConfig wcfg;
  wcfg.pattern = f.pattern;
  wcfg.process = f.process;
  wcfg.offered_flits_per_node_cycle = f.offered;
  wcfg.length.fixed = f.msg_len;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, seed);
  return std::make_unique<Simulator>(topo, cfg, std::move(workload));
}

/// Param encodes flow-control scheme (param / 100) and seed index
/// (param % 100): the full fault matrix runs against wormhole, credit
/// and virtual cut-through alike.
class FaultFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzz, InvariantsHoldThroughRandomSchedules) {
  const auto scheme = static_cast<FlowControl>(GetParam() / 100);
  const int index = GetParam() % 100;
  const std::uint64_t seed = 0xFA017E57u + static_cast<unsigned>(index);
  std::mt19937_64 rng(seed);
  const FuzzConfig f = draw_config(rng, scheme);
  SCOPED_TRACE("scheme=" + std::string(flow_control_name(f.scheme)) +
               " k=" + std::to_string(f.k) + " n=" + std::to_string(f.n) +
               " vcs=" + std::to_string(f.vcs) +
               " offered=" + std::to_string(f.offered) +
               " len=" + std::to_string(f.msg_len) + " pattern=" +
               std::string(traffic::pattern_name(f.pattern)) + " process=" +
               std::string(traffic::process_name(f.process)) + " limiter=" +
               std::string(core::limiter_name(f.limiter)) +
               " credit-delay=" + std::to_string(f.credit_delay) +
               " fault_events=" + std::to_string(f.schedule.size()));
  auto sim = build(f, seed);

  for (std::uint64_t block = 0; block < kRunCycles / 64; ++block) {
    sim->step_cycles(64);
    ASSERT_TRUE(testing::check_all_invariants(*sim));
  }

  // Aggregate conservation through the public counters, including the
  // lost-to-faults term.
  EXPECT_TRUE(testing::check_aggregate_conservation(*sim));
  // The schedule's past-due events were all consumed.
  const fault::FaultManager* mgr = sim->fault_manager();
  ASSERT_NE(mgr, nullptr);
  std::uint64_t due = 0;
  for (const fault::FaultEvent& e : f.schedule.events()) {
    if (e.cycle < sim->cycle()) ++due;
  }
  EXPECT_EQ(mgr->events_applied(), due);
}

INSTANTIATE_TEST_SUITE_P(HundredSeedsPerScheme, FaultFuzz,
                         ::testing::Range(0, 300));

/// A restored network keeps working: kill every fault in the schedule,
/// restore them all, then check traffic still delivers end to end.
TEST(FaultFuzz, TrafficFlowsAfterFullRestore) {
  const topo::KAryNCube topo(4, 2);
  SimulatorConfig cfg = default_config();
  cfg.faults = fault::FaultSchedule({
      {100, fault::FaultKind::LinkKill, 3, 0},
      {100, fault::FaultKind::NodeKill, 9, 0},
      {400, fault::FaultKind::LinkRestore, 3, 0},
      {400, fault::FaultKind::NodeRestore, 9, 0},
  });
  traffic::WorkloadConfig wcfg;
  wcfg.offered_flits_per_node_cycle = 0.3;
  wcfg.length.fixed = 16;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 777);
  Simulator sim(topo, cfg, std::move(workload));

  sim.step_cycles(600);
  ASSERT_EQ(sim.fault_events_applied(), 4u);
  EXPECT_EQ(sim.lut_rebuilds(), 2u);  // one per fault cycle
  const std::uint64_t delivered_at_restore = sim.scan_stats().delivered;
  sim.step_cycles(600);
  EXPECT_GT(sim.scan_stats().delivered, delivered_at_restore);
  EXPECT_TRUE(testing::check_all_invariants(sim));
}

}  // namespace
}  // namespace wormsim::sim
