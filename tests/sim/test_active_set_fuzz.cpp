// Seeded fuzz over the active-set core: ~100 randomized short runs
// asserting the structural invariants the incremental bookkeeping must
// preserve — flit/message conservation (generated = delivered +
// in-flight + queued), no duplicate active-set membership (incremental
// counts match a bitmap recount), and that lazily retired links/nodes
// re-activate on the next event touching them.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "../support/invariants.hpp"
#include "sim_test_util.hpp"

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
  bool mutate_load;  // exercise the set_offered_load epoch path
};

FuzzConfig draw_config(std::mt19937_64& rng) {
  const auto pick = [&](auto... vals) {
    using T = std::common_type_t<decltype(vals)...>;
    const T options[] = {vals...};
    return options[rng() % (sizeof...(vals))];
  };
  FuzzConfig f;
  f.k = pick(2u, 3u, 4u);
  f.n = pick(1u, 2u);
  f.vcs = pick(1u, 2u, 3u);
  // Mix genuinely idle, moderate and saturating systems; idle ones are
  // where stale set members and missed re-activations would hide.
  f.offered = pick(0.0, 0.02, 0.15, 0.5, 1.0, 1.6);
  f.msg_len = pick(4u, 16u, 64u);
  // Bit-permutation patterns need a power-of-two node count, which a
  // 3-ary cube is not.
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
  f.mutate_load = rng() % 3 == 0;
  return f;
}

std::unique_ptr<Simulator> build(const FuzzConfig& f, std::uint64_t seed) {
  const topo::KAryNCube topo(f.k, f.n);
  SimulatorConfig cfg = default_config();
  cfg.net.num_vcs = f.vcs;
  cfg.limiter.kind = f.limiter;
  traffic::WorkloadConfig wcfg;
  wcfg.pattern = f.pattern;
  wcfg.process = f.process;
  wcfg.offered_flits_per_node_cycle = f.offered;
  wcfg.length.fixed = f.msg_len;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, seed);
  return std::make_unique<Simulator>(topo, cfg, std::move(workload));
}

class ActiveSetFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ActiveSetFuzz, InvariantsHoldUnderRandomConfig) {
  const std::uint64_t seed = 0xF022ED00u + static_cast<unsigned>(GetParam());
  std::mt19937_64 rng(seed);
  const FuzzConfig f = draw_config(rng);
  SCOPED_TRACE("k=" + std::to_string(f.k) + " n=" + std::to_string(f.n) +
               " vcs=" + std::to_string(f.vcs) +
               " offered=" + std::to_string(f.offered) +
               " len=" + std::to_string(f.msg_len) + " pattern=" +
               std::string(traffic::pattern_name(f.pattern)) + " process=" +
               std::string(traffic::process_name(f.process)) + " limiter=" +
               std::string(core::limiter_name(f.limiter)) +
               (f.mutate_load ? " +load-mutation" : ""));
  auto sim = build(f, seed);

  for (int block = 0; block < 12; ++block) {
    sim->step_cycles(100);
    ASSERT_TRUE(testing::check_all_invariants(*sim));
    if (f.mutate_load && block == 5) {
      // Cross the epoch boundary mid-flight: stale generation hints must
      // be torn down, not serviced.
      sim->workload()->set_offered_load(f.offered > 0.2 ? 0.01 : 0.9);
    }
  }
  // Aggregate conservation, visible through the public counters too.
  EXPECT_TRUE(testing::check_aggregate_conservation(*sim));
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, ActiveSetFuzz,
                         ::testing::Range(0, 100));

/// Retirement is not forever: drain the system to full quiescence (all
/// active sets allowed to lazily empty), then hit one node with a fresh
/// message. If any retired link/node failed to re-activate, the message
/// could never traverse or deliver.
TEST(ActiveSetFuzz, RetiredComponentsReactivateOnNextEvent) {
  const topo::KAryNCube topo(4, 2);
  SimulatorConfig cfg = default_config();
  traffic::WorkloadConfig wcfg;
  wcfg.offered_flits_per_node_cycle = 0.4;
  wcfg.length.fixed = 16;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 2026);
  Simulator sim(topo, cfg, std::move(workload));

  sim.step_cycles(2000);
  sim.workload()->set_offered_load(0.0);
  const Cycle limit = sim.cycle() + 50000;
  while ((sim.messages_in_flight() > 0 || sim.source_queue_total() > 0 ||
          sim.recovery_pending() > 0) &&
         sim.cycle() < limit) {
    sim.step();
  }
  ASSERT_EQ(sim.messages_in_flight(), 0u);
  ASSERT_TRUE(sim.network().quiescent());
  // Let every lazily-pruned set drain while the system is idle.
  sim.step_cycles(200);
  std::string why;
  ASSERT_TRUE(sim.check_active_sets(&why)) << why;
  ASSERT_TRUE(sim.check_conservation(&why)) << why;

  const std::uint64_t delivered_before = sim.total_delivered();
  ASSERT_TRUE(sim.push_message(0, 15, 16));
  ASSERT_TRUE(testing::run_until_delivered(sim, delivered_before + 1, 2000));
  ASSERT_TRUE(sim.check_active_sets(&why)) << why;
  ASSERT_TRUE(sim.check_conservation(&why)) << why;

  // And again from a different corner of the machine, crossing links
  // that have been idle (and retired) for thousands of cycles.
  ASSERT_TRUE(sim.push_message(10, 5, 64));
  ASSERT_TRUE(testing::run_until_delivered(sim, delivered_before + 2, 2000));
  EXPECT_TRUE(sim.network().quiescent());
}

/// Zero-rate sources unsubscribe from generation entirely (kNeverPoll);
/// a later load increase must resubscribe every node through the epoch
/// bump — generation resumes, it does not stay dark.
TEST(ActiveSetFuzz, RateZeroThenRampGeneratesAgain) {
  const topo::KAryNCube topo(4, 2);
  SimulatorConfig cfg = default_config();
  traffic::WorkloadConfig wcfg;
  wcfg.offered_flits_per_node_cycle = 0.0;
  wcfg.length.fixed = 16;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 31337);
  Simulator sim(topo, cfg, std::move(workload));

  sim.step_cycles(500);
  EXPECT_EQ(sim.totals().messages_generated + sim.source_queue_total() +
                sim.messages_in_flight() + sim.total_delivered(),
            0u);
  sim.workload()->set_offered_load(0.5);
  sim.step_cycles(1000);
  EXPECT_GT(sim.total_delivered(), 0u);
  std::string why;
  EXPECT_TRUE(sim.check_active_sets(&why)) << why;
  EXPECT_TRUE(sim.check_conservation(&why)) << why;
}

}  // namespace
}  // namespace wormsim::sim
