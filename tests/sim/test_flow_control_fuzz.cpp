// Seeded fuzz over the flow-control schemes: ~100 randomized short
// runs per scheme (wormhole / credit / virtual cut-through) asserting
// the shared structural-invariant battery every 64 cycles — buffer
// occupancy within bounds, flit conservation per VC, credit counters
// exactly accounting for buffered plus in-return-flight flits, and
// active-set coherence on the fast-path core. The credit scheme draws
// its return latency (including 0, the wormhole-equivalent point) and
// VCT sizes buffers to the drawn message length, so every admission
// regime is exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "../support/invariants.hpp"
#include "config/presets.hpp"
#include "sim/flow_control.hpp"
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
  FlowControl scheme;
  unsigned credit_delay;
  bool mutate_load;  // exercise the set_offered_load epoch path
};

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
  // Idle through oversaturated: the interesting credit/admission states
  // (counters pinned at the cap, whole-packet admission failing for
  // cycles on end) only show up under sustained backpressure.
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
  f.scheme = scheme;
  // Delay 0 is the wormhole-equivalence point; 5 exceeds the default
  // link delay so returns pile up behind streaming flits.
  f.credit_delay = pick(0u, 1u, 2u, 5u);
  f.mutate_load = rng() % 3 == 0;
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
    // Whole-packet admission needs message-deep buffers or nothing is
    // ever admitted; mirror the config-layer validation rule.
    cfg.net.buf_flits = std::max(cfg.net.buf_flits, f.msg_len);
  }
  traffic::WorkloadConfig wcfg;
  wcfg.pattern = f.pattern;
  wcfg.process = f.process;
  wcfg.offered_flits_per_node_cycle = f.offered;
  wcfg.length.fixed = f.msg_len;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, seed);
  return std::make_unique<Simulator>(topo, cfg, std::move(workload));
}

/// Param encodes scheme (param / 100) and seed index (param % 100):
/// one hundred randomized configurations per flow-control scheme.
class FlowControlFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FlowControlFuzz, InvariantsHoldUnderRandomConfig) {
  const auto scheme = static_cast<FlowControl>(GetParam() / 100);
  const int index = GetParam() % 100;
  const std::uint64_t seed = 0xF10C7210u + static_cast<unsigned>(index);
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
               (f.mutate_load ? " +load-mutation" : ""));
  auto sim = build(f, seed);

  for (int block = 0; block < 16; ++block) {
    sim->step_cycles(64);
    ASSERT_TRUE(testing::check_all_invariants(*sim));
    if (f.mutate_load && block == 7) {
      // Cross the epoch boundary mid-flight: stale generation hints must
      // be torn down, not serviced — and under credit flow control the
      // teardown path must not strand or double-free credits.
      sim->workload()->set_offered_load(f.offered > 0.2 ? 0.01 : 0.9);
    }
  }
  EXPECT_TRUE(testing::check_aggregate_conservation(*sim));
}

INSTANTIATE_TEST_SUITE_P(HundredSeedsPerScheme, FlowControlFuzz,
                         ::testing::Range(0, 300));

/// Credits must come home: drain a credit-flow-control system to full
/// quiescence and every in_use counter has to return to zero (via the
/// delayed-return queue), with the conservation check green throughout.
/// A leaked credit would permanently shrink a VC's usable buffer.
TEST(FlowControlFuzz, CreditsAllReturnAtQuiescence) {
  const topo::KAryNCube topo(4, 2);
  SimulatorConfig cfg = default_config();
  cfg.flow.scheme = FlowControl::Credit;
  cfg.flow.credit_return_delay = 5;
  traffic::WorkloadConfig wcfg;
  wcfg.offered_flits_per_node_cycle = 0.6;
  wcfg.length.fixed = 16;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 6021);
  Simulator sim(topo, cfg, std::move(workload));

  sim.step_cycles(2000);
  EXPECT_GT(sim.credit_messages(), 0u);
  sim.workload()->set_offered_load(0.0);
  const Cycle limit = sim.cycle() + 50000;
  while ((sim.messages_in_flight() > 0 || sim.source_queue_total() > 0 ||
          sim.recovery_pending() > 0) &&
         sim.cycle() < limit) {
    sim.step();
  }
  ASSERT_EQ(sim.messages_in_flight(), 0u);
  ASSERT_TRUE(sim.network().quiescent());
  // Outrun the return latency so the last credits land, then the
  // invariant check pins every counter to the (empty) buffer state.
  sim.step_cycles(64);
  ASSERT_TRUE(testing::check_all_invariants(sim));
}

/// The config layer refuses VCT setups that could never admit a
/// packet: buffers shallower than the longest message would wedge
/// every source forever (detection/recovery cannot help a message that
/// is never admitted).
TEST(FlowControlFuzz, VctValidationRejectsShallowBuffers) {
  config::SimConfig cfg = config::small_base();
  cfg.sim.flow.scheme = FlowControl::Vct;
  cfg.workload.length.fixed = 16;
  cfg.sim.net.buf_flits = 4;
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);
  cfg.sim.net.buf_flits = 16;
  EXPECT_NO_THROW(config::validate(cfg));
  // Bimodal lengths gate on the longer mode.
  cfg.workload.length.kind = traffic::LengthDist::Kind::Bimodal;
  cfg.workload.length.short_len = 4;
  cfg.workload.length.long_len = 64;
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);
  cfg.sim.net.buf_flits = 64;
  EXPECT_NO_THROW(config::validate(cfg));
}

}  // namespace
}  // namespace wormsim::sim
