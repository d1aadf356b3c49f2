// Lock-step of the Simulator against the naive reference model: both
// advance one cycle at a time from the same configuration and seed, and
// after every cycle they must agree on each VC's tenant, occupancy and
// buffered flits, every source-queue length, the recovery backlog, the
// credit-message count and every event count of the Simulator's ledger
// (generated messages and flits, injected, ejected flits, delivered,
// detected, lost and the Figure-2 probe). The matrix covers both test
// networks, loads below and past saturation, the four limiters, the
// three flow-control schemes, detection on and off, the three routing
// algorithms, the three arrival processes, a mid-run load change and
// kill/restore fault schedules.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <utility>
#include <string>
#include <vector>

#include "../sim/sim_test_util.hpp"
#include "../support/invariants.hpp"
#include "fault/schedule.hpp"
#include "reference_model.hpp"

namespace wormsim::reference {
namespace {

using core::LimiterKind;
using routing::Algorithm;
using sim::FlowControl;
using traffic::ProcessKind;

struct Scenario {
  unsigned k = 4;
  unsigned n = 2;
  sim::SimulatorConfig cfg = sim::testing::default_config();
  traffic::WorkloadConfig workload = [] {
    traffic::WorkloadConfig w;
    w.length.fixed = 16;
    return w;
  }();
  std::uint64_t seed = 777;
};

/// A Simulator and a ReferenceModel built from one Scenario.
class LockStepPair {
 public:
  explicit LockStepPair(const Scenario& s)
      : topo_(s.k, s.n),
        sim_(std::make_unique<sim::Simulator>(topo_, s.cfg, workload(s))),
        ref_(std::make_unique<ReferenceModel>(topo_, s.cfg, workload(s))) {}

  /// Step both `cycles` times, comparing them after every cycle.
  ::testing::AssertionResult run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      sim_->step();
      ref_->step();
      if (auto r = agree(); !r) return r;
      if (sim_->cycle() % 128 == 0) {
        if (auto r = sim::testing::check_all_invariants(*sim_); !r) return r;
      }
    }
    return ::testing::AssertionSuccess();
  }

  void set_offered_load(double load) {
    sim_->workload()->set_offered_load(load);
    ref_->workload()->set_offered_load(load);
  }
  const sim::Simulator& sim() const { return *sim_; }
  const ReferenceModel& ref() const { return *ref_; }

 private:
  std::unique_ptr<traffic::Workload> workload(const Scenario& s) const {
    return std::make_unique<traffic::Workload>(topo_, s.workload, s.seed);
  }

  ::testing::AssertionResult agree() const {
    const Cycle at = sim_->cycle() - 1;
    const auto differ = [at](const std::string& what) {
      return ::testing::AssertionFailure()
             << "cycle " << at << ": " << what << " differs";
    };
    const sim::Network& net = sim_->network();
    for (LinkId l = 0; l < net.num_links(); ++l) {
      for (unsigned v = 0; v < net.vcs_on(l); ++v) {
        const sim::VcState& x = net.vc({l, v});
        std::optional<ReferenceModel::Tenant> tenant;
        if (!x.free()) {
          const sim::Message& m = sim_->message(x.msg);
          tenant = ReferenceModel::Tenant{m.src, m.dst, m.gen_time, m.length};
        }
        const std::string vc = std::to_string(l) + "/" + std::to_string(v);
        if (tenant != ref_->tenant(l, v)) return differ("tenant of VC " + vc);
        if (x.occupancy != ref_->occupancy(l, v)) {
          return differ("occupancy of VC " + vc);
        }
        if (x.buffered() != ref_->buffered(l, v)) {
          return differ("buffered flits of VC " + vc);
        }
      }
    }
    for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
      if (sim_->source_queue_len(node) != ref_->queue_len(node)) {
        return differ("source queue of node " + std::to_string(node));
      }
    }
    // Every event field of the ledger: each window of a run is a
    // difference of two ledger readings, so this checks every window.
    using sim::CoreScanStats;
    static constexpr std::pair<const char*, std::uint64_t CoreScanStats::*>
        kEvents[] = {
            {"generated", &CoreScanStats::generated},
            {"generated-flit", &CoreScanStats::generated_flits},
            {"injected", &CoreScanStats::injected},
            {"ejected-flit", &CoreScanStats::ejected_flits},
            {"delivered", &CoreScanStats::delivered},
            {"measured delivered", &CoreScanStats::delivered_measured},
            {"detected", &CoreScanStats::deadlocks},
            {"lost", &CoreScanStats::lost},
            {"measured lost", &CoreScanStats::lost_measured},
            {"probe", &CoreScanStats::probes},
            {"probe rule (a)", &CoreScanStats::probe_rule_a},
            {"probe rule (b)", &CoreScanStats::probe_rule_b},
            {"probe either-rule", &CoreScanStats::probe_either},
        };
    for (const auto& [name, field] : kEvents) {
      if (sim_->scan_stats().*field != ref_->ledger().*field) {
        return differ(std::string(name) + " count");
      }
    }
    if (sim_->recovery_pending() != ref_->recovery_pending()) {
      return differ("recovery backlog");
    }
    if (sim_->credit_messages() != ref_->credit_messages()) {
      return differ("credit-message count");
    }
    return ::testing::AssertionSuccess();
  }

  topo::KAryNCube topo_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<ReferenceModel> ref_;
};

Scenario past_saturation(LimiterKind limiter) {
  Scenario s;
  s.cfg.limiter.kind = limiter;
  s.workload.offered_flits_per_node_cycle = 1.1;
  return s;
}

Scenario with_scheme(Scenario s, FlowControl scheme) {
  s.cfg.flow.scheme = scheme;
  if (scheme == FlowControl::Vct) {
    s.cfg.net.buf_flits = 16;  // admission needs message-deep buffers
  }
  return s;
}

/// The comparison is not vacuous: two runs of different seeds part ways.
TEST(ReferenceLockStep, NoticesADifferentSeed) {
  Scenario s = past_saturation(LimiterKind::None);
  const topo::KAryNCube topo(s.k, s.n);
  sim::Simulator sim(topo, s.cfg,
                     std::make_unique<traffic::Workload>(topo, s.workload, 1));
  ReferenceModel ref(topo, s.cfg,
                     std::make_unique<traffic::Workload>(topo, s.workload, 2));
  bool parted = false;
  for (int i = 0; i < 200 && !parted; ++i) {
    sim.step();
    ref.step();
    parted = sim.source_queue_total() !=
             [&] {
               std::size_t total = 0;
               for (NodeId node = 0; node < topo.num_nodes(); ++node) {
                 total += ref.queue_len(node);
               }
               return total;
             }();
  }
  EXPECT_TRUE(parted);
}

/// Every limiter past saturation on the 4-ary 2-cube, where deadlock
/// recovery and the limiters' refusals are both hot.
class LockStep : public ::testing::TestWithParam<LimiterKind> {};

TEST_P(LockStep, ChannelStateAgreesEveryCycle) {
  LockStepPair pair(past_saturation(GetParam()));
  ASSERT_TRUE(pair.run(3000));
  EXPECT_GT(pair.ref().ledger().delivered, 0u);
}

INSTANTIATE_TEST_SUITE_P(Limiters, LockStep,
                         ::testing::Values(LimiterKind::None, LimiterKind::ALO,
                                           LimiterKind::LF, LimiterKind::DRIL),
                         [](const auto& param_info) {
                           return std::string(
                               core::limiter_name(param_info.param));
                         });

/// Each flow-control scheme past saturation, on both test networks.
class FlowControlLockStep : public ::testing::TestWithParam<FlowControl> {};

TEST_P(FlowControlLockStep, ChannelStateAgreesEveryCycle) {
  for (const auto& [k, n] : {std::pair{4u, 2u}, std::pair{2u, 3u}}) {
    SCOPED_TRACE(std::to_string(k) + "-ary " + std::to_string(n) + "-cube");
    Scenario s = with_scheme(past_saturation(LimiterKind::ALO), GetParam());
    s.k = k;
    s.n = n;
    s.seed = 901;
    LockStepPair pair(s);
    ASSERT_TRUE(pair.run(2000));
    if (GetParam() == FlowControl::Credit) {
      EXPECT_GT(pair.ref().credit_messages(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, FlowControlLockStep,
                         ::testing::Values(FlowControl::Wormhole,
                                           FlowControl::Credit,
                                           FlowControl::Vct),
                         [](const auto& param_info) {
                           return std::string(
                               sim::flow_control_name(param_info.param));
                         });

/// Live fault surgery past saturation: a link and a node die and come
/// back, under each flow-control scheme.
class FaultLockStep : public ::testing::TestWithParam<FlowControl> {};

TEST_P(FaultLockStep, AgreesThroughFaultTransients) {
  Scenario s = with_scheme(past_saturation(LimiterKind::ALO), GetParam());
  s.cfg.faults = fault::FaultSchedule({
      {400, fault::FaultKind::LinkKill, 5, 1},
      {700, fault::FaultKind::NodeKill, 10, 0},
      {1400, fault::FaultKind::LinkRestore, 5, 1},
      {1800, fault::FaultKind::NodeRestore, 10, 0},
  });
  LockStepPair pair(s);
  ASSERT_TRUE(pair.run(2500));
  EXPECT_EQ(pair.sim().fault_events_applied(), 4u);
  EXPECT_GT(pair.ref().ledger().lost, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, FaultLockStep,
                         ::testing::Values(FlowControl::Wormhole,
                                           FlowControl::Credit,
                                           FlowControl::Vct),
                         [](const auto& param_info) {
                           return std::string(
                               sim::flow_control_name(param_info.param));
                         });

/// A mid-run offered-load change, sparse to saturating to silent: the
/// Simulator re-subscribes its generators, the reference polls every
/// node every cycle.
TEST(CoreEquivalence, LoadChangeMidRunStaysIdentical) {
  Scenario s;
  s.workload.offered_flits_per_node_cycle = 0.05;
  s.seed = 4242;
  LockStepPair pair(s);
  ASSERT_TRUE(pair.run(1500));
  pair.set_offered_load(0.8);
  ASSERT_TRUE(pair.run(1500));
  pair.set_offered_load(0.0);
  ASSERT_TRUE(pair.run(3000));
  EXPECT_EQ(pair.ref().ledger().injected, pair.ref().ledger().delivered);
}

/// The bursty ON/OFF process, whose poll hints are phase-bounded.
TEST(CoreEquivalence, BurstyProcessStaysIdentical) {
  for (const auto limiter : {LimiterKind::None, LimiterKind::LF}) {
    Scenario s;
    s.cfg.limiter.kind = limiter;
    s.workload.process = ProcessKind::Bursty;
    s.workload.offered_flits_per_node_cycle = 0.3;
    LockStepPair pair(s);
    ASSERT_TRUE(pair.run(3000)) << core::limiter_name(limiter);
  }
}

/// Bernoulli polls every cycle by contract (its hint is always now + 1).
TEST(CoreEquivalence, BernoulliProcessStaysIdentical) {
  for (const auto limiter : {LimiterKind::ALO, LimiterKind::DRIL}) {
    Scenario s;
    s.cfg.limiter.kind = limiter;
    s.workload.process = ProcessKind::Bernoulli;
    s.workload.offered_flits_per_node_cycle = 0.4;
    LockStepPair pair(s);
    ASSERT_TRUE(pair.run(3000)) << core::limiter_name(limiter);
  }
}

/// Unlimited TFAR on one VC deadlocks over and over past saturation,
/// which makes the route memo's detection bounds load-bearing: a
/// premature skip would delay a detection the reference makes.
Scenario one_vc_deadlocking() {
  Scenario s;
  s.cfg.net.num_vcs = 1;
  s.workload.offered_flits_per_node_cycle = 1.2;
  s.seed = 99;
  return s;
}

TEST(RouteMemo, LockStepIdenticalToReference) {
  LockStepPair pair(one_vc_deadlocking());
  ASSERT_TRUE(pair.run(2000));
  EXPECT_GT(pair.ref().ledger().deadlocks, 0u);
  EXPECT_GT(pair.sim().scan_stats().route_memo_hits, 0u);
}

/// Under DOR the memo's row test reads the single dimension-order hop,
/// and under Duato the escape candidate's VCs differ from the adaptive
/// ones; the reference routes through the virtual routing functions.
TEST(RouteMemo, DeterministicAndEscapeRoutesLockStepWithReference) {
  for (const auto algo : {Algorithm::DOR, Algorithm::Duato}) {
    SCOPED_TRACE(routing::algorithm_name(algo));
    Scenario s;
    s.k = 4;
    s.n = 3;
    s.cfg.algorithm = algo;
    s.cfg.net.num_vcs = 4;
    s.workload.offered_flits_per_node_cycle = 1.2;
    s.seed = 99;
    LockStepPair pair(s);
    ASSERT_TRUE(pair.run(1500));
    EXPECT_GT(pair.sim().scan_stats().route_memo_hits, 0u);
  }
}

/// One link dies and heals three times while the 1-VC network
/// deadlocks repeatedly: fault surgery, LUT rebuilds, memo flushes and
/// deadlock recovery interleave.
TEST(RouteMemo, KillRestoreThroughRepeatedDeadlockEpisodes) {
  Scenario s = one_vc_deadlocking();
  s.cfg.faults = fault::FaultSchedule({
      {300, fault::FaultKind::LinkKill, 6, 2},
      {600, fault::FaultKind::LinkRestore, 6, 2},
      {900, fault::FaultKind::LinkKill, 6, 2},
      {1200, fault::FaultKind::LinkRestore, 6, 2},
      {1500, fault::FaultKind::LinkKill, 6, 2},
      {1800, fault::FaultKind::LinkRestore, 6, 2},
  });
  LockStepPair pair(s);
  ASSERT_TRUE(pair.run(2000));
  EXPECT_EQ(pair.sim().lut_rebuilds(), 6u);
  EXPECT_GT(pair.ref().ledger().deadlocks, 3u);
}

/// The rest of the matrix: the 2-ary 3-cube under every limiter below
/// and past saturation, detection off under the deadlock-free
/// algorithms, the schemes at low load and under DOR and Duato.
struct MatrixCase {
  std::string name;
  Scenario scenario;
  // Without a printer gtest dumps the raw bytes, heap pointers and all,
  // into the listed test name, which then changes on every build.
  friend void PrintTo(const MatrixCase& c, std::ostream* os) { *os << c.name; }
};

std::vector<MatrixCase> matrix() {
  std::vector<MatrixCase> cases;
  for (const auto limiter : {LimiterKind::None, LimiterKind::ALO,
                             LimiterKind::LF, LimiterKind::DRIL}) {
    for (const double load : {0.2, 1.2}) {
      Scenario s;
      s.k = 2;
      s.n = 3;
      s.cfg.limiter.kind = limiter;
      s.workload.offered_flits_per_node_cycle = load;
      cases.push_back({"cube2x3_" + std::string(core::limiter_name(limiter)) +
                           (load < 1 ? "_below" : "_past"),
                       s});
    }
  }
  for (const auto scheme :
       {FlowControl::Wormhole, FlowControl::Credit, FlowControl::Vct}) {
    Scenario s = with_scheme(Scenario{}, scheme);
    s.cfg.limiter.kind = LimiterKind::ALO;
    s.workload.offered_flits_per_node_cycle = 0.2;
    cases.push_back(
        {"cube4x2_" + std::string(sim::flow_control_name(scheme)) + "_below",
         s});
  }
  const struct {
    const char* name;
    unsigned k, n;
    Algorithm algo;
    FlowControl scheme;
    bool detect;
  } routed[] = {
      {"dor_no_detection_4x2", 4, 2, Algorithm::DOR, FlowControl::Wormhole,
       false},
      {"duato_no_detection_2x3", 2, 3, Algorithm::Duato,
       FlowControl::Wormhole, false},
      {"duato_credit_4x2", 4, 2, Algorithm::Duato, FlowControl::Credit, true},
      {"dor_vct_2x3", 2, 3, Algorithm::DOR, FlowControl::Vct, true},
  };
  for (const auto& r : routed) {
    Scenario s = with_scheme(Scenario{}, r.scheme);
    s.k = r.k;
    s.n = r.n;
    s.cfg.algorithm = r.algo;
    s.cfg.detection.enabled = r.detect;
    s.cfg.limiter.kind = LimiterKind::LF;
    s.workload.offered_flits_per_node_cycle = 1.0;
    cases.push_back({r.name, s});
  }
  // Permutations leave some nodes silent (bit-reversal palindromes send
  // to themselves), so worms absorbed there are the node's only work.
  for (const auto pattern : {traffic::PatternKind::BitReversal,
                             traffic::PatternKind::Complement}) {
    Scenario s = one_vc_deadlocking();
    s.workload.pattern = pattern;
    std::string name(traffic::pattern_name(pattern));
    std::erase(name, '-');
    cases.push_back({name + "_1vc_past", s});
  }
  return cases;
}

class ReferenceLockStep : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ReferenceLockStep, AgreesEveryCycle) {
  LockStepPair pair(GetParam().scenario);
  ASSERT_TRUE(pair.run(2000));
  EXPECT_GT(pair.ref().ledger().delivered, 0u);
}

INSTANTIATE_TEST_SUITE_P(Matrix, ReferenceLockStep,
                         ::testing::ValuesIn(matrix()),
                         [](const auto& param_info) {
                           return param_info.param.name;
                         });

}  // namespace
}  // namespace wormsim::reference
