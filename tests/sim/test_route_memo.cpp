// The blocked-header route memo and its invalidation machinery.
//
// The memo's correctness argument rests on the per-link epoch counters:
// set_active is the sole writer of active_vc_mask, it bumps the owning
// link's epoch on every call, and an unchanged epoch sum over a
// header's candidate links therefore proves the free-VC masks those
// candidates see are unchanged — the header is still blocked and both
// re-route and re-selection can be skipped. These tests pin the epoch
// contract directly and then check, by lock-step differential runs,
// that memoization never changes a single bit of simulation state.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim_test_util.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;

NetworkParams small_params() {
  NetworkParams p;
  p.num_vcs = 3;
  p.buf_flits = 4;
  p.inj_channels = 2;
  p.eje_channels = 2;
  p.link_delay = 2;
  return p;
}

TEST(LinkEpoch, BumpsOnEverySetActiveOfANetLink) {
  const topo::KAryNCube topo(4, 2);
  Network net(topo, small_params());
  const LinkId l = net.net_link(/*node=*/5, /*out_channel=*/1);
  const VcRef ref{l, 1};

  const std::uint64_t before = net.link_epoch(l);
  net.set_active(ref, true);
  EXPECT_EQ(net.link_epoch(l), before + 1);
  // Deactivation may also change the free mask, so it must bump too.
  net.set_active(ref, false);
  EXPECT_EQ(net.link_epoch(l), before + 2);
}

TEST(LinkEpoch, OtherLinksAndInjectionLinksStayUntouched) {
  const topo::KAryNCube topo(4, 2);
  Network net(topo, small_params());
  std::vector<std::uint64_t> before(net.num_net_links());
  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    before[l] = net.link_epoch(l);
  }

  const LinkId touched = net.net_link(3, 2);
  net.set_active(VcRef{touched, 0}, true);
  // Injection links carry no epoch (the memo never keys on them);
  // touching one must not disturb any net-link epoch.
  net.set_active(VcRef{net.inj_link(7, 0), 0}, true);

  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    EXPECT_EQ(net.link_epoch(l), before[l] + (l == touched ? 1u : 0u))
        << "link " << l;
  }
}

TEST(LinkEpoch, RowViewAliasesPerLinkCounters) {
  const topo::KAryNCube topo(3, 3);
  Network net(topo, small_params());
  net.set_active(VcRef{net.net_link(4, 3), 2}, true);
  net.set_active(VcRef{net.net_link(4, 3), 1}, true);
  for (NodeId node = 0; node < topo.num_nodes(); ++node) {
    const std::uint64_t* row = net.link_epoch_row(node);
    for (unsigned c = 0; c < topo.num_channels(); ++c) {
      EXPECT_EQ(row[c],
                net.link_epoch(net.net_link(node, static_cast<ChannelId>(c))))
          << node << "/" << c;
    }
  }
}

/// Epoch-equality really means mask-equality: any transition that can
/// change a link's free-VC mask goes through set_active, so two
/// observations with equal epochs must see equal masks. Exercised over
/// a saturated run rather than synthetic mutations.
TEST(LinkEpoch, EqualEpochImpliesEqualFreeMaskAcrossCycles) {
  auto sim = testing::make_traffic_sim(4, 2, 1.1, 16);
  const Network& net = sim->network();
  const LinkId links = net.num_net_links();
  std::vector<std::uint64_t> epoch(links);
  std::vector<std::uint8_t> mask(links);
  const auto snap = [&] {
    for (LinkId l = 0; l < links; ++l) {
      epoch[l] = net.link_epoch(l);
      mask[l] = static_cast<std::uint8_t>(
          net.free_vc_mask(net.link(l).src, net.link(l).src_channel));
    }
  };
  sim->step_cycles(500);  // well into saturation
  snap();
  for (int i = 0; i < 400; ++i) {
    sim->step();
    for (LinkId l = 0; l < links; ++l) {
      const std::uint64_t e = net.link_epoch(l);
      const auto m = static_cast<std::uint8_t>(
          net.free_vc_mask(net.link(l).src, net.link(l).src_channel));
      if (e == epoch[l]) {
        ASSERT_EQ(m, mask[l]) << "link " << l << " cycle " << sim->cycle();
      }
      epoch[l] = e;
      mask[l] = m;
    }
  }
}

/// Step the memoized active core, the memo-off active core and the
/// dense reference together for `blocks` x 10 cycles, asserting
/// complete channel-state equality after every block.
void run_lock_step(Simulator& memo_on, Simulator& memo_off, Simulator& dense,
                   int blocks) {
  for (int block = 0; block < blocks; ++block) {
    for (int i = 0; i < 10; ++i) {
      memo_on.step();
      memo_off.step();
      dense.step();
    }
    const Cycle at = memo_on.cycle();
    for (const Simulator* other : {&memo_off, &dense}) {
      const Network& a = memo_on.network();
      const Network& b = other->network();
      for (LinkId l = 0; l < a.num_links(); ++l) {
        ASSERT_EQ(a.link(l).active_vc_mask, b.link(l).active_vc_mask)
            << "link " << l << " cycle " << at;
        for (unsigned v = 0; v < a.vcs_on(l); ++v) {
          const VcRef ref{l, static_cast<std::uint8_t>(v)};
          ASSERT_EQ(a.vc(ref).msg, b.vc(ref).msg)
              << "vc " << l << "/" << v << " cycle " << at;
          ASSERT_EQ(a.vc(ref).occupancy, b.vc(ref).occupancy)
              << "vc " << l << "/" << v << " cycle " << at;
          ASSERT_EQ(a.vc(ref).last_activity, b.vc(ref).last_activity)
              << "vc " << l << "/" << v << " cycle " << at;
        }
      }
      ASSERT_EQ(memo_on.total_delivered(), other->total_delivered());
      ASSERT_EQ(memo_on.total_deadlock_detections(),
                other->total_deadlock_detections());
    }
  }
}

/// The three simulators of a lock-step run, past saturation.
struct LockStepTrio {
  std::unique_ptr<Simulator> memo_on, memo_off, dense;
};

LockStepTrio make_trio(const topo::KAryNCube& topo, SimulatorConfig cfg) {
  const auto make = [&](SimCore core, bool memo) {
    cfg.core = core;
    cfg.fastpath.route_memo = memo;
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.2;
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 99);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  // The memo toggle is a no-op on Dense.
  return {make(SimCore::Active, true), make(SimCore::Active, false),
          make(SimCore::Dense, true)};
}

/// Lock-step differential: the memoized active core against the
/// memo-off active core and the dense reference, past saturation with
/// deadlock detection/recovery firing. Complete channel-state equality
/// every cycle — a stale memo hit (missed invalidation, stale tenancy
/// key, wrong no-detect bound) would diverge within a few cycles.
TEST(RouteMemo, LockStepIdenticalToMemoOffAndDense) {
  const topo::KAryNCube topo(4, 2);
  SimulatorConfig cfg = default_config();
  // Unlimited TFAR on a single VC: past saturation this deadlocks
  // repeatedly, which is what makes the no-detect bounds in the memo
  // load-bearing (a premature skip would delay a detection).
  cfg.limiter.kind = core::LimiterKind::None;
  cfg.net.num_vcs = 1;
  const LockStepTrio sims = make_trio(topo, cfg);
  run_lock_step(*sims.memo_on, *sims.memo_off, *sims.dense, 200);
  // The run actually exercised the memo: deadlocks fired (so the
  // no-detect bounds mattered) and a meaningful share of route queries
  // were answered from the memo.
  EXPECT_GT(sims.memo_on->total_deadlock_detections(), 0u);
  EXPECT_GT(sims.memo_on->scan_stats().route_memo_hits, 0u);
  EXPECT_EQ(sims.memo_off->scan_stats().route_memo_hits, 0u);
  EXPECT_EQ(sims.dense->scan_stats().route_memo_hits, 0u);
}

/// The memo stores a 4-byte route code and derives its epoch footprint
/// from it: under DOR that is the single dimension-order hop, not the
/// useful mask, and under Duato the escape candidate's VC set differs
/// from the adaptive ones. Both must stay identical to the dense core,
/// which calls the virtual routing function instead of expanding codes.
TEST(RouteMemo, DeterministicAndEscapeRoutesLockStepWithDense) {
  const topo::KAryNCube topo(4, 3);
  for (const auto algo : {routing::Algorithm::DOR, routing::Algorithm::Duato}) {
    SCOPED_TRACE(routing::algorithm_name(algo));
    SimulatorConfig cfg = default_config();
    cfg.algorithm = algo;
    cfg.net.num_vcs = 4;
    const LockStepTrio sims = make_trio(topo, cfg);
    run_lock_step(*sims.memo_on, *sims.memo_off, *sims.dense, 150);
    if (HasFatalFailure()) return;
    EXPECT_GT(sims.memo_on->total_delivered(), 0u);
    EXPECT_GT(sims.memo_on->scan_stats().route_memo_hits, 0u);
  }
}

/// Fault surgery participates in the same epoch contract: marking a
/// link dead (or alive again) changes its free-VC mask, so it must bump
/// that link's epoch exactly like set_active, and a whole-table rebuild
/// invalidates every memoized route via bump_all_epochs.
TEST(LinkEpoch, DeadLinkTransitionsBumpLikeSetActive) {
  const topo::KAryNCube topo(4, 2);
  Network net(topo, small_params());
  const LinkId l = net.net_link(2, 3);
  std::vector<std::uint64_t> before(net.num_net_links());
  for (LinkId i = 0; i < net.num_net_links(); ++i) {
    before[i] = net.link_epoch(i);
  }

  net.set_link_dead(l, true);
  EXPECT_EQ(net.free_vc_mask(net.link(l).src, net.link(l).src_channel), 0u);
  net.set_link_dead(l, false);
  for (LinkId i = 0; i < net.num_net_links(); ++i) {
    EXPECT_EQ(net.link_epoch(i), before[i] + (i == l ? 2u : 0u))
        << "link " << i;
  }

  net.bump_all_epochs();
  for (LinkId i = 0; i < net.num_net_links(); ++i) {
    EXPECT_EQ(net.link_epoch(i), before[i] + (i == l ? 3u : 1u))
        << "link " << i;
  }
}

/// The recovery-transient soak the epoch contract exists for: the same
/// physical link dies and heals three times while the 1-VC network
/// deadlocks repeatedly, so fault surgery, LUT rebuilds, route-memo
/// flushes and deadlock recovery all interleave. The memoized core must
/// stay bit-identical to the memo-off core and the dense reference
/// throughout — a memo entry surviving a rebuild would diverge at the
/// first stale route.
TEST(RouteMemo, KillRestoreThroughRepeatedDeadlockEpisodes) {
  const topo::KAryNCube topo(4, 2);
  const fault::FaultSchedule schedule({
      {300, fault::FaultKind::LinkKill, 6, 2},
      {600, fault::FaultKind::LinkRestore, 6, 2},
      {900, fault::FaultKind::LinkKill, 6, 2},
      {1200, fault::FaultKind::LinkRestore, 6, 2},
      {1500, fault::FaultKind::LinkKill, 6, 2},
      {1800, fault::FaultKind::LinkRestore, 6, 2},
  });
  const auto make = [&](SimCore core, bool memo) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    cfg.fastpath.route_memo = memo;
    cfg.limiter.kind = core::LimiterKind::None;
    cfg.net.num_vcs = 1;  // deadlocks repeatedly past saturation
    cfg.faults = schedule;
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.2;
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 99);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto memo_on = make(SimCore::Active, true);
  auto memo_off = make(SimCore::Active, false);
  auto dense = make(SimCore::Dense, true);

  for (int block = 0; block < 200; ++block) {
    for (int i = 0; i < 10; ++i) {
      memo_on->step();
      memo_off->step();
      dense->step();
    }
    const Cycle at = memo_on->cycle();
    for (const Simulator* other : {memo_off.get(), dense.get()}) {
      const Network& a = memo_on->network();
      const Network& b = other->network();
      for (LinkId l = 0; l < a.num_links(); ++l) {
        ASSERT_EQ(a.link(l).active_vc_mask, b.link(l).active_vc_mask)
            << "link " << l << " cycle " << at;
        for (unsigned v = 0; v < a.vcs_on(l); ++v) {
          const VcRef ref{l, static_cast<std::uint8_t>(v)};
          ASSERT_EQ(a.vc(ref).msg, b.vc(ref).msg)
              << "vc " << l << "/" << v << " cycle " << at;
          ASSERT_EQ(a.vc(ref).occupancy, b.vc(ref).occupancy)
              << "vc " << l << "/" << v << " cycle " << at;
        }
      }
      ASSERT_EQ(memo_on->total_delivered(), other->total_delivered())
          << "cycle " << at;
      ASSERT_EQ(memo_on->total_lost(), other->total_lost())
          << "cycle " << at;
      ASSERT_EQ(memo_on->total_deadlock_detections(),
                other->total_deadlock_detections())
          << "cycle " << at;
    }
    std::string why;
    ASSERT_TRUE(memo_on->check_fault_invariants(&why)) << why;
  }

  // The soak exercised what it claims: all six fault events applied
  // (with a rebuild each), deadlock recovery fired across the episodes,
  // and the memo answered real queries between the flushes.
  EXPECT_EQ(memo_on->fault_events_applied(), 6u);
  EXPECT_EQ(memo_on->lut_rebuilds(), 6u);
  EXPECT_EQ(dense->fault_events_applied(), 6u);
  EXPECT_GT(memo_on->total_deadlock_detections(), 3u);
  EXPECT_GT(memo_on->scan_stats().route_memo_hits, 0u);
  EXPECT_EQ(memo_off->scan_stats().route_memo_hits, 0u);
}

/// Memo accounting: hits only ever come from headers that blocked at
/// least once, so a message crossing an otherwise empty network
/// reports none even with the memo enabled.
TEST(RouteMemo, NoHitsWithoutContention) {
  SimulatorConfig cfg = default_config();
  cfg.core = SimCore::Active;
  auto sim = testing::make_sim(4, 2, cfg);
  ASSERT_TRUE(sim->push_message(0, 5, 8));
  ASSERT_TRUE(testing::run_until_delivered(*sim, 1));
  EXPECT_EQ(sim->scan_stats().route_memo_hits, 0u);
}

}  // namespace
}  // namespace wormsim::sim
