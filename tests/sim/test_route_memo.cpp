// The blocked-header route memo and the exact test it rests on.
//
// A blocked header keeps its route code in its route-pending entry and
// stays parked while no candidate of that code has a free bit in the
// live free-mask row (routing::any_free — selection fails exactly
// then). That row is written only by Network::set_active and
// set_link_dead, so these tests pin the row contract directly, then
// check the memo's own invariants through saturation and fault
// surgery, and finally check, by lock-step differential runs, that
// memoization never changes a single bit of simulation state.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "routing/routing.hpp"
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

TEST(FreeMaskRow, SetActiveRewritesTheOwningLinksMask) {
  const topo::KAryNCube topo(4, 2);
  Network net(topo, small_params());
  const LinkId l = net.net_link(/*node=*/5, /*out_channel=*/1);

  net.set_active(VcRef{l, 1}, true);
  EXPECT_EQ(net.free_vc_mask(5, 1), 0b101u);
  net.set_active(VcRef{l, 0}, true);
  EXPECT_EQ(net.free_vc_mask(5, 1), 0b100u);
  // Releasing a tenancy frees its bit again.
  net.set_active(VcRef{l, 1}, false);
  EXPECT_EQ(net.free_vc_mask(5, 1), 0b110u);
}

TEST(FreeMaskRow, OtherLinksAndInjectionLinksStayUntouched) {
  const topo::KAryNCube topo(4, 2);
  Network net(topo, small_params());
  const LinkId touched = net.net_link(3, 2);
  net.set_active(VcRef{touched, 0}, true);
  // Injection links have no row entry (no selection picks them);
  // touching one must not disturb any network link's mask.
  net.set_active(VcRef{net.inj_link(7, 0), 0}, true);

  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    const Link& lk = net.link(l);
    EXPECT_EQ(net.free_vc_mask(lk.src, lk.src_channel),
              l == touched ? 0b110u : 0b111u)
        << "link " << l;
  }
}

TEST(FreeMaskRow, RowViewAliasesPerLinkMasks) {
  const topo::KAryNCube topo(3, 3);
  Network net(topo, small_params());
  net.set_active(VcRef{net.net_link(4, 3), 2}, true);
  net.set_active(VcRef{net.net_link(4, 3), 1}, true);
  for (NodeId node = 0; node < topo.num_nodes(); ++node) {
    const std::uint8_t* row = net.free_mask_row(node);
    for (unsigned c = 0; c < topo.num_channels(); ++c) {
      EXPECT_EQ(row[c], net.free_vc_mask(node, static_cast<ChannelId>(c)))
          << node << "/" << c;
    }
  }
}

/// Fault surgery writes the same row: a dead link advertises no free
/// VC, so a header whose only candidate it is reads as blocked, and a
/// restore makes it selectable again.
TEST(FreeMaskRow, DeadLinkTransitionsRewriteTheRow) {
  const topo::KAryNCube topo(4, 2);
  Network net(topo, small_params());
  const NodeId node = 2;
  const ChannelId c = 3;
  routing::RouteCode code;
  code.useful = 1u << c;
  code.det_channel = c;
  const auto free_for = [&](routing::Algorithm algo) {
    return routing::any_free(code, algo, 3, net.free_mask_row(node));
  };

  EXPECT_TRUE(free_for(routing::Algorithm::TFAR));
  net.set_link_dead(net.net_link(node, c), true);
  EXPECT_EQ(net.free_mask_row(node)[c], 0u);
  EXPECT_FALSE(free_for(routing::Algorithm::TFAR));
  EXPECT_FALSE(free_for(routing::Algorithm::DOR));
  EXPECT_FALSE(free_for(routing::Algorithm::Duato));
  net.set_link_dead(net.net_link(node, c), false);
  EXPECT_EQ(net.free_mask_row(node)[c], 0b111u);
  EXPECT_TRUE(free_for(routing::Algorithm::TFAR));
}

/// What a parked visit reads instead of the VcState, Link and Message
/// records — the entry's router and, once blocked, its route code —
/// must match them. check_active_sets verifies both for every entry;
/// run it after every cycle of a saturated run under each algorithm.
TEST(RouteMemo, BlockedEntriesMatchTheirTenancyEveryCycle) {
  for (const auto algo : {routing::Algorithm::TFAR, routing::Algorithm::DOR,
                          routing::Algorithm::Duato}) {
    SCOPED_TRACE(routing::algorithm_name(algo));
    SimulatorConfig cfg = default_config();
    cfg.algorithm = algo;
    cfg.limiter.kind = core::LimiterKind::None;
    auto sim = testing::make_traffic_sim(4, 2, 1.1, 16, cfg);
    std::string why;
    for (int i = 0; i < 900; ++i) {
      sim->step();
      ASSERT_TRUE(sim->check_active_sets(&why))
          << why << " at cycle " << sim->cycle();
    }
    EXPECT_GT(sim->scan_stats().route_memo_hits, 0u);
  }
}

/// A fault tears down a worm whose header is blocked (so its entry is
/// parked): apply_faults unblocks every entry, so the stale one takes
/// the full path in the same cycle's route phase and is dropped. Were
/// it left parked, the route-pending list would hold an entry for a
/// VC that is no longer route-pending.
TEST(RouteMemo, FaultTeardownDropsParkedEntrySameCycle) {
  constexpr Cycle kFault = 300;
  SimulatorConfig cfg = default_config();
  cfg.limiter.kind = core::LimiterKind::None;
  cfg.net.num_vcs = 1;  // past saturation nearly every worm is blocked

  // A fault-free twin runs identically up to the fault (the fault LUT is
  // bit-identical to the closed-form routes): use it to pick a link
  // carrying a worm whose header has been routable, and blocked, for a
  // while — its entry is parked when the link dies.
  auto twin = testing::make_traffic_sim(4, 2, 1.2, 16, cfg);
  twin->step_cycles(kFault);
  const Network& twin_net = twin->network();
  LinkId link = kNoLink;
  for (LinkId l = 0; l < twin_net.num_net_links() && link == kNoLink; ++l) {
    if (twin_net.link(l).active_vc_mask == 0) continue;
    const VcRef head = twin->message(twin_net.vc(VcRef{l, 0}).msg).head;
    const auto arrival = twin->header_arrival(head);
    if (arrival && *arrival + 10 < kFault) link = l;
  }
  ASSERT_NE(link, kNoLink);

  const Link& lk = twin_net.link(link);
  cfg.faults = fault::FaultSchedule(
      {{kFault, fault::FaultKind::LinkKill, lk.src, lk.src_channel}});
  auto sim = testing::make_traffic_sim(4, 2, 1.2, 16, cfg);
  sim->step_cycles(kFault);
  const Network& net = sim->network();
  const VcRef head = sim->message(net.vc(VcRef{link, 0}).msg).head;
  ASSERT_TRUE(sim->header_arrival(head).has_value());
  EXPECT_GT(sim->scan_stats().route_memo_hits, 0u);

  sim->step();  // applies the fault, then routes
  std::string why;
  EXPECT_TRUE(sim->check_active_sets(&why)) << why;
  EXPECT_FALSE(sim->header_arrival(head).has_value());
  EXPECT_EQ(sim->fault_events_applied(), 1u);
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

/// The memo stores a 4-byte route code and tests the row against it:
/// under DOR that is the single dimension-order hop, not the useful
/// mask, and under Duato the escape candidate's VC set differs from the
/// adaptive ones. Both must stay identical to the dense core,
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

/// The recovery-transient soak: the same physical link dies and heals
/// three times while the 1-VC network deadlocks repeatedly, so fault
/// surgery, LUT rebuilds, route-memo flushes and deadlock recovery all
/// interleave. The memoized core must
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
