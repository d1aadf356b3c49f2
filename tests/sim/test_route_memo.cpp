// The blocked-header route memo and the exact test it rests on.
//
// A blocked header keeps its route code in its route-pending entry and
// stays parked while no candidate of that code has a free bit in the
// live free-mask row (routing::any_free — selection fails exactly
// then). That row is written only by Network::set_active and
// set_link_dead, so these tests pin the row contract directly, then
// check the memo's own invariants through saturation and fault
// surgery. That memoization never changes simulation state is checked
// in lock-step against the reference model (tests/reference/).
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

/// Memo accounting: hits only ever come from headers that blocked at
/// least once, so a message crossing an otherwise empty network
/// reports none.
TEST(RouteMemo, NoHitsWithoutContention) {
  auto sim = testing::make_sim(4, 2);
  ASSERT_TRUE(sim->push_message(0, 5, 8));
  ASSERT_TRUE(testing::run_until_delivered(*sim, 1));
  EXPECT_EQ(sim->scan_stats().route_memo_hits, 0u);
}

}  // namespace
}  // namespace wormsim::sim
