// Unit coverage for the fault-injection primitives: the FaultMask's
// symmetric link semantics and node-kill layering, the schedule-file
// parser (round-trip plus malformed-input diagnostics), the seeded
// transient preset, the --faults spec resolver, and the Network's
// dead-link state (vc field, free mask).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "fault/manager.hpp"
#include "fault/schedule.hpp"
#include "sim/network.hpp"
#include "topology/fault_mask.hpp"

namespace wormsim::fault {
namespace {

TEST(FaultMask, LinkKillIsSymmetricAndIdempotent) {
  const topo::KAryNCube t(4, 2);
  topo::FaultMask mask(t);
  EXPECT_FALSE(mask.any());

  const topo::NodeId node = 5;
  const topo::ChannelId c = 2;  // dim 1, positive direction
  const topo::NodeId nbr = t.neighbor(node, c);
  mask.kill_link(node, c);
  EXPECT_TRUE(mask.any());
  EXPECT_TRUE(mask.link_killed(node, c));
  EXPECT_TRUE(mask.link_killed(nbr, c ^ 1));  // reverse direction too
  EXPECT_TRUE(mask.link_dead(node, c));
  EXPECT_TRUE(mask.link_dead(nbr, c ^ 1));
  EXPECT_EQ(mask.killed_links(), 2u);  // directed count, 2 per physical

  mask.kill_link(nbr, c ^ 1);  // same physical link, other direction
  EXPECT_EQ(mask.killed_links(), 2u);
  mask.kill_link(node, c);
  EXPECT_EQ(mask.killed_links(), 2u);

  mask.restore_link(nbr, c ^ 1);  // restore via either direction
  EXPECT_FALSE(mask.link_killed(node, c));
  EXPECT_FALSE(mask.link_killed(nbr, c ^ 1));
  EXPECT_EQ(mask.killed_links(), 0u);
  EXPECT_FALSE(mask.any());
  mask.restore_link(node, c);  // idempotent
  EXPECT_EQ(mask.killed_links(), 0u);
}

TEST(FaultMask, NodeKillLayersOverLinkState) {
  const topo::KAryNCube t(4, 2);
  topo::FaultMask mask(t);
  const topo::NodeId node = 3;

  // Explicitly kill one of the node's links, then kill the node.
  mask.kill_link(node, 0);
  mask.kill_node(node);
  EXPECT_TRUE(mask.node_dead(node));
  EXPECT_EQ(mask.dead_nodes(), 1u);
  mask.kill_node(node);  // idempotent
  EXPECT_EQ(mask.dead_nodes(), 1u);

  // Every link touching the dead node is dead, from both endpoints,
  // but only the explicitly killed one carries the raw kill bit.
  for (topo::ChannelId c = 0; c < t.num_channels(); ++c) {
    EXPECT_TRUE(mask.link_dead(node, c));
    const topo::NodeId nbr = t.neighbor(node, c);
    EXPECT_TRUE(mask.link_dead(nbr, c ^ 1));
    if (c != 0) {
      EXPECT_FALSE(mask.link_killed(node, c));
    }
  }

  // Restoring the node revives exactly the links not killed outright.
  mask.restore_node(node);
  EXPECT_FALSE(mask.node_dead(node));
  EXPECT_TRUE(mask.link_dead(node, 0));
  for (topo::ChannelId c = 1; c < t.num_channels(); ++c) {
    EXPECT_FALSE(mask.link_dead(node, c));
  }
}

TEST(FaultSchedule, ConstructorStableSortsByCycle) {
  const std::vector<FaultEvent> in = {
      {200, FaultKind::LinkRestore, 1, 0},
      {100, FaultKind::LinkKill, 1, 0},
      {100, FaultKind::LinkKill, 2, 3},
  };
  const FaultSchedule s(in);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events()[0], (FaultEvent{100, FaultKind::LinkKill, 1, 0}));
  EXPECT_EQ(s.events()[1], (FaultEvent{100, FaultKind::LinkKill, 2, 3}));
  EXPECT_EQ(s.events()[2], (FaultEvent{200, FaultKind::LinkRestore, 1, 0}));
}

TEST(FaultSchedule, ParseRoundTripsThroughWrite) {
  std::istringstream in(
      "# comment line\n"
      "\n"
      "100 kill-link 5 2   # trailing comment\n"
      "150 kill-node 9\n"
      "300 restore-link 5 2\n"
      "400 restore-node 9\n");
  const FaultSchedule s = parse_schedule(in);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.events()[0], (FaultEvent{100, FaultKind::LinkKill, 5, 2}));
  EXPECT_EQ(s.events()[1], (FaultEvent{150, FaultKind::NodeKill, 9, 0}));
  EXPECT_EQ(s.events()[2], (FaultEvent{300, FaultKind::LinkRestore, 5, 2}));
  EXPECT_EQ(s.events()[3], (FaultEvent{400, FaultKind::NodeRestore, 9, 0}));

  std::ostringstream out;
  s.write(out);
  std::istringstream in2(out.str());
  const FaultSchedule s2 = parse_schedule(in2);
  EXPECT_EQ(s.events(), s2.events());
}

TEST(FaultSchedule, ParseRejectsMalformedLinesWithLineNumbers) {
  const auto expect_throw_with = [](const std::string& text,
                                    const std::string& needle) {
    std::istringstream in(text);
    try {
      parse_schedule(in);
      FAIL() << "expected std::invalid_argument for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_throw_with("100 melt-link 0 0\n", "line 1");
  expect_throw_with("# ok\nnonsense\n", "line 2");
  expect_throw_with("100 kill-link 0\n", "line 1");    // missing channel
  expect_throw_with("100 kill-node\n", "line 1");      // missing node
  expect_throw_with("100 kill-node 0 junk\n", "line 1");  // trailing text
  expect_throw_with("100 kill-link 0 999\n", "line 1");   // channel > 255
}

/// A sign is not part of any field: `istream >> unsigned` used to read
/// "-5" as 2^64 - 5, an event that never fires.
TEST(FaultSchedule, ParseRejectsSignedNumbers) {
  for (const char* text :
       {"-5 kill-link 0 1\n", "5 kill-link -1 1\n", "5 kill-link 0 -1\n",
        "5 kill-node -0\n", "+5 kill-node 0\n", "5 restore-link 0 +1\n",
        "5 kill-node 3-1\n"}) {
    std::istringstream in(std::string("# header\n") + text);
    try {
      parse_schedule(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2: expected an unsigned"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MakeTransient, DeterministicDistinctLinksWithRestores) {
  const topo::KAryNCube t(4, 2);
  const FaultSchedule a = make_transient(t, 3, 1000, 500, 42);
  const FaultSchedule b = make_transient(t, 3, 1000, 500, 42);
  EXPECT_EQ(a.events(), b.events());  // seed-reproducible

  ASSERT_EQ(a.size(), 6u);  // 3 kills + 3 restores
  std::set<std::size_t> physical;
  for (const FaultEvent& e : a.events()) {
    if (e.kind == FaultKind::LinkKill) {
      EXPECT_EQ(e.cycle, 1000u);
      const std::size_t fwd = e.node * t.num_channels() + e.channel;
      const std::size_t rev =
          t.neighbor(e.node, e.channel) * t.num_channels() + (e.channel ^ 1);
      physical.insert(std::min(fwd, rev));
    } else {
      ASSERT_EQ(e.kind, FaultKind::LinkRestore);
      EXPECT_EQ(e.cycle, 1500u);
    }
  }
  EXPECT_EQ(physical.size(), 3u);  // distinct physical links

  const FaultSchedule c = make_transient(t, 3, 1000, 500, 43);
  EXPECT_NE(a.events(), c.events());  // seed actually matters

  const FaultSchedule no_restore = make_transient(t, 2, 1000, 0, 42);
  EXPECT_EQ(no_restore.size(), 2u);  // duration 0 = never restored

  // More links than physical links exist is a spec error.
  EXPECT_THROW(make_transient(t, 10000, 0, 0, 1), std::invalid_argument);
}

TEST(LoadFaults, ResolvesPresetAndFile) {
  const topo::KAryNCube t(4, 2);
  const FaultSchedule preset = load_faults("transient:2@750+250", t, 7);
  ASSERT_EQ(preset.size(), 4u);
  EXPECT_EQ(preset.events().front().cycle, 750u);
  EXPECT_EQ(preset.events().back().cycle, 1000u);
  EXPECT_EQ(preset.events(), make_transient(t, 2, 750, 250, 7).events());

  EXPECT_THROW(load_faults("transient:nope", t, 7), std::invalid_argument);
  EXPECT_THROW(load_faults("/nonexistent/schedule.txt", t, 7),
               std::invalid_argument);

  const std::string path =
      ::testing::TempDir() + "wormsim_fault_schedule_test.txt";
  {
    std::ofstream out(path);
    out << "10 kill-link 1 0\n20 restore-link 1 0\n";
  }
  const FaultSchedule from_file = load_faults(path, t, 7);
  std::remove(path.c_str());
  ASSERT_EQ(from_file.size(), 2u);
  EXPECT_EQ(from_file.events()[0], (FaultEvent{10, FaultKind::LinkKill, 1, 0}));
}


TEST(LoadFaults, RejectsLinkCountsPast32Bits) {
  // A 4-ary 2-cube has 32 physical links. Counts of 2^32 and 2^32 + 1
  // must not wrap to "no faults" or "kill one link".
  const topo::KAryNCube t(4, 2);
  EXPECT_THROW(load_faults("transient:4294967296@100", t, 7),
               std::invalid_argument);
  EXPECT_THROW(load_faults("transient:4294967297@100", t, 7),
               std::invalid_argument);
  EXPECT_EQ(load_faults("transient:32@100", t, 7).size(), 32u);
  EXPECT_THROW(load_faults("transient:33@100", t, 7), std::invalid_argument);
}
TEST(Validate, RejectsOutOfRangeComponents) {
  const topo::KAryNCube t(4, 2);  // 16 nodes, 4 channels
  EXPECT_NO_THROW(validate(
      FaultSchedule({{1, FaultKind::LinkKill, 15, 3}}), t));
  EXPECT_THROW(validate(FaultSchedule({{1, FaultKind::LinkKill, 16, 0}}), t),
               std::invalid_argument);
  EXPECT_THROW(validate(FaultSchedule({{1, FaultKind::LinkKill, 0, 4}}), t),
               std::invalid_argument);
  EXPECT_THROW(validate(FaultSchedule({{1, FaultKind::NodeKill, 99, 0}}), t),
               std::invalid_argument);
}

TEST(FaultManager, CursorAppliesEventsInOrder) {
  const topo::KAryNCube t(4, 2);
  FaultManager mgr(t, FaultSchedule({
                          {100, FaultKind::LinkKill, 2, 0},
                          {100, FaultKind::NodeKill, 7, 0},
                          {500, FaultKind::LinkRestore, 2, 0},
                      }));
  EXPECT_FALSE(mgr.due(99));
  EXPECT_TRUE(mgr.due(100));

  std::vector<FaultEvent> out;
  mgr.take_due(100, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(mgr.events_applied(), 2u);
  EXPECT_TRUE(mgr.mask().link_killed(2, 0));
  EXPECT_TRUE(mgr.mask().node_dead(7));
  EXPECT_FALSE(mgr.due(100));
  EXPECT_FALSE(mgr.due(499));

  out.clear();
  mgr.take_due(1000, out);  // past the last event: applies the restore
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(mgr.events_applied(), 3u);
  EXPECT_FALSE(mgr.mask().link_killed(2, 0));
  EXPECT_TRUE(mgr.mask().node_dead(7));
  EXPECT_FALSE(mgr.due(~std::uint64_t{0}));
}

TEST(NetworkDeadLink, KillZeroesFreeMaskAndRestoreRefillsIt) {
  const topo::KAryNCube t(4, 2);
  sim::NetworkParams params;
  params.num_vcs = 3;
  params.buf_flits = 4;
  params.inj_channels = 2;
  params.eje_channels = 2;
  params.link_delay = 2;
  sim::Network net(t, params);

  const sim::LinkId link = net.net_link(0, 1);
  const std::uint32_t full = (1u << params.num_vcs) - 1u;
  ASSERT_EQ(net.free_vc_mask(0, 1), full);
  ASSERT_FALSE(net.link_dead(link));

  net.set_link_dead(link, true);
  EXPECT_TRUE(net.link_dead(link));
  EXPECT_EQ(net.free_vc_mask(0, 1), 0u);  // nothing selectable
  EXPECT_EQ(net.free_mask_row(0)[1], 0u);  // the row blocked headers read
  EXPECT_EQ(net.free_vc_mask(0, 0), full);  // neighbours untouched

  net.set_link_dead(link, false);
  EXPECT_FALSE(net.link_dead(link));
  EXPECT_EQ(net.free_vc_mask(0, 1), full);
  EXPECT_EQ(net.free_mask_row(0)[1], full);
}

}  // namespace
}  // namespace wormsim::fault
