// Link utilization as the spatial observer counts it: every flit sent
// over a network link while a SpatialMetrics is attached, so per-link
// loads, per-dimension balance and hot links come from link_flits.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/online/online_stats.hpp"
#include "metrics/spatial.hpp"
#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::make_sim;
using testing::make_traffic_sim;
using testing::run_until_delivered;

metrics::SpatialMetrics spatial_for(const Simulator& sim) {
  return metrics::SpatialMetrics(sim.topology().num_nodes(),
                                 sim.network().num_net_links(),
                                 sim.network().params().num_vcs);
}

/// Flits per link per cycle, pooled per dimension (both directions).
struct DimLoads {
  std::vector<double> per_dim;
  double mean = 0.0, max = 0.0, min = 0.0;
  double idle_fraction = 0.0;  // links that carried no flit at all
};

DimLoads dim_loads(const Simulator& sim, const metrics::SpatialMetrics& sm,
                   std::uint64_t cycles) {
  const topo::KAryNCube& topo = sim.topology();
  DimLoads s;
  s.per_dim.assign(topo.dims(), 0.0);
  std::vector<unsigned> links_in_dim(topo.dims(), 0);
  s.min = 1e300;
  unsigned idle = 0;
  for (LinkId l = 0; l < sm.num_links(); ++l) {
    const double u = static_cast<double>(sm.link_flits(l)) /
                     static_cast<double>(cycles);
    const unsigned dim = topo::channel_dim(sim.network().link(l).src_channel);
    s.per_dim[dim] += u;
    ++links_in_dim[dim];
    s.mean += u;
    s.max = std::max(s.max, u);
    s.min = std::min(s.min, u);
    idle += sm.link_flits(l) == 0;
  }
  for (unsigned d = 0; d < topo.dims(); ++d) s.per_dim[d] /= links_in_dim[d];
  s.mean /= sm.num_links();
  s.idle_fraction = static_cast<double>(idle) / sm.num_links();
  return s;
}

TEST(Utilization, SingleMessageCountsExactlyItsFlitHops) {
  auto sim = make_sim(5, 1);
  auto sm = spatial_for(*sim);
  sim->set_spatial(&sm);
  // 0 -> 2 on a 5-ring: traverses links 0->1 and 1->2, 16 flits each.
  sim->push_message(0, 2, 16);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
  const Network& net = sim->network();
  std::uint64_t total = 0;
  for (LinkId l = 0; l < sm.num_links(); ++l) total += sm.link_flits(l);
  EXPECT_EQ(total, 32u);
  const auto plus0 = net.net_link(0, topo::make_channel(0, topo::Dir::Plus));
  const auto plus1 = net.net_link(1, topo::make_channel(0, topo::Dir::Plus));
  EXPECT_EQ(sm.link_flits(plus0), 16u);
  EXPECT_EQ(sm.link_flits(plus1), 16u);
}

TEST(Utilization, SummaryFieldsConsistent) {
  auto sim = make_traffic_sim(4, 2, 0.4, 16);
  auto sm = spatial_for(*sim);
  sim->set_spatial(&sm);
  sim->step_cycles(5000);
  const DimLoads s = dim_loads(*sim, sm, 5000);
  EXPECT_GT(s.mean, 0.0);
  EXPECT_GE(s.max, s.mean);
  EXPECT_LE(s.min, s.mean);
  ASSERT_EQ(s.per_dim.size(), 2u);
  // Uniform traffic loads both dimensions about equally.
  EXPECT_NEAR(s.per_dim[0], s.per_dim[1], 0.15 * s.per_dim[0]);
  EXPECT_LT(s.idle_fraction, 0.05);
}

TEST(Utilization, NeighborTrafficLoadsOnlyDimZeroPlus) {
  sim::SimulatorConfig cfg = testing::default_config();
  auto sim = make_traffic_sim(4, 2, 0.3, 16, cfg,
                              traffic::PatternKind::NeighborPlus);
  auto sm = spatial_for(*sim);
  sim->set_spatial(&sm);
  sim->step_cycles(4000);
  const DimLoads s = dim_loads(*sim, sm, 4000);
  EXPECT_GT(s.per_dim[0], 0.0);
  EXPECT_DOUBLE_EQ(s.per_dim[1], 0.0);
  // Half the links (dim 1 + dim0-minus) never carry anything.
  EXPECT_GE(s.idle_fraction, 0.5);
  for (LinkId l = 0; l < sm.num_links(); ++l) {
    const ChannelId ch = sim->network().link(l).src_channel;
    if (ch != topo::make_channel(0, topo::Dir::Plus)) {
      EXPECT_EQ(sm.link_flits(l), 0u) << "link " << l;
    }
  }
}

TEST(Utilization, ResetClearsCounters) {
  auto sim = make_sim(4, 2);
  auto sm = spatial_for(*sim);
  sim->set_spatial(&sm);
  sim->push_message(0, 5, 16);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
  std::uint64_t total = 0;
  for (LinkId l = 0; l < sm.num_links(); ++l) total += sm.link_flits(l);
  EXPECT_EQ(total, 16u * sim->topology().distance(0, 5));
  sm.reset();
  // Flits sent while no SpatialMetrics is attached are not counted.
  sim->set_spatial(nullptr);
  sim->push_message(0, 5, 16);
  ASSERT_TRUE(run_until_delivered(*sim, 2, 1000));
  for (LinkId l = 0; l < sm.num_links(); ++l) {
    EXPECT_EQ(sm.link_flits(l), 0u) << "link " << l;
  }
}

/// A zero-cycle span exports zero utilization, not a division by zero,
/// beside the raw flit counts.
TEST(Utilization, ZeroCyclesYieldsEmptySummary) {
  auto sim = make_sim(4, 2);
  auto sm = spatial_for(*sim);
  sim->set_spatial(&sm);
  sim->push_message(0, 5, 16);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
  std::ostringstream os;
  sm.write_channel_csv(os, sim->topology(), /*cycles=*/0);
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  LinkId l = 0;
  for (; std::getline(in, line); ++l) {
    // Field 7 is the link's flit count, field 8 its utilization.
    std::vector<std::string> fields;
    std::istringstream row(line);
    for (std::string f; std::getline(row, f, ',');) fields.push_back(f);
    ASSERT_GE(fields.size(), 9u) << line;
    EXPECT_EQ(fields[7], std::to_string(sm.link_flits(l))) << line;
    EXPECT_EQ(fields[8], "0") << line;
  }
  EXPECT_EQ(l, sm.num_links());
}

/// The online statistics' recording windows on a live simulator account
/// for every delivery and every ejected flit.
TEST(OnlineWindows, CaptureBurstDynamics) {
  auto sim = make_traffic_sim(4, 2, 0.4, 16);
  metrics::OnlineConfig cfg;
  cfg.window_cycles = 256;
  metrics::OnlineStats online(sim->topology().num_nodes(), cfg);
  sim->set_online(&online);
  sim->step_cycles(4096);
  const auto& windows = online.windows();
  ASSERT_EQ(windows.size(), 16u);
  std::uint64_t flits = 0, delivered = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].start_cycle, i * 256) << "window " << i;
    EXPECT_EQ(windows[i].cycles, 256u) << "window " << i;
    flits += windows[i].accepted_flits;
    delivered += windows[i].delivered;
  }
  EXPECT_EQ(delivered, sim->scan_stats().delivered);
  // Every delivered message ejected 16 flits; messages still mid-ejection
  // at the cutoff may add a partial worm each.
  EXPECT_GE(flits, sim->scan_stats().delivered * 16);
  EXPECT_LT(flits, sim->scan_stats().delivered * 16 + 16 * 64);
  // Steady state: later windows all show nonzero throughput.
  for (std::size_t i = 4; i < windows.size(); ++i) {
    EXPECT_GT(windows[i].accepted_flits, 0u) << "window " << i;
  }
}

/// A recorder attached mid-run starts its first window at the attach
/// cycle and closes it on the next window boundary; later windows are
/// whole.
TEST(OnlineWindows, FirstWindowStartsAtAttachCycle) {
  auto sim = make_traffic_sim(4, 2, 0.4, 16);
  sim->step_cycles(200);
  metrics::OnlineConfig cfg;
  cfg.window_cycles = 256;
  metrics::OnlineStats online(sim->topology().num_nodes(), cfg);
  sim->set_online(&online);
  sim->step_cycles(1000);
  const auto& windows = online.windows();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].start_cycle, 200u);
  EXPECT_EQ(windows[0].cycles, 56u);
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].start_cycle, i * 256) << "window " << i;
    EXPECT_EQ(windows[i].cycles, 256u) << "window " << i;
  }
}

}  // namespace
}  // namespace wormsim::sim
