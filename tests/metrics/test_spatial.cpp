#include "metrics/spatial.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "topology/kary_ncube.hpp"

namespace wormsim::metrics {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(SpatialMetrics, NodeCountersAccumulate) {
  SpatialMetrics sm(4, 16, 3);
  sm.on_injected(1);
  sm.on_injected(1);
  sm.on_ejected_flit(2);
  sm.on_queue_sample(1, 4);
  sm.on_queue_sample(1, 10);
  sm.on_queue_sample(1, 1);

  EXPECT_EQ(sm.node_injected(1), 2u);
  EXPECT_EQ(sm.node_injected(0), 0u);
  EXPECT_EQ(sm.node_ejected_flits(2), 1u);
  EXPECT_DOUBLE_EQ(sm.node_queue_avg(1), 5.0);
  EXPECT_EQ(sm.node_queue_max(1), 10u);
  // Unsampled nodes report 0, not NaN.
  EXPECT_DOUBLE_EQ(sm.node_queue_avg(3), 0.0);
  EXPECT_EQ(sm.node_queue_max(3), 0u);
}

TEST(SpatialMetrics, MeanBusyVcsWeightsHistogram) {
  SpatialMetrics sm(4, 16, 3);
  // Two samples at 0 busy, one at 3 busy: mean = 3/3 = 1.0.
  sm.on_link_occupancy_sample(5, 0);
  sm.on_link_occupancy_sample(5, 0);
  sm.on_link_occupancy_sample(5, 3);
  EXPECT_EQ(sm.occupancy_samples(5, 0), 2u);
  EXPECT_EQ(sm.occupancy_samples(5, 3), 1u);
  EXPECT_DOUBLE_EQ(sm.mean_busy_vcs(5), 1.0);
  // Never-sampled link: 0, not a division by zero.
  EXPECT_DOUBLE_EQ(sm.mean_busy_vcs(6), 0.0);
}

TEST(SpatialMetrics, ResetClearsEverything) {
  SpatialMetrics sm(2, 8, 2);
  sm.on_injected(0);
  sm.on_queue_sample(0, 9);
  sm.on_link_occupancy_sample(3, 2);
  sm.set_link_flits(3, 1234);
  sm.reset();
  EXPECT_EQ(sm.node_injected(0), 0u);
  EXPECT_DOUBLE_EQ(sm.node_queue_avg(0), 0.0);
  EXPECT_EQ(sm.node_queue_max(0), 0u);
  EXPECT_EQ(sm.occupancy_samples(3, 2), 0u);
  EXPECT_EQ(sm.link_flits(3), 0u);
  EXPECT_DOUBLE_EQ(sm.mean_busy_vcs(3), 0.0);
}

TEST(SpatialMetrics, ChannelCsvShapeAndUtilization) {
  const topo::KAryNCube topo(4, 2);  // 16 nodes, 4 channels each
  SpatialMetrics sm(topo.num_nodes(),
                    static_cast<std::uint32_t>(topo.num_links()),
                    /*num_vcs=*/3);
  sm.set_link_flits(0, 500);

  std::ostringstream os;
  sm.write_channel_csv(os, topo, /*cycles=*/1000);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 1u + topo.num_links());
  EXPECT_EQ(lines[0],
            "link,src,dst,dim,dir,src_x,src_y,flits_carried,utilization,"
            "mean_busy_vcs");
  // Link 0 = node 0, channel 0 (dim 0, plus): dst is node 1 on a 4-ary
  // 2-cube; 500 flits / 1000 cycles = 0.5 utilization.
  EXPECT_EQ(lines[1].substr(0, 2), "0,");
  EXPECT_NE(lines[1].find(",500,0.5,"), std::string::npos) << lines[1];
}

TEST(SpatialMetrics, NodeCsvShape) {
  const topo::KAryNCube topo(4, 2);
  SpatialMetrics sm(topo.num_nodes(),
                    static_cast<std::uint32_t>(topo.num_links()), 3);
  sm.on_injected(5);
  sm.on_ejected_flit(5);
  sm.on_ejected_flit(5);

  std::ostringstream os;
  sm.write_node_csv(os, topo, /*cycles=*/100);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 1u + topo.num_nodes());
  EXPECT_EQ(lines[0],
            "node,x,y,coords,injected_msgs,ejected_flits,"
            "ejected_flits_per_cycle,queue_avg,queue_max");
  // Node 5 on a 4-ary 2-cube sits at (1,1).
  EXPECT_NE(lines[6].find("5,1,1,"), std::string::npos) << lines[6];
  EXPECT_NE(lines[6].find(",1,2,0.02,"), std::string::npos) << lines[6];
}

TEST(SpatialMetrics, VcOccupancyCsvIsLongFormat) {
  const topo::KAryNCube topo(4, 2);
  SpatialMetrics sm(topo.num_nodes(),
                    static_cast<std::uint32_t>(topo.num_links()), 3);
  sm.on_link_occupancy_sample(2, 1);

  std::ostringstream os;
  sm.write_vc_occupancy_csv(os, topo);
  const auto lines = lines_of(os.str());
  // One row per (link, busy_vcs 0..num_vcs).
  ASSERT_EQ(lines.size(), 1u + topo.num_links() * 4);
  EXPECT_EQ(lines[0], "link,src,dst,dim,dir,busy_vcs,samples");
  bool found = false;
  for (const std::string& line : lines) {
    if (line.rfind("2,", 0) == 0 && line.find(",1,1") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << os.str();
}

}  // namespace
}  // namespace wormsim::metrics
