// End-to-end timing of isolated messages: exact latency per the
// documented model (3 cycles per hop + ejection binding + length).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;
using testing::ideal_latency;
using testing::make_sim;
using testing::run_until_delivered;

TEST(SingleMessage, DeliversOnIdleNetwork) {
  auto sim = make_sim(4, 2);
  ASSERT_TRUE(sim->push_message(0, 5, 16));
  EXPECT_TRUE(run_until_delivered(*sim, 1, 1000));
  EXPECT_TRUE(sim->network().quiescent());
  EXPECT_EQ(sim->messages_in_flight(), 0u);
}

TEST(SingleMessage, RejectsSelfAndZeroLength) {
  auto sim = make_sim(4, 2);
  EXPECT_FALSE(sim->push_message(3, 3, 16));
  EXPECT_FALSE(sim->push_message(0, 1, 0));
}

TEST(SingleMessage, RejectsMessagesAbove16BitFlits) {
  auto sim = make_sim(4, 2);
  EXPECT_THROW(sim->push_message(0, 1, 65536), std::invalid_argument);
  EXPECT_TRUE(sim->push_message(0, 1, 65535));
}

/// Node ids come from outside (trace replay, tests): one past the
/// network is refused with both ids named, and nothing is queued.
TEST(SingleMessage, RejectsNodeIdsOutsideTheNetwork) {
  auto sim = make_sim(8, 2);  // 64 nodes
  EXPECT_THROW(sim->push_message(1000000, 3, 16), std::invalid_argument);
  EXPECT_THROW(sim->push_message(3, 64, 16), std::invalid_argument);
  try {
    sim->push_message(64, 3, 16);
    ADD_FAILURE() << "src 64 accepted on a 64-node network";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("src 64, dst 3"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sim->source_queue_total(), 0u);
  EXPECT_TRUE(sim->push_message(63, 0, 16));
}

TEST(SingleMessage, ExactLatencyOneHop) {
  auto sim = make_sim(4, 2);
  const topo::NodeId dst = sim->topology().neighbor(0, 0);
  sim->push_message(0, dst, 16);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
  const auto r = sim->totals();
  EXPECT_DOUBLE_EQ(r.latency_mean,
                   static_cast<double>(ideal_latency(*sim, 0, dst, 16)));
}

/// Flits on the wire wait in the bucket of their arrival cycle modulo
/// link_delay + 1, and the per-VC flit counters are 16 bits wide: a
/// message injected a few cycles before 65,536 crosses that boundary on
/// every hop and must still see the closed-form latency, at every link
/// delay.
TEST(SingleMessage, ExactLatencyAcrossSixteenBitCycleWrap) {
  for (const unsigned delay : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE("link_delay=" + std::to_string(delay));
    auto cfg = default_config();
    cfg.net.link_delay = delay;
    cfg.net.buf_flits = std::max(4u, delay + 1);  // no credit stalls
    auto sim = make_sim(4, 2, cfg);
    sim->step_cycles(65530);
    const topo::NodeId src = 0;
    const topo::NodeId dst = 10;  // (2, 2): four hops away
    ASSERT_EQ(sim->topology().distance(src, dst), 4u);
    ASSERT_TRUE(sim->push_message(src, dst, 16));
    ASSERT_TRUE(run_until_delivered(*sim, 1, 1000));
    ASSERT_GT(sim->cycle(), 65536u);
    const auto r = sim->totals();
    EXPECT_DOUBLE_EQ(r.latency_mean,
                     static_cast<double>(ideal_latency(*sim, src, dst, 16)));
  }
}

struct LatencyCase {
  unsigned k, n;
  std::uint32_t src_raw, dst_raw;
  std::uint32_t length;
};

class ExactLatencyTest : public ::testing::TestWithParam<LatencyCase> {};

TEST_P(ExactLatencyTest, MatchesClosedForm) {
  const auto& p = GetParam();
  auto sim = make_sim(p.k, p.n);
  const topo::NodeId src = p.src_raw % sim->topology().num_nodes();
  topo::NodeId dst = p.dst_raw % sim->topology().num_nodes();
  if (dst == src) dst = (dst + 1) % sim->topology().num_nodes();
  sim->push_message(src, dst, p.length);
  ASSERT_TRUE(run_until_delivered(*sim, 1, 5000));
  const auto r = sim->totals();
  EXPECT_DOUBLE_EQ(
      r.latency_mean,
      static_cast<double>(ideal_latency(*sim, src, dst, p.length)))
      << "src=" << src << " dst=" << dst;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExactLatencyTest,
    ::testing::Values(LatencyCase{4, 2, 0, 1, 1},    // single flit, 1 hop
                      LatencyCase{4, 2, 0, 5, 16},   // diagonal
                      LatencyCase{4, 2, 0, 10, 16},  // max distance (2+2)
                      LatencyCase{8, 1, 0, 4, 16},   // half-ring tie
                      LatencyCase{8, 3, 0, 511, 64},
                      LatencyCase{8, 3, 7, 100, 16},
                      LatencyCase{4, 3, 0, 42, 32},
                      LatencyCase{2, 2, 0, 3, 16}));

TEST(SingleMessage, LongerMessageAddsExactlyItsFlits) {
  auto sim16 = make_sim(4, 2);
  auto sim64 = make_sim(4, 2);
  sim16->push_message(0, 5, 16);
  sim64->push_message(0, 5, 64);
  ASSERT_TRUE(run_until_delivered(*sim16, 1, 2000));
  ASSERT_TRUE(run_until_delivered(*sim64, 1, 2000));
  const double l16 = sim16->totals().latency_mean;
  const double l64 = sim64->totals().latency_mean;
  EXPECT_DOUBLE_EQ(l64 - l16, 48.0);
}

TEST(SingleMessage, DorAndDuatoDeliverToo) {
  for (const auto algo : {routing::Algorithm::DOR, routing::Algorithm::Duato}) {
    SimulatorConfig cfg = default_config();
    cfg.algorithm = algo;
    cfg.detection.enabled = false;  // deadlock-free algorithms
    auto sim = make_sim(4, 2, cfg);
    sim->push_message(1, 14, 16);
    EXPECT_TRUE(run_until_delivered(*sim, 1, 2000))
        << routing::algorithm_name(algo);
    // Minimal routing: same closed-form latency as TFAR when alone.
    const auto r = sim->totals();
    EXPECT_DOUBLE_EQ(r.latency_mean,
                     static_cast<double>(ideal_latency(*sim, 1, 14, 16)));
  }
}

TEST(SingleMessage, ManySequentialMessagesAllDelivered) {
  auto sim = make_sim(4, 2);
  unsigned count = 0;
  for (topo::NodeId src = 0; src < 16; ++src) {
    for (topo::NodeId dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      sim->push_message(src, dst, 4);
      ++count;
      ASSERT_TRUE(run_until_delivered(*sim, count, 2000));
    }
  }
  EXPECT_EQ(sim->total_delivered(), count);
  EXPECT_TRUE(sim->network().quiescent());
}

TEST(SingleMessage, FourInjectionChannelsLimitConcurrentStreams) {
  // Five simultaneous messages from one node: only four injection
  // channels exist, so the fifth starts one tenancy later.
  auto sim = make_sim(4, 2);
  for (int i = 0; i < 5; ++i) sim->push_message(0, 5, 8);
  sim->step();  // injection happens this cycle
  EXPECT_EQ(sim->messages_in_flight(), 4u);
  EXPECT_EQ(sim->source_queue_len(0), 1u);
  ASSERT_TRUE(run_until_delivered(*sim, 5, 2000));
}

TEST(SingleMessage, GenTimeIncludesSourceQueueing) {
  // Four messages leave on the node's four distinct output links without
  // contention; the fifth must wait for a free injection channel, and
  // its latency includes that source-queue wait (paper §4 definition).
  auto sim = make_sim(4, 2);
  for (unsigned c = 0; c < 4; ++c) {
    sim->push_message(0, sim->topology().neighbor(0, static_cast<topo::ChannelId>(c)), 8);
  }
  const topo::NodeId first_dst = sim->topology().neighbor(0, 0);
  sim->push_message(0, first_dst, 8);
  ASSERT_TRUE(run_until_delivered(*sim, 5, 2000));
  const auto r = sim->totals();
  const auto ideal = static_cast<double>(ideal_latency(*sim, 0, first_dst, 8));
  EXPECT_DOUBLE_EQ(r.latency_min, ideal);
  EXPECT_GT(r.latency_max, ideal);
}

}  // namespace
}  // namespace wormsim::sim
