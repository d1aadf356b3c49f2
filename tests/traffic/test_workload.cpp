#include "traffic/workload.hpp"

#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace wormsim::traffic {
namespace {

using topo::KAryNCube;

WorkloadConfig base_config(double offered, std::uint32_t len = 16) {
  WorkloadConfig cfg;
  cfg.pattern = PatternKind::Uniform;
  cfg.process = ProcessKind::Exponential;
  cfg.offered_flits_per_node_cycle = offered;
  cfg.length.fixed = len;
  return cfg;
}

/// Per-VC flit counters are 16-bit: longer messages are refused up
/// front, for fixed and bimodal lengths alike.
TEST(Workload, RejectsMessagesAbove16BitFlits) {
  const KAryNCube topo(4, 2);
  EXPECT_NO_THROW(Workload(topo, base_config(0.1, kMaxMessageFlits), 1));
  EXPECT_THROW(Workload(topo, base_config(0.1, kMaxMessageFlits + 1), 1),
               std::invalid_argument);
  WorkloadConfig bimodal = base_config(0.1);
  bimodal.length.kind = LengthDist::Kind::Bimodal;
  bimodal.length.long_len = 70000;
  EXPECT_THROW(Workload(topo, bimodal, 1), std::invalid_argument);
  EXPECT_THROW(check_message_length(std::uint64_t{1} << 32),
               std::invalid_argument);
}

TEST(Workload, MessageRateDerivedFromFlitLoad) {
  const KAryNCube topo(4, 2);
  const Workload w(topo, base_config(0.32, 16), 1);
  EXPECT_DOUBLE_EQ(w.message_rate(), 0.02);
}

TEST(Workload, GeneratesAtConfiguredRate) {
  const KAryNCube topo(4, 2);
  Workload w(topo, base_config(0.16, 16), 7);  // 0.01 msgs/node/cycle
  std::uint64_t total = 0;
  util::SmallVector<GeneratedMessage, 8> buf;
  constexpr std::uint64_t kCycles = 20000;
  for (std::uint64_t t = 0; t < kCycles; ++t) {
    for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
      buf.clear();
      w.poll(n, t, buf);
      total += buf.size();
    }
  }
  const double per_node_cycle =
      static_cast<double>(total) / (kCycles * topo.num_nodes());
  EXPECT_NEAR(per_node_cycle, 0.01, 0.001);
}

TEST(Workload, NodesAreIndependentStreams) {
  const KAryNCube topo(4, 2);
  // Polling only node 3 yields the same messages regardless of whether
  // other nodes are polled.
  Workload w1(topo, base_config(0.5), 11);
  Workload w2(topo, base_config(0.5), 11);
  util::SmallVector<GeneratedMessage, 8> a, b;
  for (std::uint64_t t = 0; t < 2000; ++t) {
    a.clear();
    w1.poll(3, t, a);
    // w2: poll every node, keep node 3's output.
    b.clear();
    for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
      if (n == 3) {
        w2.poll(3, t, b);
      } else {
        util::SmallVector<GeneratedMessage, 8> scratch;
        w2.poll(n, t, scratch);
      }
    }
    ASSERT_EQ(a.size(), b.size()) << "cycle " << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].dst, b[i].dst);
      EXPECT_EQ(a[i].length_flits, b[i].length_flits);
    }
  }
}

TEST(Workload, SameSeedSameTrace) {
  const KAryNCube topo(4, 2);
  Workload w1(topo, base_config(0.4), 3);
  Workload w2(topo, base_config(0.4), 3);
  util::SmallVector<GeneratedMessage, 8> a, b;
  for (std::uint64_t t = 0; t < 500; ++t) {
    for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
      a.clear();
      b.clear();
      w1.poll(n, t, a);
      w2.poll(n, t, b);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].dst, b[i].dst);
      }
    }
  }
}

TEST(Workload, DifferentSeedDifferentTrace) {
  const KAryNCube topo(4, 2);
  Workload w1(topo, base_config(0.4), 3);
  Workload w2(topo, base_config(0.4), 4);
  util::SmallVector<GeneratedMessage, 8> a, b;
  unsigned diffs = 0;
  for (std::uint64_t t = 0; t < 500; ++t) {
    for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
      a.clear();
      b.clear();
      w1.poll(n, t, a);
      w2.poll(n, t, b);
      if (a.size() != b.size()) ++diffs;
    }
  }
  EXPECT_GT(diffs, 0u);
}

TEST(Workload, NeverGeneratesSelfTraffic) {
  const KAryNCube topo(8, 2);  // 64 = 2^6, bit patterns OK
  for (const auto kind : {PatternKind::Uniform, PatternKind::BitReversal}) {
    WorkloadConfig cfg = base_config(1.0);
    cfg.pattern = kind;
    Workload w(topo, cfg, 5);
    util::SmallVector<GeneratedMessage, 8> buf;
    for (std::uint64_t t = 0; t < 200; ++t) {
      for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
        buf.clear();
        w.poll(n, t, buf);
        for (const auto& g : buf) EXPECT_NE(g.dst, n);
      }
    }
  }
}

TEST(Workload, SetOfferedLoadRescalesRate) {
  const KAryNCube topo(4, 2);
  Workload w(topo, base_config(0.16, 16), 9);
  w.set_offered_load(0.64);
  EXPECT_DOUBLE_EQ(w.message_rate(), 0.04);
  EXPECT_DOUBLE_EQ(w.config().offered_flits_per_node_cycle, 0.64);
}

TEST(Workload, BimodalLengths) {
  const KAryNCube topo(4, 2);
  WorkloadConfig cfg = base_config(1.0);
  cfg.length.kind = LengthDist::Kind::Bimodal;
  cfg.length.short_len = 8;
  cfg.length.long_len = 64;
  cfg.length.long_fraction = 0.25;
  EXPECT_DOUBLE_EQ(cfg.length.mean(), 0.25 * 64 + 0.75 * 8);
  Workload w(topo, cfg, 13);
  util::SmallVector<GeneratedMessage, 8> buf;
  std::uint64_t shorts = 0, longs = 0;
  for (std::uint64_t t = 0; t < 5000; ++t) {
    for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
      buf.clear();
      w.poll(n, t, buf);
      for (const auto& g : buf) {
        if (g.length_flits == 8) ++shorts;
        else if (g.length_flits == 64) ++longs;
        else FAIL() << "unexpected length " << g.length_flits;
      }
    }
  }
  const double frac =
      static_cast<double>(longs) / static_cast<double>(longs + shorts);
  EXPECT_NEAR(frac, 0.25, 0.03);
}

TEST(Workload, SynchronizedBurstsCorrelateAcrossNodes) {
  // With synchronized bursts, per-window generation counts across the
  // whole machine must swing together: the index of dispersion of the
  // aggregate is far above the independent-burst case.
  const KAryNCube topo(4, 2);
  auto measure_dispersion = [&](bool sync) {
    WorkloadConfig cfg = base_config(0.5);
    cfg.process = ProcessKind::Bursty;
    cfg.bursty.duty_cycle = 0.25;
    cfg.bursty.mean_burst_cycles = 400;
    cfg.bursty.synchronized = sync;
    Workload w(topo, cfg, 77);
    util::SmallVector<GeneratedMessage, 8> buf;
    util::RunningStats windows;
    constexpr std::uint64_t kWindow = 200, kWindows = 400;
    for (std::uint64_t win = 0; win < kWindows; ++win) {
      std::uint64_t count = 0;
      for (std::uint64_t i = 0; i < kWindow; ++i) {
        for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
          buf.clear();
          w.poll(n, win * kWindow + i, buf);
          count += buf.size();
        }
      }
      windows.add(static_cast<double>(count));
    }
    return windows.variance() / windows.mean();
  };
  const double sync_disp = measure_dispersion(true);
  const double indep_disp = measure_dispersion(false);
  EXPECT_GT(sync_disp, 4.0 * indep_disp);
}

TEST(Workload, RejectsZeroLength) {
  const KAryNCube topo(4, 2);
  WorkloadConfig cfg = base_config(0.1, 0);
  EXPECT_THROW(Workload(topo, cfg, 1), std::invalid_argument);
}

}  // namespace
}  // namespace wormsim::traffic
