// Parallel sweep engine: the CSV a sweep produces must be byte-for-byte
// identical for every job count (the whole point of per-point seed
// streams and slot-indexed result collection), and the derived
// per-point RNG streams must be decorrelated.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/sweep.hpp"
#include "util/rng.hpp"

namespace wormsim {
namespace {

config::SimConfig tiny_base() {
  config::SimConfig cfg = config::small_base();
  cfg.protocol.warmup = 300;
  cfg.protocol.measure = 1000;
  cfg.protocol.drain_max = 1500;
  cfg.seed = 0xFEEDFACE;
  return cfg;
}

harness::SweepSpec tiny_spec() {
  harness::SweepSpec spec;
  spec.base = tiny_base();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = {0.05, 0.15, 0.25};
  return spec;
}

std::string sweep_csv(unsigned jobs) {
  harness::SweepSpec spec = tiny_spec();
  spec.jobs = jobs;
  std::ostringstream os;
  harness::write_sweep_csv(os, harness::run_sweep(spec));
  return os.str();
}

TEST(ParallelSweep, GoldenCsvIsByteIdenticalAcrossJobCounts) {
  const std::string serial = sweep_csv(1);
  const std::string four = sweep_csv(4);
  const std::string hw = sweep_csv(std::max(
      1u, std::thread::hardware_concurrency()));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, hw);
}

TEST(ParallelSweep, StatsReportTimingAndJobCount) {
  harness::SweepSpec spec = tiny_spec();
  spec.jobs = 2;
  metrics::SweepStats stats;
  spec.stats = &stats;
  const auto points = harness::run_sweep(spec);
  EXPECT_EQ(stats.points, points.size());
  EXPECT_EQ(stats.simulations, points.size());
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.points_per_second(), 0.0);
  EXPECT_NE(stats.summary().find("points"), std::string::npos);
}

TEST(ParallelSweep, ProgressCallbackIsSerializedAndCoversEveryPoint) {
  harness::SweepSpec spec = tiny_spec();
  spec.jobs = 4;
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::atomic<unsigned> seen{0};
  spec.on_point = [&](const harness::SweepPoint&) {
    if (inside.fetch_add(1) != 0) overlapped = true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ++seen;
    inside.fetch_sub(1);
  };
  const auto points = harness::run_sweep(spec);
  EXPECT_EQ(seen.load(), points.size());
  EXPECT_FALSE(overlapped.load());
}

TEST(ParallelSweep, DerivedStreamsDoNotCollide) {
  // A 10x10 sweep grid with 5 replications = 500 per-simulation
  // streams; every derived seed and every initial generator output must
  // be pairwise distinct.
  const std::uint64_t base = 20000501;  // the paper preset's seed
  constexpr std::uint64_t kStreams = 10 * 10 * 5;
  std::set<std::uint64_t> seeds;
  std::set<std::uint64_t> first_outputs;
  for (std::uint64_t i = 0; i < kStreams; ++i) {
    const std::uint64_t seed = util::derive_stream_seed(base, i);
    seeds.insert(seed);
    first_outputs.insert(util::Rng(seed).bits());
  }
  EXPECT_EQ(seeds.size(), kStreams);
  EXPECT_EQ(first_outputs.size(), kStreams);
  // Neighbouring base seeds must not alias each other's streams.
  EXPECT_EQ(seeds.count(util::derive_stream_seed(base + 1, 0)), 0u);
}

TEST(ParallelSweep, DerivedStreamFirstOutputsLookUniform) {
  // Chi-square sanity check: the first uniform01() draw of 2000 derived
  // streams, 10 equi-probable bins, 9 degrees of freedom. 33.7 is the
  // p = 0.0001 critical value — a generous bound that still catches
  // any systematic correlation between stream index and first output.
  constexpr int kStreams = 2000;
  constexpr int kBins = 10;
  int bins[kBins] = {};
  for (int i = 0; i < kStreams; ++i) {
    util::Rng rng(util::derive_stream_seed(0xABCDEF,
                                           static_cast<std::uint64_t>(i)));
    const double u = rng.uniform01();
    const int b = std::min(kBins - 1, static_cast<int>(u * kBins));
    ++bins[b];
  }
  const double expected = static_cast<double>(kStreams) / kBins;
  double chi2 = 0.0;
  for (const int b : bins) {
    const double d = static_cast<double>(b) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 33.7) << "first outputs of derived streams look biased";
}

TEST(ParallelSweep, SeedsDependOnPointIndexNotExecutionOrder) {
  // Two identical specs must produce identical per-point results even
  // though the second runs with a different (over-subscribed) job
  // count; this pins the index->seed mapping itself, not just the CSV.
  harness::SweepSpec spec = tiny_spec();
  spec.jobs = 1;
  const auto a = harness::run_sweep(spec);
  spec.jobs = 7;  // deliberately not a divisor of the 6-point grid
  const auto b = harness::run_sweep(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].limiter, b[i].limiter);
    EXPECT_DOUBLE_EQ(a[i].offered, b[i].offered);
    EXPECT_EQ(a[i].result.messages_generated, b[i].result.messages_generated);
    EXPECT_EQ(a[i].result.messages_delivered, b[i].result.messages_delivered);
    EXPECT_DOUBLE_EQ(a[i].result.latency_mean, b[i].result.latency_mean);
    EXPECT_DOUBLE_EQ(a[i].result.accepted_flits_per_node_cycle,
                     b[i].result.accepted_flits_per_node_cycle);
  }
}

}  // namespace
}  // namespace wormsim
