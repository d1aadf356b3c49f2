// Unit tests for the online statistics engine: the log-bucketed latency
// histogram (exactness, bucket bounds, merge algebra), the windowed
// saturation-onset detector driven with synthetic windows, and the
// per-phase profiler.
#include "metrics/online/online_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "metrics/online/log_histogram.hpp"
#include "metrics/online/profiler.hpp"
#include "util/rng.hpp"

namespace wormsim::metrics {
namespace {

// ---------------------------------------------------------------- histogram

TEST(LogHistogram, ExactBelowSubBuckets) {
  // Every value below kSubBuckets gets its own bucket, so quantiles on
  // small values are integer-exact.
  LogHistogram h;
  for (std::uint64_t v = 0; v < LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::bucket_index(v), v);
    EXPECT_EQ(LogHistogram::bucket_low(v), v);
    EXPECT_EQ(LogHistogram::bucket_high(v), v);
    h.add(v);
  }
  EXPECT_EQ(h.count(), LogHistogram::kSubBuckets);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 15u);  // ceil(0.5 * 32) = 16th of 0..31
  EXPECT_EQ(h.quantile(1.0), 31u);
}

TEST(LogHistogram, BucketBoundsContainValue) {
  // Across magnitudes: v lands in a bucket whose [lo, hi] contains it,
  // and lo/hi of that bucket map back to the same index.
  util::Rng rng(0xB0C4E75);
  for (int i = 0; i < 20000; ++i) {
    // Random magnitude up to 2^48, uniform in the exponent.
    const unsigned width = 1 + static_cast<unsigned>(rng.below(48));
    const std::uint64_t v = rng.bits() >> (64 - width);
    const std::size_t idx = LogHistogram::bucket_index(v);
    const std::uint64_t lo = LogHistogram::bucket_low(idx);
    const std::uint64_t hi = LogHistogram::bucket_high(idx);
    ASSERT_LE(lo, v) << "v=" << v;
    ASSERT_GE(hi, v) << "v=" << v;
    ASSERT_EQ(LogHistogram::bucket_index(lo), idx) << "v=" << v;
    ASSERT_EQ(LogHistogram::bucket_index(hi), idx) << "v=" << v;
    ASSERT_LE(hi - lo, std::max<std::uint64_t>(1, lo) / LogHistogram::kSubBuckets)
        << "relative bucket width exceeds 1/kSubBuckets at v=" << v;
  }
}

TEST(LogHistogram, QuantileRelativeErrorBounded) {
  // Against a sorted copy of the samples: the reported quantile is the
  // upper bound of the true value's bucket, so it can only overshoot,
  // and by at most one sub-bucket (~1/kSubBuckets relative).
  util::Rng rng(0xFEED);
  LogHistogram h;
  std::vector<std::uint64_t> vals;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(100000);
    vals.push_back(v);
    h.add(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(vals.size()))));
    const std::uint64_t exact = vals[rank - 1];
    const std::uint64_t est = h.quantile(q);
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact) *
                      (1.0 + 1.0 / LogHistogram::kSubBuckets) +
                  1.0)
        << "q=" << q;
  }
}

TEST(LogHistogram, MergeIsAssociativeAndCommutative) {
  // Property test: random samples split across random partitions and
  // merged in different orders always produce the same histogram as the
  // single-stream version — the guarantee sweep telemetry determinism
  // rests on.
  util::Rng rng(0x31337);
  for (int trial = 0; trial < 50; ++trial) {
    LogHistogram whole;
    std::vector<LogHistogram> parts(2 + rng.below(4));
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t v = rng.below(1u << 20);
      whole.add(v);
      parts[rng.below(parts.size())].add(v);
    }

    // Left fold: ((p0 + p1) + p2) + ...
    LogHistogram left;
    for (const auto& p : parts) left.merge(p);
    // Right-to-left fold in reverse order.
    LogHistogram right;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) right.merge(*it);

    EXPECT_TRUE(left == whole);
    EXPECT_TRUE(right == whole);
    EXPECT_EQ(left.quantile(0.99), whole.quantile(0.99));
    EXPECT_EQ(left.max_value(), whole.max_value());
  }
}

TEST(LogHistogram, MergeWithCounts) {
  LogHistogram a, b, sum;
  a.add(7, 3);
  b.add(7, 4);
  b.add(1000);
  sum.add(7, 7);
  sum.add(1000);
  a.merge(b);
  EXPECT_TRUE(a == sum);
  EXPECT_EQ(a.count(), 8u);
}

TEST(LogHistogram, ResetClearsCountsAndMax) {
  LogHistogram h;
  h.add(12345, 10);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
  EXPECT_TRUE(h == LogHistogram{});
  h.add(3);
  EXPECT_EQ(h.quantile(1.0), 3u);
}

TEST(LogHistogram, ForEachBucketVisitsInOrder) {
  LogHistogram h;
  h.add(2);
  h.add(100, 5);
  h.add(100000);
  std::uint64_t total = 0, last_lo = 0;
  int buckets = 0;
  h.for_each_bucket([&](const LogHistogram::Bucket& b) {
    EXPECT_GE(b.lo, last_lo);
    EXPECT_LE(b.lo, b.hi);
    last_lo = b.lo;
    total += b.count;
    ++buckets;
  });
  EXPECT_EQ(buckets, 3);
  EXPECT_EQ(total, 7u);
}

/// Partial contributions fold into one OnlineStats exactly: ejected-flit
/// counts fed as one batch per partition instead of one call per flit,
/// and a window-close free-VC total summed from per-partition integer
/// subtotals. Both are plain integer addition, so any partition order
/// and any batching must reproduce the per-event feed bit for bit.
TEST(OnlineStats, PerShardFoldIsOrderIndependentAndMatchesSequential) {
  OnlineConfig cfg;
  cfg.window_cycles = 64;
  constexpr unsigned kParts = 4;
  OnlineStats sequential(64, cfg);
  OnlineStats ascending(64, cfg);
  OnlineStats descending(64, cfg);
  util::Rng rng(0xF01DF01D);

  for (Cycle t = 0; t < 5 * cfg.window_cycles; ++t) {
    // Per-partition ejected-flit batches for this cycle.
    std::uint64_t part_ejected[kParts];
    for (auto& n : part_ejected) n = rng.below(6);
    // Sequential sees one hook call per flit, in node order; the
    // batched folds see one count per partition, in opposite orders.
    for (unsigned s = 0; s < kParts; ++s) {
      for (std::uint64_t f = 0; f < part_ejected[s]; ++f) {
        sequential.on_flits_ejected(1);
      }
    }
    for (unsigned s = 0; s < kParts; ++s) {
      if (part_ejected[s]) ascending.on_flits_ejected(part_ejected[s]);
    }
    for (unsigned s = kParts; s-- > 0;) {
      if (part_ejected[s]) descending.on_flits_ejected(part_ejected[s]);
    }
    // Deliveries and generation reach all three in the same order.
    const std::uint64_t gen = rng.below(4);
    const bool delivered = rng.below(3) == 0;
    const Cycle latency = 20 + rng.below(200);
    for (OnlineStats* o : {&sequential, &ascending, &descending}) {
      if (gen) o->on_generated(gen);
      if (delivered) o->on_delivered(latency, true);
    }
    if (sequential.window_closes(t)) {
      // Free-VC subtotals per partition, summed in opposite orders.
      std::uint64_t part_free[kParts];
      for (auto& n : part_free) n = rng.below(100);
      WindowSample up{}, down{};
      for (unsigned s = 0; s < kParts; ++s) up.free_vcs += part_free[s];
      for (unsigned s = kParts; s-- > 0;) down.free_vcs += part_free[s];
      up.total_vcs = down.total_vcs = 512;
      up.in_flight_flits = down.in_flight_flits = rng.below(1000);
      sequential.close_window(t, up);
      ascending.close_window(t, up);
      descending.close_window(t, down);
    }
  }

  ASSERT_EQ(sequential.windows().size(), 5u);
  for (const OnlineStats* o : {&ascending, &descending}) {
    ASSERT_EQ(o->windows().size(), sequential.windows().size());
    for (std::size_t i = 0; i < sequential.windows().size(); ++i) {
      const Window& a = sequential.windows()[i];
      const Window& b = o->windows()[i];
      EXPECT_EQ(a.start_cycle, b.start_cycle) << "window " << i;
      EXPECT_EQ(a.offered_flits, b.offered_flits) << "window " << i;
      EXPECT_EQ(a.accepted_flits, b.accepted_flits) << "window " << i;
      EXPECT_EQ(a.delivered, b.delivered) << "window " << i;
      EXPECT_EQ(a.latency_p99, b.latency_p99) << "window " << i;
      EXPECT_EQ(a.end.free_vcs, b.end.free_vcs) << "window " << i;
      EXPECT_EQ(a.saturating, b.saturating) << "window " << i;
    }
    EXPECT_TRUE(o->latency_hist() == sequential.latency_hist());
    EXPECT_EQ(o->saturated(), sequential.saturated());
  }
}

// ----------------------------------------------------------------- detector

constexpr std::uint64_t kWin = 100;

OnlineConfig detector_config() {
  OnlineConfig cfg;
  cfg.window_cycles = kWin;
  return cfg;  // defaults: settle 2, onset 3, floor 0.12, deficit 0.9
}

/// Feed one synthetic window: `offered` flits generated, `accepted`
/// ejected, closing with `free_vcs` of `total_vcs` virtual channels free.
void feed_window(OnlineStats& s, std::uint64_t index, std::uint64_t offered,
                 std::uint64_t accepted, std::uint64_t free_vcs,
                 std::uint64_t total_vcs = 1000) {
  s.on_generated(offered);
  s.on_flits_ejected(accepted);
  // A spread of delivery latencies so window p99 is meaningful.
  for (int i = 0; i < 16; ++i) s.on_delivered(20 + i, true);
  WindowSample sample;
  sample.free_vcs = free_vcs;
  sample.total_vcs = total_vcs;
  const std::uint64_t t = (index + 1) * kWin - 1;
  ASSERT_TRUE(s.window_closes(t));
  s.close_window(t, sample);
}

TEST(SaturationDetector, HealthyTrafficNeverLatches) {
  OnlineStats s(64, detector_config());
  for (std::uint64_t i = 0; i < 20; ++i) {
    feed_window(s, i, 1000, 1000, 500);
  }
  EXPECT_FALSE(s.saturated());
  EXPECT_FALSE(s.onset_cycle().has_value());
  ASSERT_EQ(s.windows().size(), 20u);
  for (const auto& w : s.windows()) EXPECT_FALSE(w.saturating);
}

TEST(SaturationDetector, StarvedDeficitRunLatchesWithOnsetCycle) {
  OnlineStats s(64, detector_config());
  // Healthy settle + baseline windows.
  for (std::uint64_t i = 0; i < 4; ++i) feed_window(s, i, 1000, 1000, 500);
  // Saturation: accepted collapses below the deficit ratio while the
  // network pins its VCs (free fraction 0.05 < 0.12 floor).
  for (std::uint64_t i = 4; i < 8; ++i) feed_window(s, i, 1000, 400, 50);
  EXPECT_TRUE(s.saturated());
  ASSERT_TRUE(s.onset_cycle().has_value());
  // Three consecutive saturating windows latch at window 6; the onset is
  // stamped at the start of the first window of the run (window 4).
  EXPECT_EQ(*s.onset_cycle(), 4 * kWin);
  EXPECT_TRUE(s.windows()[4].saturating);
  EXPECT_FALSE(s.windows()[3].saturating);
}

TEST(SaturationDetector, DeficitWithFreeVcsDoesNotLatch) {
  // The ALO signature: source-side overload (big deficit) but the
  // limiter keeps VC occupancy healthy — not network saturation.
  OnlineStats s(64, detector_config());
  for (std::uint64_t i = 0; i < 4; ++i) feed_window(s, i, 1000, 1000, 500);
  for (std::uint64_t i = 4; i < 12; ++i) feed_window(s, i, 1000, 400, 200);
  EXPECT_FALSE(s.saturated());
  for (const auto& w : s.windows()) EXPECT_FALSE(w.saturating);
}

TEST(SaturationDetector, StarvedWithoutDeficitDoesNotLatch) {
  // High occupancy alone (e.g. a well-utilized network still delivering
  // everything offered) must not read as saturation.
  OnlineStats s(64, detector_config());
  for (std::uint64_t i = 0; i < 10; ++i) feed_window(s, i, 1000, 1000, 50);
  EXPECT_FALSE(s.saturated());
}

TEST(SaturationDetector, IsolatedSaturatingWindowsDoNotLatch) {
  OnlineStats s(64, detector_config());
  for (std::uint64_t i = 0; i < 4; ++i) feed_window(s, i, 1000, 1000, 500);
  // saturating / healthy alternation: never 3 consecutive.
  for (std::uint64_t i = 4; i < 16; ++i) {
    if (i % 3 == 0) {
      feed_window(s, i, 1000, 400, 50);
    } else {
      feed_window(s, i, 1000, 1000, 500);
    }
  }
  EXPECT_FALSE(s.saturated());
}

TEST(SaturationDetector, SettleWindowsAreIgnored) {
  // Even an immediately-starved start cannot latch inside the settle
  // period, and the latch needs onset_windows eligible windows after it.
  OnlineConfig cfg = detector_config();
  cfg.settle_windows = 4;
  OnlineStats s(64, cfg);
  for (std::uint64_t i = 0; i < 4; ++i) feed_window(s, i, 1000, 400, 50);
  EXPECT_FALSE(s.saturated());
  for (std::uint64_t i = 4; i < 7; ++i) feed_window(s, i, 1000, 400, 50);
  EXPECT_TRUE(s.saturated());
  EXPECT_EQ(*s.onset_cycle(), 4 * kWin);
}

TEST(SaturationDetector, WindowAccountingAndCreditDeltas) {
  OnlineStats s(64, detector_config());
  s.on_generated(48);
  s.on_injected();
  s.on_injected();
  s.on_flits_ejected(16);
  s.on_delivered(40, true);
  s.on_deadlock();
  WindowSample first;
  first.credit_messages = 300;  // cumulative counter
  first.in_flight_flits = 32;
  first.total_vcs = 1000;
  first.free_vcs = 400;
  s.close_window(kWin - 1, first);

  s.on_generated(16);
  WindowSample second;
  second.credit_messages = 450;
  second.total_vcs = 1000;
  second.free_vcs = 500;
  s.close_window(2 * kWin - 1, second);

  ASSERT_EQ(s.windows().size(), 2u);
  const Window& w0 = s.windows()[0];
  EXPECT_EQ(w0.start_cycle, 0u);
  EXPECT_EQ(w0.cycles, kWin);
  EXPECT_EQ(w0.offered_flits, 48u);
  EXPECT_EQ(w0.accepted_flits, 16u);
  EXPECT_EQ(w0.injected, 2u);
  EXPECT_EQ(w0.delivered, 1u);
  EXPECT_EQ(w0.deadlocks, 1u);
  EXPECT_EQ(w0.credit_messages, 300u);  // delta from 0
  EXPECT_EQ(w0.end.in_flight_flits, 32u);
  EXPECT_EQ(w0.latency_count, 1u);
  EXPECT_EQ(w0.latency_p99, 40u);
  EXPECT_DOUBLE_EQ(w0.free_vc_fraction(), 0.4);

  const Window& w1 = s.windows()[1];
  EXPECT_EQ(w1.start_cycle, kWin);
  EXPECT_EQ(w1.offered_flits, 16u);
  EXPECT_EQ(w1.credit_messages, 150u);  // 450 - 300
  EXPECT_EQ(w1.latency_count, 0u);      // window histogram was reset
}

TEST(SaturationDetector, MeasuredFlagGatesRunHistogram) {
  // Warmup/drain deliveries feed the per-window histogram (the detector
  // needs them) but stay out of the whole-run latency distribution.
  OnlineStats s(64, detector_config());
  s.on_delivered(100, false);
  s.on_delivered(200, true);
  EXPECT_EQ(s.latency_hist().count(), 1u);
  EXPECT_EQ(s.latency_hist().max_value(), 200u);
}

TEST(SaturationDetector, FinishFlushesPartialWindowOnce) {
  OnlineStats s(64, detector_config());
  s.on_generated(10);
  WindowSample sample;
  sample.total_vcs = 1000;
  sample.free_vcs = 500;
  s.finish(42, sample);
  s.finish(42, sample);  // idempotent
  ASSERT_EQ(s.windows().size(), 1u);
  EXPECT_EQ(s.windows()[0].start_cycle, 0u);
  EXPECT_EQ(s.windows()[0].cycles, 42u);
  EXPECT_EQ(s.windows()[0].offered_flits, 10u);
}

TEST(SaturationDetector, ProfileDueRespectsPeriod) {
  OnlineConfig cfg = detector_config();
  EXPECT_FALSE(OnlineStats(64, cfg).profile_enabled());
  cfg.profile_period = 64;
  OnlineStats s(64, cfg);
  EXPECT_TRUE(s.profile_enabled());
  EXPECT_TRUE(s.profile_due(0));
  EXPECT_FALSE(s.profile_due(1));
  EXPECT_TRUE(s.profile_due(128));
}

// ----------------------------------------------------------------- profiler

TEST(PhaseProfiler, AttributesTimeToPhases) {
  PhaseProfiler prof;
  EXPECT_EQ(prof.total_ns(), 0u);
  volatile std::uint64_t sink = 0;
  prof.time(Phase::Route, [&] {
    for (int i = 0; i < 100000; ++i) sink = sink + 1;
  });
  prof.time(Phase::Eject, [] {});
  prof.count_sample();
  EXPECT_EQ(prof.sampled_cycles(), 1u);
  EXPECT_GT(prof.phase_ns(Phase::Route), 0u);
  EXPECT_EQ(prof.total_ns(),
            prof.phase_ns(Phase::Route) + prof.phase_ns(Phase::Eject));
  EXPECT_GT(prof.share(Phase::Route), 0.5);
  double sum = 0.0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    sum += prof.share(static_cast<Phase>(p));
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace wormsim::metrics
