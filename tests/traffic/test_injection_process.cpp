#include "traffic/injection_process.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/stats.hpp"

namespace wormsim::traffic {
namespace {

TEST(InjectionProcess, ParseNames) {
  EXPECT_EQ(parse_process("exponential"), ProcessKind::Exponential);
  EXPECT_EQ(parse_process("poisson"), ProcessKind::Exponential);
  EXPECT_EQ(parse_process("bernoulli"), ProcessKind::Bernoulli);
  EXPECT_THROW(parse_process("wat"), std::invalid_argument);
}

/// Negative, non-finite and runaway rates (past the 8 messages a poll
/// can return) are rejected at construction and by set_rate; a huge
/// exponential rate would otherwise spin on draws too small to advance
/// the arrival clock.
TEST(InjectionProcess, RejectsNegativeRate) {
  EXPECT_THROW(ExponentialProcess(-0.1), std::invalid_argument);
  EXPECT_THROW(BernoulliProcess(-0.1), std::invalid_argument);
  EXPECT_THROW(BernoulliProcess(1.5), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf, 1e308, 8.5}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(ExponentialProcess{bad}, std::invalid_argument);
    EXPECT_THROW(BernoulliProcess{bad}, std::invalid_argument);
    EXPECT_THROW(BurstyProcess(bad, BurstyProcess::Params{}),
                 std::invalid_argument);
    ExponentialProcess ok(0.5);
    EXPECT_THROW(ok.set_rate(bad), std::invalid_argument);
  }
  EXPECT_NO_THROW(ExponentialProcess{8.0});
}

TEST(InjectionProcess, ZeroRateNeverFires) {
  util::Rng rng(1);
  ExponentialProcess p(0.0);
  for (std::uint64_t t = 0; t < 1000; ++t) {
    EXPECT_EQ(p.arrivals(t, rng), 0u);
  }
}

class RateTest : public ::testing::TestWithParam<double> {};

TEST_P(RateTest, ExponentialLongRunRateMatches) {
  const double rate = GetParam();
  util::Rng rng(42);
  ExponentialProcess p(rate);
  constexpr std::uint64_t kCycles = 200000;
  std::uint64_t total = 0;
  for (std::uint64_t t = 0; t < kCycles; ++t) total += p.arrivals(t, rng);
  const double measured = static_cast<double>(total) / kCycles;
  EXPECT_NEAR(measured, rate, 5 * std::sqrt(rate / kCycles) + 1e-6);
}

TEST_P(RateTest, BernoulliLongRunRateMatches) {
  const double rate = GetParam();
  if (rate > 1.0) GTEST_SKIP();
  util::Rng rng(43);
  BernoulliProcess p(rate);
  constexpr std::uint64_t kCycles = 200000;
  std::uint64_t total = 0;
  for (std::uint64_t t = 0; t < kCycles; ++t) total += p.arrivals(t, rng);
  EXPECT_NEAR(static_cast<double>(total) / kCycles, rate,
              5 * std::sqrt(rate / kCycles) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Rates, RateTest,
                         ::testing::Values(0.003125, 0.0125, 0.05, 0.2, 0.9));

TEST(InjectionProcess, ExponentialAllowsMultipleArrivalsPerCycle) {
  util::Rng rng(7);
  ExponentialProcess p(3.0);  // mean 3 arrivals per cycle
  bool saw_multi = false;
  std::uint64_t total = 0;
  for (std::uint64_t t = 0; t < 2000; ++t) {
    const unsigned a = p.arrivals(t, rng);
    total += a;
    saw_multi |= (a > 1);
  }
  EXPECT_TRUE(saw_multi);
  EXPECT_NEAR(static_cast<double>(total) / 2000.0, 3.0, 0.3);
}

TEST(InjectionProcess, SetRateTakesEffect) {
  util::Rng rng(9);
  ExponentialProcess p(0.01);
  std::uint64_t low = 0;
  for (std::uint64_t t = 0; t < 50000; ++t) low += p.arrivals(t, rng);
  p.set_rate(0.1);
  std::uint64_t high = 0;
  for (std::uint64_t t = 50000; t < 100000; ++t) high += p.arrivals(t, rng);
  EXPECT_GT(high, low * 5);
}

TEST(BurstyProcess, ValidatesParams) {
  EXPECT_THROW(BurstyProcess(0.1, {.duty_cycle = 0.0}), std::invalid_argument);
  EXPECT_THROW(BurstyProcess(0.1, {.duty_cycle = 1.5}), std::invalid_argument);
  EXPECT_THROW(BurstyProcess(0.1, {.duty_cycle = 0.5, .mean_burst_cycles = 0}),
               std::invalid_argument);
  EXPECT_THROW(BurstyProcess(-0.1, {}), std::invalid_argument);
}

TEST(BurstyProcess, LongRunRateMatchesMean) {
  util::Rng rng(55);
  BurstyProcess p(0.02, {.duty_cycle = 0.25, .mean_burst_cycles = 400});
  constexpr std::uint64_t kCycles = 2000000;
  std::uint64_t total = 0;
  for (std::uint64_t t = 0; t < kCycles; ++t) total += p.arrivals(t, rng);
  EXPECT_NEAR(static_cast<double>(total) / kCycles, 0.02, 0.003);
}

TEST(BurstyProcess, BurstRateExceedsMeanRate) {
  BurstyProcess p(0.02, {.duty_cycle = 0.25, .mean_burst_cycles = 400});
  EXPECT_DOUBLE_EQ(p.burst_rate(), 0.08);
}

TEST(BurstyProcess, ArrivalsAreClustered) {
  // Index of dispersion of per-window counts must far exceed Poisson's.
  util::Rng rng_b(77), rng_e(77);
  BurstyProcess bursty(0.02, {.duty_cycle = 0.2, .mean_burst_cycles = 500});
  ExponentialProcess smooth(0.02);
  constexpr std::uint64_t kWindow = 250, kWindows = 2000;
  util::RunningStats wb, we;
  for (std::uint64_t w = 0; w < kWindows; ++w) {
    std::uint64_t cb = 0, ce = 0;
    for (std::uint64_t i = 0; i < kWindow; ++i) {
      cb += bursty.arrivals(w * kWindow + i, rng_b);
      ce += smooth.arrivals(w * kWindow + i, rng_e);
    }
    wb.add(static_cast<double>(cb));
    we.add(static_cast<double>(ce));
  }
  const double disp_bursty = wb.variance() / wb.mean();
  const double disp_smooth = we.variance() / we.mean();
  EXPECT_GT(disp_bursty, 3.0 * disp_smooth);
}

TEST(BurstyProcess, FullDutyCycleBehavesLikePoisson) {
  util::Rng rng(11);
  BurstyProcess p(0.05, {.duty_cycle = 1.0, .mean_burst_cycles = 100});
  std::uint64_t total = 0;
  constexpr std::uint64_t kCycles = 200000;
  for (std::uint64_t t = 0; t < kCycles; ++t) total += p.arrivals(t, rng);
  EXPECT_NEAR(static_cast<double>(total) / kCycles, 0.05, 0.005);
}

TEST(BurstyProcess, SharedPhaseSeedSynchronizesSchedules) {
  // Two processes with the same phase seed but different arrival
  // streams must be ON/OFF in lockstep.
  util::Rng rng_a(1), rng_b(2);
  BurstyProcess::Params p{.duty_cycle = 0.3,
                          .mean_burst_cycles = 200,
                          .synchronized = true,
                          .phase_seed = 42};
  BurstyProcess a(0.05, p), b(0.05, p);
  for (std::uint64_t t = 0; t < 20000; ++t) {
    (void)a.arrivals(t, rng_a);
    (void)b.arrivals(t, rng_b);
    ASSERT_EQ(a.on(), b.on()) << "cycle " << t;
  }
}

TEST(BurstyProcess, DistinctPhaseSeedsDecorrelate) {
  util::Rng rng_a(1), rng_b(2);
  BurstyProcess::Params pa{.duty_cycle = 0.3, .mean_burst_cycles = 200,
                           .phase_seed = 1};
  BurstyProcess::Params pb = pa;
  pb.phase_seed = 2;
  BurstyProcess a(0.05, pa), b(0.05, pb);
  unsigned disagreements = 0;
  for (std::uint64_t t = 0; t < 20000; ++t) {
    (void)a.arrivals(t, rng_a);
    (void)b.arrivals(t, rng_b);
    disagreements += (a.on() != b.on());
  }
  EXPECT_GT(disagreements, 1000u);
}

TEST(BurstyProcess, ParseName) {
  EXPECT_EQ(parse_process("bursty"), ProcessKind::Bursty);
  EXPECT_EQ(process_name(ProcessKind::Bursty), "bursty");
}

TEST(InjectionProcess, InterArrivalsAreExponentialShaped) {
  // Coefficient of variation of exponential inter-arrivals is 1.
  util::Rng rng(21);
  ExponentialProcess p(0.02);
  std::uint64_t last = 0;
  util::RunningStats gaps;
  for (std::uint64_t t = 0; t < 500000; ++t) {
    const unsigned a = p.arrivals(t, rng);
    for (unsigned i = 0; i < a; ++i) {
      if (last != 0) gaps.add(static_cast<double>(t - last));
      last = t;
    }
  }
  ASSERT_GT(gaps.count(), 1000u);
  const double cv = gaps.stddev() / gaps.mean();
  EXPECT_NEAR(cv, 1.0, 0.1);
  EXPECT_NEAR(gaps.mean(), 50.0, 3.0);
}

}  // namespace
}  // namespace wormsim::traffic
