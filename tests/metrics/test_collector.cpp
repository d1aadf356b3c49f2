// A run's measurement: the Collector's own state (window bounds,
// latency, source-queue samples, fairness) as a unit, and the counts of
// a run's measurement window end to end. The Simulator takes those from
// differences of its cumulative ledger; here they are checked against
// events counted independently, by a tracer attached to the run (which
// stamps each event with its cycle) or by spatial metrics on a twin
// simulator stepped by hand to the window's ends.
#include "metrics/collector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../sim/sim_test_util.hpp"
#include "metrics/spatial.hpp"
#include "obs/tracer.hpp"

namespace wormsim::metrics {
namespace {

using sim::testing::default_config;
using sim::testing::make_sim;
using sim::testing::make_traffic_sim;

TEST(Collector, WindowGating) {
  Collector c(4, 100, 200);
  EXPECT_FALSE(c.in_window(99));
  EXPECT_TRUE(c.in_window(100));
  EXPECT_TRUE(c.in_window(199));
  EXPECT_FALSE(c.in_window(200));
}

TEST(Collector, LatencyOnlyFromMeasuredMessages) {
  Collector c(4, 0, 1000);
  c.on_delivered(/*gen=*/10, /*now=*/50, /*measured=*/true);
  c.on_delivered(/*gen=*/10, /*now=*/900, /*measured=*/false);
  const SimResult r = c.finish();
  EXPECT_DOUBLE_EQ(r.latency_mean, 40.0);
  EXPECT_DOUBLE_EQ(r.latency_max, 40.0);
}

TEST(ProbeStats, ZeroSamplesYieldZeroPercentagesNotNan) {
  const ProbeStats p;
  EXPECT_EQ(p.samples, 0u);
  EXPECT_DOUBLE_EQ(p.pct_a(), 0.0);
  EXPECT_DOUBLE_EQ(p.pct_b(), 0.0);
  EXPECT_DOUBLE_EQ(p.pct_either(), 0.0);
}

TEST(ProbeStats, PercentagesScaleWithSamples) {
  ProbeStats p;
  p.samples = 8;
  p.rule_a = 2;
  p.rule_b = 4;
  p.either = 5;
  EXPECT_DOUBLE_EQ(p.pct_a(), 25.0);
  EXPECT_DOUBLE_EQ(p.pct_b(), 50.0);
  EXPECT_DOUBLE_EQ(p.pct_either(), 62.5);
}

TEST(Collector, FairnessCountsOnlyWindowInjections) {
  Collector c(3, 100, 200);
  c.on_injected(1, 150);
  c.on_injected(1, 160);
  c.on_injected(2, 150);
  c.on_injected(1, 50);   // before the window
  c.on_injected(2, 200);  // after the window
  EXPECT_EQ(c.fairness().at(0), 0u);
  EXPECT_EQ(c.fairness().at(1), 2u);
  EXPECT_EQ(c.fairness().at(2), 1u);
}

TEST(Collector, QueueStats) {
  Collector c(2, 0, 100);
  c.on_queue_sample(0);
  c.on_queue_sample(10);
  c.on_queue_sample(20);
  const SimResult r = c.finish();
  EXPECT_DOUBLE_EQ(r.avg_queue_len, 10.0);
  EXPECT_EQ(r.max_queue_len, 20u);
}

TEST(Collector, LatencyPercentilesOrdered) {
  Collector c(1, 0, 1000);
  for (int i = 1; i <= 1000; ++i) {
    c.on_delivered(0, static_cast<Cycle>(i), true);
  }
  const SimResult r = c.finish();
  EXPECT_LE(r.latency_p50, r.latency_p95);
  EXPECT_LE(r.latency_p95, r.latency_p99);
  EXPECT_NEAR(r.latency_p50, 500.0, 10.0);
  EXPECT_NEAR(r.latency_p99, 990.0, 10.0);
  EXPECT_DOUBLE_EQ(r.latency_min, 1.0);
  EXPECT_DOUBLE_EQ(r.latency_max, 1000.0);
}

// --- Window counts of a run, end to end --------------------------------

/// A run() with a tracer attached: its result, every traced event, and
/// the measurement window [w0, w1) its protocol sets.
struct TracedRun {
  SimResult r;
  std::vector<obs::TraceEvent> events;
  Cycle w0 = 0;
  Cycle w1 = 0;

  /// Events of `kind` inside the window (or, with inside = false,
  /// outside it) whose aux8 has every bit of `aux8_bits` set.
  std::uint64_t count(obs::EventKind kind, bool inside = true,
                      std::uint8_t aux8_bits = 0) const {
    std::uint64_t n = 0;
    for (const obs::TraceEvent& e : events) {
      const bool in = e.cycle >= w0 && e.cycle < w1;
      n += e.kind == kind && in == inside &&
           (e.aux8 & aux8_bits) == aux8_bits;
    }
    return n;
  }
};

sim::RunProtocol protocol(Cycle warmup, Cycle measure) {
  sim::RunProtocol p;
  p.warmup = warmup;
  p.measure = measure;
  p.drain_max = 3000;
  return p;
}

TracedRun traced_run(sim::Simulator& sim, const sim::RunProtocol& p) {
  obs::Tracer tracer(std::size_t{1} << 18);
  TracedRun out;
  out.w0 = sim.cycle() + p.warmup;
  out.w1 = out.w0 + p.measure;
  sim.set_tracer(&tracer);
  out.r = sim.run(p);
  sim.set_tracer(nullptr);
  EXPECT_EQ(tracer.events_dropped(), 0u);
  out.events = tracer.events();
  return out;
}

/// A 64-node network past saturation, two VCs and no limiter: deadlocks
/// are detected inside the window and outside it.
std::unique_ptr<sim::Simulator> saturated_sim() {
  sim::SimulatorConfig cfg = default_config();
  cfg.net.num_vcs = 2;
  return make_traffic_sim(8, 2, 1.2, 16, cfg);
}

TEST(Collector, AcceptedTrafficNormalization) {
  const auto p = protocol(300, 500);
  auto measured = make_traffic_sim(4, 2, 0.5, 16);
  const SimResult r = measured->run(p);

  // A twin stepped by hand to the window's ends counts ejected flits on
  // its own (spatial metrics never change results).
  auto twin = make_traffic_sim(4, 2, 0.5, 16);
  SpatialMetrics spatial(16, twin->network().num_net_links(), 3);
  twin->set_spatial(&spatial);
  const auto ejected = [&] {
    std::uint64_t flits = 0;
    for (NodeId n = 0; n < 16; ++n) flits += spatial.node_ejected_flits(n);
    return flits;
  };
  twin->step_cycles(p.warmup);
  const std::uint64_t at_w0 = ejected();
  twin->step_cycles(p.measure);
  const std::uint64_t at_w1 = ejected();
  twin->step_cycles(r.total_cycles - twin->cycle());
  ASSERT_GT(at_w0, 0u);
  ASSERT_GT(ejected(), at_w1);  // flits ejected on both sides of it

  // Window flits / (window cycles * nodes).
  EXPECT_DOUBLE_EQ(r.accepted_flits_per_node_cycle,
                   static_cast<double>(at_w1 - at_w0) / (500.0 * 16.0));
}

TEST(Collector, DeadlockPctOverWindowInjections) {
  auto sim = saturated_sim();
  const TracedRun run = traced_run(*sim, protocol(300, 500));
  using obs::EventKind;
  ASSERT_GT(run.count(EventKind::DeadlockDetect), 0u);
  ASSERT_GT(run.count(EventKind::DeadlockDetect, /*inside=*/false), 0u);
  // A source injection is the queue head leaving for the network.
  EXPECT_EQ(run.r.messages_injected_window,
            run.count(EventKind::QueueDequeue));
  EXPECT_EQ(run.r.messages_injected,
            run.count(EventKind::QueueDequeue) +
                run.count(EventKind::QueueDequeue, false));
  EXPECT_EQ(run.r.deadlock_detections, run.count(EventKind::DeadlockDetect));
  EXPECT_DOUBLE_EQ(run.r.deadlock_pct,
                   100.0 *
                       static_cast<double>(run.r.deadlock_detections) /
                       static_cast<double>(run.r.messages_injected_window));
}

TEST(Collector, DeadlockPctZeroWhenNothingInjected) {
  // The canonical ring deadlock (5-ring, one VC, i -> i+2): all five
  // messages enter at cycle 0, before a window that opens at cycle 1,
  // and are detected inside it.
  sim::SimulatorConfig cfg = default_config();
  cfg.net.num_vcs = 1;
  auto sim = make_sim(5, 1, cfg);
  for (topo::NodeId i = 0; i < 5; ++i) {
    ASSERT_TRUE(sim->push_message(i, (i + 2) % 5, 16));
  }
  const SimResult r = sim->run(protocol(1, 200));
  EXPECT_EQ(r.messages_injected, 5u);
  EXPECT_EQ(r.messages_injected_window, 0u);
  EXPECT_GT(r.deadlock_detections, 0u);
  EXPECT_DOUBLE_EQ(r.deadlock_pct, 0.0);
}

TEST(Collector, ProbePercentages) {
  auto sim = saturated_sim();
  const TracedRun run = traced_run(*sim, protocol(300, 500));
  using obs::EventKind;
  const ProbeStats& p = run.r.probe;
  // AloProbe's aux8: bit 0 rule (a), bit 1 rule (b).
  EXPECT_EQ(p.samples, run.count(EventKind::AloProbe));
  EXPECT_EQ(p.rule_a, run.count(EventKind::AloProbe, true, 1));
  EXPECT_EQ(p.rule_b, run.count(EventKind::AloProbe, true, 2));
  EXPECT_EQ(p.either, p.rule_a + p.rule_b -
                          run.count(EventKind::AloProbe, true, 3));
  // Past saturation neither rule always holds, nor always fails.
  EXPECT_GT(p.pct_either(), 0.0);
  EXPECT_LT(p.pct_either(), 100.0);
}

TEST(Collector, ProbeIgnoredOutsideWindow) {
  // One message, routed and delivered during the warm-up: its probes
  // stay in the ledger but out of the window's Figure-2 counts.
  auto sim = make_sim(4, 2);
  ASSERT_TRUE(sim->push_message(0, 10, 16));
  const SimResult r = sim->run(protocol(200, 100));
  EXPECT_EQ(sim->scan_stats().probes, 4u);  // one per router it routed at
  EXPECT_EQ(r.probe.samples, 0u);
  EXPECT_EQ(r.messages_delivered, 1u);
}

TEST(Collector, MeasuredDeliveriesAreThoseGeneratedInTheWindow) {
  auto sim = make_traffic_sim(4, 2, 0.5, 16);
  const TracedRun run = traced_run(*sim, protocol(300, 500));
  using obs::EventKind;
  EXPECT_EQ(run.r.measured_generated, run.count(EventKind::QueueEnqueue));
  EXPECT_EQ(run.r.messages_generated,
            run.count(EventKind::QueueEnqueue) +
                run.count(EventKind::QueueEnqueue, false));
  ASSERT_TRUE(run.r.fully_drained);
  EXPECT_EQ(run.r.measured_delivered, run.r.measured_generated);
  // Warm-up messages delivered in the run count only as deliveries.
  EXPECT_GT(run.r.messages_delivered, run.r.measured_delivered);
  EXPECT_EQ(run.r.messages_lost, 0u);
}

}  // namespace
}  // namespace wormsim::metrics
