// Sweep-level anchors of the simulation core: golden sweep CSVs that
// every refactor must reproduce byte for byte, under each flow-control
// scheme and traffic pattern, at any --jobs count and with any observer
// attached. The cycle-by-cycle oracle is the naive reference model in
// tests/reference/, which its lock-step test checks this core against.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>

#include "config/presets.hpp"
#include "fault/schedule.hpp"
#include "harness/sweep.hpp"
#include "metrics/spatial.hpp"
#include "obs/tracer.hpp"
#include "sim/flow_control.hpp"

namespace wormsim::sim {
namespace {

/// FAST-sized experiment base: 64 nodes, short windows. Small enough
/// that the sweeps stay test-suite friendly, long enough that
/// near-saturation and oversaturated points exercise deadlock
/// detection/recovery and limiter state.
config::SimConfig equivalence_base() {
  config::SimConfig cfg = config::small_base();
  cfg.protocol.warmup = 300;
  cfg.protocol.measure = 1000;
  cfg.protocol.drain_max = 1200;
  cfg.seed = 0xD1FF0001;
  return cfg;
}

void expect_results_identical(const metrics::SimResult& d,
                              const metrics::SimResult& a,
                              const std::string& label) {
  SCOPED_TRACE(label);
  // Volume counters.
  EXPECT_EQ(d.messages_generated, a.messages_generated);
  EXPECT_EQ(d.messages_injected, a.messages_injected);
  EXPECT_EQ(d.messages_delivered, a.messages_delivered);
  EXPECT_EQ(d.measured_generated, a.measured_generated);
  EXPECT_EQ(d.measured_delivered, a.measured_delivered);
  EXPECT_EQ(d.messages_injected_window, a.messages_injected_window);
  // Latency statistics are accumulated in the same order from the same
  // values, so even the floating-point results are exactly equal.
  EXPECT_EQ(d.latency_mean, a.latency_mean);
  EXPECT_EQ(d.latency_stddev, a.latency_stddev);
  EXPECT_EQ(d.latency_min, a.latency_min);
  EXPECT_EQ(d.latency_max, a.latency_max);
  EXPECT_EQ(d.latency_p50, a.latency_p50);
  EXPECT_EQ(d.latency_p95, a.latency_p95);
  EXPECT_EQ(d.latency_p99, a.latency_p99);
  EXPECT_EQ(d.accepted_flits_per_node_cycle, a.accepted_flits_per_node_cycle);
  // Deadlocks, queues, probes.
  EXPECT_EQ(d.deadlock_detections, a.deadlock_detections);
  EXPECT_EQ(d.deadlock_pct, a.deadlock_pct);
  EXPECT_EQ(d.avg_queue_len, a.avg_queue_len);
  EXPECT_EQ(d.max_queue_len, a.max_queue_len);
  EXPECT_EQ(d.probe.samples, a.probe.samples);
  EXPECT_EQ(d.probe.rule_a, a.probe.rule_a);
  EXPECT_EQ(d.probe.rule_b, a.probe.rule_b);
  EXPECT_EQ(d.probe.either, a.probe.either);
  // Run shape.
  EXPECT_EQ(d.total_cycles, a.total_cycles);
  EXPECT_EQ(d.fully_drained, a.fully_drained);
  EXPECT_EQ(d.saturated, a.saturated);
  // The occupied-link average is exact simulation state.
  EXPECT_EQ(d.avg_active_links, a.avg_active_links);
}

/// Sweep CSV captured from the pre-flow-control-refactor tree (commit
/// 1a11c95) for the exact configuration below: equivalence_base(), all
/// four limiters, loads {0.1, 1.0}, serial sweep.
/// Every flow-control refactor since promises the default wormhole
/// scheme is byte-identical to the fused pre-refactor channel logic;
/// this string is the proof anchor — it must never be regenerated to
/// make a refactor pass.
constexpr const char* kWormholeGoldenCsv =
    "mechanism,offered_flits_node_cycle,latency_avg_cycles,"
    "latency_sd_cycles,latency_p99_cycles,accepted_flits_node_cycle,"
    "deadlock_pct,avg_queue_len,fully_drained,saturated\n"
    "none,0.1,30.64231738,6.605701123,47,0.0989375,0,0,1,0\n"
    "none,1,414.6392016,253.9850793,1145.5,0.670890625,3.313911143,"
    "1384.65,0,1\n"
    "alo,0.1,30.83957219,6.563220794,47.66666667,0.092234375,0,0,1,0\n"
    "alo,1,298.2652809,159.7969833,752,0.762109375,0,970.4444444,1,1\n"
    "lf,0.1,31.0719603,6.811702299,50,0.101734375,0,0,1,0\n"
    "lf,1,355.2577475,212.3022723,1005,0.733390625,0,1278.125,0,1\n"
    "dril,0.1,31.18537859,6.400032254,48.33333333,0.0976875,0,0,1,0\n"
    "dril,1,338.1130166,312.0642251,1433,0.71309375,0,1393.1,0,1\n";

/// The same sweep under the two alternative flow-control schemes,
/// captured from the tree before limiters, selection and flow control
/// moved onto one row-reading dispatch path (commit 823e9af): Credit
/// with `credit_return_delay` 2 (buf_flits 4) and VCT at buf_flits 16.
/// These strings are that code's proof anchors — never regenerate them
/// to make a refactor pass.
constexpr const char* kCreditDelay2GoldenCsv =
    "mechanism,offered_flits_node_cycle,latency_avg_cycles,"
    "latency_sd_cycles,latency_p99_cycles,accepted_flits_node_cycle,"
    "deadlock_pct,avg_queue_len,fully_drained,saturated\n"
    "none,0.1,30.80100756,6.585091091,47.8,0.09925,0,0,1,0\n"
    "none,1,467.3522465,269.4994174,1249,0.62625,4.169914263,1518.525,0,1\n"
    "alo,0.1,31.2540107,6.584065391,47.5,0.092203125,0,0,1,0\n"
    "alo,1,334.1264538,191.7972154,916,0.736421875,0,1166.552632,1,1\n"
    "lf,0.1,31.30272953,6.862540277,49,0.101609375,0,0,1,0\n"
    "lf,1,389.1270161,222.8087836,1034,0.71640625,0,1393.1,0,1\n"
    "dril,0.1,31.74934726,6.588608204,49,0.097390625,0,0,1,0\n"
    "dril,1,399.7341908,322.3684633,1411.5,0.69709375,0,1464,0,1\n";

constexpr const char* kVctBuf16GoldenCsv =
    "mechanism,offered_flits_node_cycle,latency_avg_cycles,"
    "latency_sd_cycles,latency_p99_cycles,accepted_flits_node_cycle,"
    "deadlock_pct,avg_queue_len,fully_drained,saturated\n"
    "none,0.1,30.64987406,6.76342447,49,0.099046875,0,0,1,0\n"
    "none,1,253.3738438,212.6000865,1120,0.8081875,0.9302325581,"
    "666.175,0,1\n"
    "alo,0.1,30.41176471,6.05999158,44.5,0.092328125,0,0,1,0\n"
    "alo,1,227.8215788,124.6703174,587.5,0.8244375,0,613.71875,1,1\n"
    "lf,0.1,30.85856079,6.389922658,48,0.1018125,0,0,1,0\n"
    "lf,1,294.127076,168.6419593,765,0.782140625,0,975.5675676,1,1\n"
    "dril,0.1,31.18537859,6.385328753,48.66666667,0.09753125,0,0,1,0\n"
    "dril,1,336.7606068,330.5573731,1371,0.767171875,0,1121.8,0,1\n";

harness::SweepSpec golden_sweep_spec() {
  harness::SweepSpec spec;
  spec.base = equivalence_base();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO,
                   core::LimiterKind::LF, core::LimiterKind::DRIL};
  spec.offered_loads = {0.1, 1.0};
  spec.jobs = 1;
  return spec;
}

std::string sweep_csv(const harness::SweepSpec& spec) {
  std::ostringstream csv;
  harness::write_sweep_csv(csv, harness::run_sweep(spec));
  return csv.str();
}

constexpr const char* kCsvHeader =
    "mechanism,offered_flits_node_cycle,latency_avg_cycles,"
    "latency_sd_cycles,latency_p99_cycles,accepted_flits_node_cycle,"
    "deadlock_pct,avg_queue_len,fully_drained,saturated\n";

/// Every limitation mechanism under three traffic patterns at a low, a
/// near-saturation and an oversaturated load. These rows were captured
/// from the tree in which a second, full-scan core still ran beside
/// this one and both emitted them byte for byte; never regenerate them
/// to make a refactor pass.
const char* pattern_golden_rows(traffic::PatternKind pattern) {
  switch (pattern) {
    case traffic::PatternKind::Uniform:
      return "none,0.1,30.64231738,6.605701123,47,0.0989375,0,0,1,0\n"
             "none,0.45,42.70382883,11.77138207,74.6,0.4413125,0,0.1818181818,"
             "1,0\n"
             "none,1,419.5096204,248.0367212,1145,0.656296875,3.249906612,"
             "1310.025,0,1\n"
             "alo,0.1,30.06896552,6.168329932,46,0.0935625,0,0,1,0\n"
             "alo,0.45,43.93163842,12.97744084,85.66666667,0.44328125,0,"
             "1.090909091,1,0\n"
             "alo,1,322.6472068,179.7176526,806.3333333,0.75490625,0,"
             "1031.666667,1,1\n"
             "lf,0.1,31.18537859,6.400032254,48.33333333,0.0976875,0,0,1,0\n"
             "lf,0.45,44.69794559,13.46984792,87,0.44903125,0,4.318181818,1,"
             "0\n"
             "lf,1,351.4220599,183.8853046,847.5,0.752703125,0.03328894807,"
             "1150.675676,1,1\n"
             "dril,0.1,31.17447917,6.407862581,47.75,0.094484375,0,0,1,0\n"
             "dril,0.45,56.96345515,84.2770427,573,0.441375,0,21.2,1,0\n"
             "dril,1,396.597874,332.1462311,1408,0.711,0.03546099291,1364.15,"
             "0,1\n";
    case traffic::PatternKind::Complement:
      return "none,0.1,32.29396985,6.566361193,52.66666667,0.09971875,0,0,1,"
             "0\n"
             "none,0.45,244.1025641,276.3964673,1291,0.366640625,5.61582642,"
             "205.35,0,1\n"
             "none,1,845.5553027,421.8049521,1892,0.360953125,17.08137189,"
             "2801.8,0,1\n"
             "alo,0.1,31.88413098,6.764604506,56.5,0.098515625,0,0,1,0\n"
             "alo,0.45,218.3738569,269.6209751,1268,0.4006875,0.7255139057,"
             "242.05,0,1\n"
             "alo,1,735.5907563,464.5975024,1815,0.4169375,3.052064632,"
             "2752.675,0,1\n"
             "lf,0.1,32.55837563,6.462927736,51.5,0.097421875,0,0,1,0\n"
             "lf,0.45,199.2713223,252.6171351,1169,0.393703125,0.5056890013,"
             "228.225,0,1\n"
             "lf,1,679.3137086,455.3826213,1640.5,0.423375,1.071428571,"
             "2746.975,0,1\n"
             "dril,0.1,31.62404092,5.950721338,49.5,0.097671875,0,0,1,0\n"
             "dril,0.45,199.6839378,253.2485013,1373,0.38621875,0.7213114754,"
             "308.875,0,1\n"
             "dril,1,790.1507321,444.64125,1910.333333,0.38534375,0.837628866,"
             "2964.075,0,1\n";
    case traffic::PatternKind::BitReversal:
      return "none,0.1,32.92977528,5.206209663,47.66666667,0.089203125,0,0,1,"
             "0\n"
             "none,0.45,47.13530928,13.94737867,94.33333333,0.391734375,0,"
             "0.09090909091,1,0\n"
             "none,1,523.5086018,337.1213457,1364,0.528328125,4.896073903,"
             "1405.775,0,1\n"
             "alo,0.1,32.6954023,5.231896165,48.33333333,0.085921875,0,0,1,"
             "0\n"
             "alo,0.45,47.95174099,14.17202083,96,0.40615625,0,0.7272727273,1,"
             "0\n"
             "alo,1,484.0219259,315.5160497,1323,0.574203125,0.6947459835,"
             "1354.35,0,1\n"
             "lf,0.1,32.56764706,5.612340426,53,0.084203125,0,0,1,0\n"
             "lf,0.45,46.91074919,13.98581815,91,0.388546875,0,1.454545455,1,"
             "0\n"
             "lf,1,477.0441956,303.719121,1282,0.582390625,0.636672326,"
             "1357.575,0,1\n"
             "dril,0.1,32.42939481,4.750555913,46.5,0.087328125,0,0,1,0\n"
             "dril,0.45,54.24415744,44.87739256,299,0.40271875,0,6.807692308,"
             "1,0\n"
             "dril,1,486.1146179,374.8056929,1427,0.53659375,0,1560.175,0,1\n";
    default:
      return "";
  }
}

class CoreEquivalence
    : public ::testing::TestWithParam<traffic::PatternKind> {};

TEST_P(CoreEquivalence, SweepCsvIsByteIdentical) {
  harness::SweepSpec spec = golden_sweep_spec();
  spec.base.workload.pattern = GetParam();
  spec.offered_loads = {0.1, 0.45, 1.0};
  EXPECT_EQ(std::string(kCsvHeader) + pattern_golden_rows(GetParam()),
            sweep_csv(spec));
}

INSTANTIATE_TEST_SUITE_P(Patterns, CoreEquivalence,
                         ::testing::Values(traffic::PatternKind::Uniform,
                                           traffic::PatternKind::Complement,
                                           traffic::PatternKind::BitReversal),
                         [](const auto& param_info) {
                           std::string name(
                               traffic::pattern_name(param_info.param));
                           // gtest param names must be alphanumeric.
                           std::erase_if(name,
                                         [](char c) { return !std::isalnum(
                                               static_cast<unsigned char>(c)); });
                           return name;
                         });

/// Wormhole reproduces the pre-refactor sweep byte-for-byte under any
/// --jobs count. Any diff here means a refactor changed behavior, which
/// it is never allowed to do.
TEST(FlowControl, WormholeViaInterfaceMatchesPreRefactorGolden) {
  harness::SweepSpec spec = golden_sweep_spec();
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    spec.jobs = jobs;
    EXPECT_EQ(kWormholeGoldenCsv, sweep_csv(spec));
  }
}

/// Attaching the online statistics engine — latency histograms, the
/// windowed series, the saturation detector, and even the wall-clock
/// phase profiler — must not perturb the simulation: the golden sweep
/// CSV stays byte-identical with it enabled, at any --jobs count. The
/// observers only ever read simulation state.
TEST(CoreEquivalence, OnlineStatsKeepSweepCsvByteIdentical) {
  harness::SweepSpec spec = golden_sweep_spec();
  spec.online = true;
  spec.online_config.window_cycles = 128;
  spec.online_config.profile_period = 64;
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    spec.jobs = jobs;
    EXPECT_EQ(kWormholeGoldenCsv, sweep_csv(spec));
  }
}

/// Credit-based flow control with zero return latency is wormhole: the
/// credit counter then equals the receiver occupancy the wormhole gate
/// reads directly, so the schemes must produce the byte-identical CSV
/// — including the credit bookkeeping, generation tags and teardown
/// resets running hot underneath.
TEST(FlowControl, CreditZeroDelayIsByteIdenticalToWormhole) {
  harness::SweepSpec spec = golden_sweep_spec();
  spec.base.sim.flow.scheme = FlowControl::Credit;
  spec.base.sim.flow.credit_return_delay = 0;
  EXPECT_EQ(kWormholeGoldenCsv, sweep_csv(spec));
}

/// With buffers at least one whole message deep, virtual cut-through's
/// whole-packet admission test always passes exactly when wormhole's
/// free-VC claim does (a free VC has occupancy zero), so the two
/// schemes coincide — byte-identical CSVs at buf_flits = msg_len.
TEST(FlowControl, VctIsByteIdenticalToWormholeAtDeepBuffers) {
  harness::SweepSpec spec = golden_sweep_spec();
  spec.base.sim.net.buf_flits = 16;  // == message length
  const std::string reference = sweep_csv(spec);
  spec.base.sim.flow.scheme = FlowControl::Vct;
  EXPECT_EQ(reference, sweep_csv(spec));
}

/// The serial-vs-parallel equivalence contract extends to the
/// alternative schemes: credit (with a real return latency) and VCT
/// each reproduce their golden CSV, independent of job count.
TEST(FlowControl, AlternativeSchemesAgreeAcrossCoresAndJobs) {
  struct Scheme {
    const char* label;
    FlowControl scheme;
    std::uint32_t buf_flits;
    const char* golden;
  };
  const Scheme schemes[] = {
      {"credit-delay2", FlowControl::Credit, 4, kCreditDelay2GoldenCsv},
      {"vct", FlowControl::Vct, 16, kVctBuf16GoldenCsv},
  };
  for (const auto& s : schemes) {
    SCOPED_TRACE(s.label);
    harness::SweepSpec spec = golden_sweep_spec();
    spec.base.sim.flow.scheme = s.scheme;
    spec.base.sim.flow.credit_return_delay = 2;
    spec.base.sim.net.buf_flits = s.buf_flits;
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      spec.jobs = jobs;
      EXPECT_EQ(s.golden, sweep_csv(spec));
    }
  }
}

/// Cross-scheme statistical sanity at low load: every scheme drains
/// completely and delivers every generated message; generation is
/// workload-side, so the delivered counts agree across schemes; and
/// the latency ordering is physical — credit's non-zero return latency
/// can only slow streaming down relative to ideal wormhole credits,
/// and VCT with message-deep buffers can never be slower than it.
TEST(FlowControl, SchemesConserveAndOrderLatencyAtLowLoad) {
  struct Run {
    const char* label;
    FlowControl scheme;
    unsigned credit_delay;
    std::uint32_t buf_flits;
    metrics::SimResult result;
  };
  Run runs[] = {
      {"wormhole", FlowControl::Wormhole, 0, 4, {}},
      {"credit-delay2", FlowControl::Credit, 2, 4, {}},
      {"vct", FlowControl::Vct, 0, 16, {}},
  };
  for (auto& r : runs) {
    SCOPED_TRACE(r.label);
    config::SimConfig cfg = equivalence_base();
    cfg.workload.offered_flits_per_node_cycle = 0.1;
    cfg.sim.flow.scheme = r.scheme;
    cfg.sim.flow.credit_return_delay = r.credit_delay;
    cfg.sim.net.buf_flits = r.buf_flits;
    r.result = config::run_experiment(cfg);
    // Full drain: every message generated in the measurement window
    // was delivered (generation keeps running during the drain phase,
    // so the total counters intentionally disagree).
    EXPECT_TRUE(r.result.fully_drained);
    EXPECT_EQ(r.result.measured_generated, r.result.measured_delivered);
    EXPECT_EQ(r.result.deadlock_detections, 0u);
  }
  // Same seed, same workload: generation is independent of the scheme,
  // so the delivered measured cohort is identical in size.
  EXPECT_EQ(runs[0].result.measured_delivered,
            runs[1].result.measured_delivered);
  EXPECT_EQ(runs[0].result.measured_delivered,
            runs[2].result.measured_delivered);
  // wormhole <= credit: delayed credit returns only ever add stalls.
  EXPECT_LE(runs[0].result.latency_mean, runs[1].result.latency_mean);
  // vct (deep buffers) ~<= wormhole (shallow): whole-message buffers
  // remove downstream backpressure bubbles. At this load contention is
  // rare, so the schemes nearly tie — allow sub-cycle noise, but catch
  // any systematic slowdown.
  EXPECT_LE(runs[2].result.latency_mean, runs[0].result.latency_mean + 0.5);
}

/// Observability must observe, never participate: attaching a tracer
/// and spatial metrics to a run cannot change a single result field,
/// even with deadlock recovery and limiter state hot.
TEST(CoreEquivalence, InstrumentationDoesNotPerturbResults) {
  config::SimConfig base = equivalence_base();
  base.sim.limiter.kind = core::LimiterKind::ALO;
  base.workload.offered_flits_per_node_cycle = 1.0;  // past saturation

  const auto plain = config::run_experiment(base);

  obs::Tracer tracer(1u << 12);
  const topo::KAryNCube topo(base.k, base.n);
  metrics::SpatialMetrics spatial(topo.num_nodes(),
                                  topo.num_nodes() * topo.num_channels(),
                                  base.sim.net.num_vcs);
  config::RunHooks hooks;
  hooks.tracer = &tracer;
  hooks.spatial = &spatial;
  const auto instrumented = config::run_experiment(base, hooks);

  // The hooks saw real traffic...
  EXPECT_GT(tracer.events_recorded(), 0u);
  std::uint64_t ejected = 0;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    ejected += spatial.node_ejected_flits(n);
  }
  EXPECT_GT(ejected, 0u);
  // ...and the results are exactly what the plain run produced.
  expect_results_identical(plain, instrumented, "instrumented");
}

/// The fault subsystem at rest must be invisible: a sweep whose base
/// config carries an empty schedule (no FaultManager at all) and one
/// whose schedule only fires beyond the run horizon (manager wired in,
/// per-cycle due() gate armed, routing LUT built) must both emit the
/// byte-identical CSV of the plain no-fault sweep, for any --jobs count.
TEST(CoreEquivalence, FaultNoopKeepsSweepCsvByteIdentical) {
  harness::SweepSpec spec;
  spec.base = equivalence_base();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = {0.1, 1.0};
  spec.jobs = 1;
  const std::string reference = sweep_csv(spec);

  const fault::FaultSchedule beyond_horizon(
      {{std::uint64_t{1} << 40, fault::FaultKind::LinkKill, 0, 0}});
  for (const unsigned jobs : {1u, 2u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    spec.jobs = jobs;
    spec.base.sim.faults = fault::FaultSchedule{};
    EXPECT_EQ(reference, sweep_csv(spec));
    spec.base.sim.faults = beyond_horizon;
    EXPECT_EQ(reference, sweep_csv(spec));
  }
}

}  // namespace
}  // namespace wormsim::sim
