// Differential harness for the two simulation cores: SimCore::Dense
// (reference full scan) versus SimCore::Active (active-set iteration)
// must be indistinguishable in results — byte-identical sweep CSVs,
// exactly equal SimResult fields, and equal microarchitectural state in
// lock-step execution. Any divergence is a bug in the active-set
// bookkeeping, never an acceptable approximation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "../support/invariants.hpp"
#include "config/presets.hpp"
#include "fault/schedule.hpp"
#include "harness/sweep.hpp"
#include "harness/telemetry.hpp"
#include "metrics/spatial.hpp"
#include "obs/tracer.hpp"
#include "sim/flow_control.hpp"
#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;

/// FAST-sized experiment base: 64 nodes, short windows. Small enough
/// that the full differential matrix stays test-suite friendly, long
/// enough that near-saturation and oversaturated points exercise
/// deadlock detection/recovery and limiter state.
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
  // The occupied-link average is exact simulation state, not an
  // active-set diagnostic, so it must match across cores too.
  EXPECT_EQ(d.avg_active_links, a.avg_active_links);
}

void expect_networks_equal(const Simulator& ds, const Simulator& as, Cycle at);

/// Per-link flit counts for a lock-step pair: a SpatialMetrics attached
/// to each simulator for its lifetime, compared link by link in
/// expect_networks_equal.
class LinkCounters {
 public:
  LinkCounters(Simulator& dense, Simulator& active)
      : dense_(counters_for(dense)), active_(counters_for(active)) {
    dense.set_spatial(&dense_);
    active.set_spatial(&active_);
  }
  LinkCounters(const LinkCounters&) = delete;
  LinkCounters& operator=(const LinkCounters&) = delete;

 private:
  static metrics::SpatialMetrics counters_for(const Simulator& sim) {
    return metrics::SpatialMetrics(sim.topology().num_nodes(),
                                   sim.network().num_net_links(),
                                   sim.network().params().num_vcs);
  }

  metrics::SpatialMetrics dense_, active_;
};

/// The full differential matrix the PR promises: every limitation
/// mechanism under three traffic patterns at a low, a near-saturation
/// and an oversaturated load, as one sweep per core per pattern. The
/// sweep CSV — the artifact figures are drawn from — must be
/// byte-identical.
class CoreEquivalence
    : public ::testing::TestWithParam<traffic::PatternKind> {};

TEST_P(CoreEquivalence, SweepCsvIsByteIdentical) {
  harness::SweepSpec spec;
  spec.base = equivalence_base();
  spec.base.workload.pattern = GetParam();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO,
                   core::LimiterKind::LF, core::LimiterKind::DRIL};
  spec.offered_loads = {0.1, 0.45, 1.0};
  spec.jobs = 1;

  spec.base.sim.core = SimCore::Dense;
  const auto dense = harness::run_sweep(spec);
  spec.base.sim.core = SimCore::Active;
  const auto active = harness::run_sweep(spec);

  ASSERT_EQ(dense.size(), active.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    expect_results_identical(
        dense[i].result, active[i].result,
        std::string(core::limiter_name(dense[i].limiter)) + " @ " +
            std::to_string(dense[i].offered));
  }

  std::ostringstream dense_csv;
  harness::write_sweep_csv(dense_csv, dense);
  std::ostringstream active_csv;
  harness::write_sweep_csv(active_csv, active);
  EXPECT_EQ(dense_csv.str(), active_csv.str());
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

/// The active core must emit the same sweep CSV as the dense reference
/// with the route memo on and off: the closed-form route codes and the
/// blocked-header route memo are pure speedups, never approximations.
/// One sweep per setting over the full limiter matrix, compared
/// byte-for-byte,
/// under each flow-control scheme against that scheme's own dense
/// reference (the memo's blocked test reads the row selection reads in
/// all three; VCT adds the admission verdict the entry records).
TEST(CoreEquivalence, FastPathTogglesKeepSweepCsvByteIdentical) {
  struct Scheme {
    const char* label;
    FlowControl scheme;
    std::uint32_t buf_flits;
  };
  const Scheme schemes[] = {
      {"wormhole", FlowControl::Wormhole, 4},
      {"vct", FlowControl::Vct, 16},
      {"credit-delay2", FlowControl::Credit, 4},
  };
  struct Toggle {
    const char* label;
    FastPathConfig fp;
  };
  const Toggle toggles[] = {
      {"all-on", {}},
      {"memo-off", {.route_memo = false}},
  };
  for (const auto& s : schemes) {
    SCOPED_TRACE(s.label);
    harness::SweepSpec spec;
    spec.base = equivalence_base();
    spec.base.sim.flow.scheme = s.scheme;
    spec.base.sim.net.buf_flits = s.buf_flits;
    spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO,
                     core::LimiterKind::LF, core::LimiterKind::DRIL};
    spec.offered_loads = {0.1, 1.0};
    spec.jobs = 1;

    spec.base.sim.core = SimCore::Dense;
    std::ostringstream reference;
    harness::write_sweep_csv(reference, harness::run_sweep(spec));

    spec.base.sim.core = SimCore::Active;
    for (const auto& t : toggles) {
      SCOPED_TRACE(t.label);
      spec.base.sim.fastpath = t.fp;
      std::ostringstream csv;
      harness::write_sweep_csv(csv, harness::run_sweep(spec));
      EXPECT_EQ(reference.str(), csv.str());
    }
  }
}

/// Sweep CSV captured from the pre-flow-control-refactor tree (commit
/// 1a11c95) for the exact configuration below: equivalence_base(), all
/// four limiters, loads {0.1, 1.0}, serial sweep on the dense core.
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
/// Once both cores share that code they no longer check each other on
/// it, so these strings are its proof anchors — never regenerate them
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

/// The tentpole guarantee: wormhole-through-the-interface reproduces
/// the pre-refactor sweep byte-for-byte on every core and under any
/// --jobs count. Any diff here means the interface extraction changed
/// behavior, which it is never allowed to do.
TEST(FlowControl, WormholeViaInterfaceMatchesPreRefactorGolden) {
  harness::SweepSpec spec = golden_sweep_spec();
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE(std::string(sim_core_name(core)) +
                   " jobs=" + std::to_string(jobs));
      spec.base.sim.core = core;
      spec.jobs = jobs;
      EXPECT_EQ(kWormholeGoldenCsv, sweep_csv(spec));
    }
  }
}

/// Attaching the online statistics engine — latency histograms, the
/// windowed series, the saturation detector, and even the wall-clock
/// phase profiler — must not perturb the simulation: the golden sweep
/// CSV stays byte-identical with it enabled, on both cores, at any
/// --jobs count. The observers only ever read simulation state.
TEST(CoreEquivalence, OnlineStatsKeepSweepCsvByteIdentical) {
  harness::SweepSpec spec = golden_sweep_spec();
  spec.online = true;
  spec.online_config.window_cycles = 128;
  spec.online_config.profile_period = 64;
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE(std::string(sim_core_name(core)) +
                   " jobs=" + std::to_string(jobs));
      spec.base.sim.core = core;
      spec.jobs = jobs;
      EXPECT_EQ(kWormholeGoldenCsv, sweep_csv(spec));
    }
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
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    SCOPED_TRACE(sim_core_name(core));
    spec.base.sim.core = core;
    EXPECT_EQ(kWormholeGoldenCsv, sweep_csv(spec));
  }
}

/// With buffers at least one whole message deep, virtual cut-through's
/// whole-packet admission test always passes exactly when wormhole's
/// free-VC claim does (a free VC has occupancy zero), so the two
/// schemes coincide — byte-identical CSVs at buf_flits = msg_len.
TEST(FlowControl, VctIsByteIdenticalToWormholeAtDeepBuffers) {
  harness::SweepSpec spec = golden_sweep_spec();
  spec.base.sim.net.buf_flits = 16;  // == message length
  spec.base.sim.core = SimCore::Dense;
  const std::string reference = sweep_csv(spec);

  spec.base.sim.flow.scheme = FlowControl::Vct;
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    SCOPED_TRACE(sim_core_name(core));
    spec.base.sim.core = core;
    EXPECT_EQ(reference, sweep_csv(spec));
  }
}

/// The dense-vs-active and serial-vs-parallel equivalence contracts
/// extend to the alternative schemes: credit (with a real return
/// latency) and VCT each reproduce their golden CSV, independent of
/// core and job count.
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
    for (const auto core : {SimCore::Dense, SimCore::Active}) {
      for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(std::string(sim_core_name(core)) + " jobs=" +
                     std::to_string(jobs));
        spec.base.sim.core = core;
        spec.jobs = jobs;
        EXPECT_EQ(s.golden, sweep_csv(spec));
      }
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

/// Lock-step microscope over the schemes themselves: for each scheme
/// the dense core (full scans, no route memo) and the active core must
/// agree on complete channel-level state every cycle, with the full
/// shared invariant battery — including credit conservation — green on
/// both.
class FlowControlLockStep : public ::testing::TestWithParam<FlowControl> {};

TEST_P(FlowControlLockStep, ChannelStateAgreesEveryCycle) {
  const topo::KAryNCube topo(4, 2);
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    cfg.limiter.kind = core::LimiterKind::ALO;
    cfg.flow.scheme = GetParam();
    if (GetParam() == FlowControl::Vct) {
      cfg.net.buf_flits = 16;  // admission needs message-deep buffers
    }
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.1;  // well past saturation
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 901);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto dense = make(SimCore::Dense);
  auto active = make(SimCore::Active);
  const LinkCounters counters(*dense, *active);

  for (int block = 0; block < 200; ++block) {
    for (int i = 0; i < 10; ++i) {
      dense->step();
      active->step();
    }
    const Cycle at = dense->cycle();
    ASSERT_EQ(at, active->cycle());
    expect_networks_equal(*dense, *active, at);
    ASSERT_EQ(dense->total_delivered(), active->total_delivered());
    ASSERT_EQ(dense->messages_in_flight(), active->messages_in_flight());
    ASSERT_EQ(dense->source_queue_total(), active->source_queue_total());
    ASSERT_EQ(dense->total_deadlock_detections(),
              active->total_deadlock_detections());
    ASSERT_TRUE(testing::check_all_invariants(*dense));
    ASSERT_TRUE(testing::check_all_invariants(*active));
  }
  // Both cores must account credit messages identically.
  ASSERT_EQ(dense->credit_messages(), active->credit_messages());
  if (GetParam() == FlowControl::Credit) {
    EXPECT_GT(dense->credit_messages(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, FlowControlLockStep,
                         ::testing::Values(FlowControl::Wormhole,
                                           FlowControl::Credit,
                                           FlowControl::Vct),
                         [](const auto& param_info) {
                           return std::string(
                               flow_control_name(param_info.param));
                         });

/// Observability must observe, never participate: attaching a tracer
/// and spatial metrics to a run cannot change a single result field on
/// either core, even with deadlock recovery and limiter state hot.
TEST(CoreEquivalence, InstrumentationDoesNotPerturbResults) {
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    config::SimConfig base = equivalence_base();
    base.sim.core = core;
    base.sim.limiter.kind = core::LimiterKind::ALO;
    base.workload.offered_flits_per_node_cycle = 1.0;  // past saturation

    const auto plain = config::run_experiment(base);

    obs::Tracer tracer(1u << 12);
    const topo::KAryNCube topo(base.k, base.n);
    metrics::SpatialMetrics spatial(
        topo.num_nodes(), topo.num_nodes() * topo.num_channels(),
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
    expect_results_identical(
        plain, instrumented,
        "instrumented " + std::string(sim_core_name(core)));
  }
}

/// Lock-step microscope: one dense and one active simulator advance a
/// cycle at a time from identical seeds; their complete channel-level
/// state must agree at every comparison point, not just the end-of-run
/// aggregates. High offered load keeps deadlock recovery and limiter
/// paths hot.
class LockStep : public ::testing::TestWithParam<core::LimiterKind> {};

void expect_networks_equal(const Simulator& ds, const Simulator& as,
                           Cycle at) {
  const Network& d = ds.network();
  const Network& a = as.network();
  ASSERT_EQ(d.num_links(), a.num_links());
  for (LinkId l = 0; l < d.num_links(); ++l) {
    const Link& dl = d.link(l);
    const Link& al = a.link(l);
    ASSERT_EQ(dl.active_vc_mask, al.active_vc_mask)
        << "link " << l << " cycle " << at;
    ASSERT_EQ(dl.rr_next, al.rr_next) << "link " << l << " cycle " << at;
    for (unsigned v = 0; v < d.vcs_on(l); ++v) {
      const VcRef ref{l, static_cast<std::uint8_t>(v)};
      const VcState& dv = d.vc(ref);
      const VcState& av = a.vc(ref);
      ASSERT_EQ(dv.msg == kNoMsg, av.msg == kNoMsg)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(dv.in_count, av.in_count)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(dv.out_count, av.out_count)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(dv.occupancy, av.occupancy)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(ds.header_arrival(ref), as.header_arrival(ref))
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(d.progress(ref), a.progress(ref))
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(dv.last_activity, av.last_activity)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(dv.pending_route, av.pending_route)
          << "vc " << l << "/" << v << " cycle " << at;
    }
  }
  // Every network link carried the same number of flits so far.
  ASSERT_NE(ds.spatial(), nullptr);
  ASSERT_NE(as.spatial(), nullptr);
  for (LinkId l = 0; l < d.num_net_links(); ++l) {
    ASSERT_EQ(ds.spatial()->link_flits(l), as.spatial()->link_flits(l))
        << "link " << l << " cycle " << at;
  }
  // The wire: the same flits toward the same VCs, due in the same
  // cycles, in the same order.
  ASSERT_EQ(d.wire_flits(), a.wire_flits()) << "cycle " << at;
  for (unsigned b = 0; b < d.wire_buckets(); ++b) {
    const auto db = d.wire_bucket(b), ab = a.wire_bucket(b);
    ASSERT_TRUE(std::equal(db.begin(), db.end(), ab.begin(), ab.end()))
        << "wire bucket " << b << " cycle " << at;
  }
  ASSERT_EQ(d.flits_in_network(), a.flits_in_network()) << "cycle " << at;
}

TEST_P(LockStep, ChannelStateAgreesEveryCycle) {
  const unsigned k = 4, n = 2;
  const topo::KAryNCube topo(k, n);
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    cfg.limiter.kind = GetParam();
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.1;  // well past saturation
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 777);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto dense = make(SimCore::Dense);
  auto active = make(SimCore::Active);
  const LinkCounters counters(*dense, *active);

  for (int block = 0; block < 300; ++block) {
    for (int i = 0; i < 10; ++i) {
      dense->step();
      active->step();
    }
    const Cycle at = dense->cycle();
    ASSERT_EQ(at, active->cycle());
    expect_networks_equal(*dense, *active, at);
    ASSERT_EQ(dense->total_delivered(), active->total_delivered());
    ASSERT_EQ(dense->messages_in_flight(), active->messages_in_flight());
    ASSERT_EQ(dense->source_queue_total(), active->source_queue_total());
    ASSERT_EQ(dense->recovery_pending(), active->recovery_pending());
    ASSERT_EQ(dense->total_deadlock_detections(),
              active->total_deadlock_detections());
    for (NodeId node = 0; node < topo.num_nodes(); ++node) {
      ASSERT_EQ(dense->source_queue_len(node), active->source_queue_len(node))
          << "node " << node << " cycle " << at;
      ASSERT_EQ(dense->collector().fairness().at(node),
                active->collector().fairness().at(node))
          << "node " << node << " cycle " << at;
    }
    std::string why;
    ASSERT_TRUE(active->check_active_sets(&why)) << why;
    ASSERT_TRUE(active->check_conservation(&why)) << why;
    ASSERT_TRUE(dense->check_active_sets(&why)) << why;
    ASSERT_TRUE(dense->check_conservation(&why)) << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Limiters, LockStep,
                         ::testing::Values(core::LimiterKind::None,
                                           core::LimiterKind::ALO,
                                           core::LimiterKind::LF,
                                           core::LimiterKind::DRIL),
                         [](const auto& param_info) {
                           return std::string(
                               core::limiter_name(param_info.param));
                         });

/// The fault subsystem at rest must be invisible: a sweep whose base
/// config carries an empty schedule (no FaultManager at all) and one
/// whose schedule only fires beyond the run horizon (manager wired in,
/// per-cycle due() gate armed, routing LUT forced on both cores) must
/// both emit the byte-identical CSV of the plain no-fault sweep, on
/// either core and for any --jobs count.
TEST(CoreEquivalence, FaultNoopKeepsSweepCsvByteIdentical) {
  harness::SweepSpec spec;
  spec.base = equivalence_base();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = {0.1, 1.0};
  spec.jobs = 1;

  spec.base.sim.core = SimCore::Dense;
  std::ostringstream reference;
  harness::write_sweep_csv(reference, harness::run_sweep(spec));

  const fault::FaultSchedule beyond_horizon(
      {{std::uint64_t{1} << 40, fault::FaultKind::LinkKill, 0, 0}});
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    for (const unsigned jobs : {1u, 2u}) {
      SCOPED_TRACE(std::string(sim_core_name(core)) + " jobs=" +
                   std::to_string(jobs));
      spec.base.sim.core = core;
      spec.jobs = jobs;
      spec.base.sim.faults = fault::FaultSchedule{};
      std::ostringstream empty_csv;
      harness::write_sweep_csv(empty_csv, harness::run_sweep(spec));
      EXPECT_EQ(reference.str(), empty_csv.str());

      spec.base.sim.faults = beyond_horizon;
      std::ostringstream armed_csv;
      harness::write_sweep_csv(armed_csv, harness::run_sweep(spec));
      EXPECT_EQ(reference.str(), armed_csv.str());
    }
  }
}

/// Lock-step equivalence through live fault surgery: both cores take
/// the same kills and restores mid-traffic and must agree on complete
/// channel-level state, the lost-message count and the rebuild count at
/// every comparison point. Parametrized over the flow-control schemes
/// so fault teardown is exercised against credit bookkeeping and VCT
/// admission too.
class FaultLockStep : public ::testing::TestWithParam<FlowControl> {};

TEST_P(FaultLockStep, AgreesThroughFaultTransients) {
  const topo::KAryNCube topo(4, 2);
  const fault::FaultSchedule schedule({
      {400, fault::FaultKind::LinkKill, 5, 1},
      {700, fault::FaultKind::NodeKill, 10, 0},
      {1400, fault::FaultKind::LinkRestore, 5, 1},
      {1800, fault::FaultKind::NodeRestore, 10, 0},
  });
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    cfg.limiter.kind = core::LimiterKind::ALO;
    cfg.flow.scheme = GetParam();
    if (GetParam() == FlowControl::Vct) {
      cfg.net.buf_flits = 16;  // admission needs message-deep buffers
    }
    cfg.faults = schedule;
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.1;  // well past saturation
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 777);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto dense = make(SimCore::Dense);
  auto active = make(SimCore::Active);
  const LinkCounters counters(*dense, *active);

  for (int block = 0; block < 250; ++block) {
    for (int i = 0; i < 10; ++i) {
      dense->step();
      active->step();
    }
    const Cycle at = dense->cycle();
    ASSERT_EQ(at, active->cycle());
    expect_networks_equal(*dense, *active, at);
    ASSERT_EQ(dense->total_delivered(), active->total_delivered());
    ASSERT_EQ(dense->total_lost(), active->total_lost());
    ASSERT_EQ(dense->messages_in_flight(), active->messages_in_flight());
    ASSERT_EQ(dense->source_queue_total(), active->source_queue_total());
    ASSERT_EQ(dense->recovery_pending(), active->recovery_pending());
    ASSERT_EQ(dense->fault_events_applied(), active->fault_events_applied());
    ASSERT_EQ(dense->lut_rebuilds(), active->lut_rebuilds());
    ASSERT_TRUE(testing::check_all_invariants(*dense));
    ASSERT_TRUE(testing::check_all_invariants(*active));
  }
  EXPECT_EQ(dense->fault_events_applied(), 4u);
  EXPECT_EQ(dense->lut_rebuilds(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, FaultLockStep,
                         ::testing::Values(FlowControl::Wormhole,
                                           FlowControl::Credit,
                                           FlowControl::Vct),
                         [](const auto& param_info) {
                           return std::string(
                               flow_control_name(param_info.param));
                         });

/// A mid-run offered-load change (the epoch path): dense re-polls
/// naturally, the active core must tear down stale generation
/// subscriptions. End state has to agree exactly.
TEST(CoreEquivalence, LoadChangeMidRunStaysIdentical) {
  const topo::KAryNCube topo(4, 2);
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 0.05;  // sparse: hints skip a lot
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 4242);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto dense = make(SimCore::Dense);
  auto active = make(SimCore::Active);
  const LinkCounters counters(*dense, *active);
  const auto lockstep = [&](Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      dense->step();
      active->step();
    }
  };
  lockstep(1500);
  dense->workload()->set_offered_load(0.8);
  active->workload()->set_offered_load(0.8);
  lockstep(1500);
  dense->workload()->set_offered_load(0.0);
  active->workload()->set_offered_load(0.0);
  lockstep(3000);
  expect_networks_equal(*dense, *active, dense->cycle());
  EXPECT_EQ(dense->total_delivered(), active->total_delivered());
  EXPECT_EQ(dense->source_queue_total(), active->source_queue_total());
  EXPECT_EQ(dense->collector().measured_generated(),
            active->collector().measured_generated());
}

/// Same matrix point under the bursty ON/OFF process, whose poll hints
/// are phase-bounded — a distinct skip-logic path from the plain
/// exponential process.
TEST(CoreEquivalence, BurstyProcessStaysIdentical) {
  config::SimConfig base = equivalence_base();
  base.workload.process = traffic::ProcessKind::Bursty;
  base.workload.offered_flits_per_node_cycle = 0.3;
  base.sim.core = SimCore::Dense;
  const auto d = config::run_experiment(base);
  base.sim.core = SimCore::Active;
  const auto a = config::run_experiment(base);
  expect_results_identical(d, a, "bursty");
}

/// Bernoulli polls every cycle by contract (its hint is always now+1),
/// so the active core must not skip any of its RNG draws.
TEST(CoreEquivalence, BernoulliProcessStaysIdentical) {
  config::SimConfig base = equivalence_base();
  base.workload.process = traffic::ProcessKind::Bernoulli;
  base.workload.offered_flits_per_node_cycle = 0.4;
  base.sim.core = SimCore::Dense;
  const auto d = config::run_experiment(base);
  base.sim.core = SimCore::Active;
  const auto a = config::run_experiment(base);
  expect_results_identical(d, a, "bernoulli");
}

}  // namespace
}  // namespace wormsim::sim
