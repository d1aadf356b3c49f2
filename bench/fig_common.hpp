// Shared scaffolding for the per-figure bench binaries.
//
// Every figure bench reproduces one figure of the paper at full scale
// (8-ary 3-cube, 512 nodes) by default. Environment/flags:
//   WORMSIM_FAST=1        shrink to the 64-node preset (CI-sized)
//   WORMSIM_JOBS=N        default sweep parallelism (--jobs overrides)
//   --jobs N              worker threads (0 = auto, 1 = serial engine)
//   --loads N             number of offered-load points (default 7)
//   --min-load/--max-load sweep range in flits/node/cycle
//   --warmup/--measure/--drain, --k/--n/--vcs/--msg-len/--pattern/--seed
//   --core dense|active   cycle-loop implementation (default: active;
//                         results are bit-identical, only speed differs)
//   --flow-control SCHEME wormhole (default) | credit | vct; credit adds
//                         --credit-delay N return-latency cycles, vct
//                         needs --buf >= the longest message

//   --faults SPEC         fault schedule: a file path or a preset like
//                         transient:2@5000+2000 (kill 2 random links at
//                         cycle 5000, restore them 2000 cycles later)
//   --log-level LEVEL     stderr verbosity (error|warn|info|debug);
//                         WORMSIM_LOG sets the default
//   --metrics-out FILE    JSONL telemetry, one record per sweep point
//                         (with latency histogram + saturation-onset
//                         verdicts from the online statistics engine)
//   --timeseries-out FILE wormsim.timeseries/1 JSONL: one record per
//                         recording window of every sweep point
//   --online-window N     online recording-window width in cycles
//                         (default 256)
//   --profile [N]         per-phase cycle-loop self-profiler, timing
//                         every N-th cycle (bare flag: 64); results are
//                         wall-clock and live under telemetry "perf"
//   --trace FILE          Chrome trace-event JSON (open in Perfetto)
//   --spatial-out PREFIX  per-channel/per-node heatmap CSVs from one
//                         extra instrumented run (--spatial-load,
//                         --spatial-limiter select the point)
// Any other flag is rejected by name (exit 1) before anything runs.
//
// Output: a banner line, the expectation note from the paper, then CSV
// on stdout; per-point progress/ETA and the sweep's wall-clock/points-
// per-second summary on stderr. CSV contents are identical for every
// job count (per-point seed streams are split from the base seed by
// index) and unchanged by any of the observability flags.
#pragma once

#include <exception>
#include <iostream>
#include <string>

#include "harness/sweep.hpp"
#include "harness/telemetry.hpp"
#include "obs/log.hpp"
#include "util/cli.hpp"

namespace wormsim::bench {

struct FigureSpec {
  const char* figure;       // e.g. "Figure 5"
  const char* expectation;  // the paper's qualitative claim
  traffic::PatternKind pattern = traffic::PatternKind::Uniform;
  std::uint32_t msg_len = 16;
  std::vector<core::LimiterKind> limiters = {
      core::LimiterKind::None, core::LimiterKind::ALO, core::LimiterKind::LF,
      core::LimiterKind::DRIL};
  double min_load = 0.1;
  double max_load = 1.2;
  unsigned loads = 7;
};

inline config::SimConfig figure_base(const FigureSpec& spec,
                                     const util::ArgParser& args) {
  config::SimConfig cfg = config::paper_base();
  // Bench-sized windows: long enough for ~100k messages per point at
  // 512 nodes, short enough to sweep dozens of points.
  cfg.protocol.warmup = 3000;
  cfg.protocol.measure = 8000;
  cfg.protocol.drain_max = 8000;
  cfg.workload.pattern = spec.pattern;
  cfg.workload.length.fixed = spec.msg_len;
  harness::apply_common_flags(cfg, args);
  harness::apply_scale_env(cfg);
  // After scale env on purpose: WORMSIM_FAST shrinks the topology, and
  // fault presets pick links from the final one.
  harness::apply_fault_flag(cfg, args);
  return cfg;
}

/// Standard latency/throughput/deadlock sweep figure.
inline int run_figure(const FigureSpec& spec, int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    config::SimConfig cfg = figure_base(spec, args);
    harness::SweepSpec sweep;
    sweep.base = cfg;
    sweep.limiters = spec.limiters;
    sweep.offered_loads = harness::load_range(
        args.get_double("min-load", spec.min_load),
        args.get_double("max-load", spec.max_load),
        static_cast<unsigned>(args.get_uint("loads", spec.loads)));
    sweep.jobs = harness::jobs_flag(args);
    metrics::SweepStats stats;
    sweep.stats = &stats;
    sweep.progress = true;
    harness::ObsSession session(args);
    args.reject_unknown();
    session.attach(sweep);

    std::cout << "# " << spec.figure << " — "
              << traffic::pattern_name(spec.pattern) << " traffic, "
              << spec.msg_len << "-flit messages\n";
    std::cout << "# paper expectation: " << spec.expectation << "\n";
    std::cout << harness::describe(cfg) << "\n";
    const auto points = harness::run_sweep(sweep);
    harness::write_sweep_csv(std::cout, points);
    obs::logf(obs::LogLevel::Info, "# %s\n", stats.summary().c_str());
    session.finish(sweep, points, &stats);
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace wormsim::bench
