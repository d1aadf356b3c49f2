// Offered-load sweep harness shared by the figure benches and examples.
//
// A sweep runs one simulation per (limiter, offered-load) point and
// prints CSV rows compatible with the paper's figures: latency and
// accepted traffic versus offered traffic, per mechanism.
//
// Parallel execution: points are fully independent, so the engine runs
// them with util::parallel_for (`jobs` threads, each running a
// round-robin share of the points and then any point not yet started;
// 0 = WORMSIM_JOBS env or hardware concurrency, 1 = the serial code path
// with no thread at all). Every point derives its own RNG stream from
// the base seed by index (util::derive_stream_seed), and results land in
// pre-sized slots indexed by point, so CSV output is bit-identical
// regardless of thread count or scheduling order.
//
// Scale control: `apply_scale_env` honours WORMSIM_FAST=1 (shrink to the
// 64-node small preset and shorten the windows) so the full bench suite
// stays runnable on modest machines; the committed outputs record which
// mode produced them.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "config/presets.hpp"
#include "metrics/collector.hpp"
#include "metrics/online/online_stats.hpp"
#include "metrics/sweep_stats.hpp"
#include "obs/tracer.hpp"
#include "util/cli.hpp"

namespace wormsim::harness {

struct SweepPoint {
  core::LimiterKind limiter;
  double offered;
  metrics::SimResult result;
  /// Per-point streaming statistics (latency histogram, windowed time
  /// series, saturation verdict); null unless SweepSpec::online was set.
  std::shared_ptr<metrics::OnlineStats> online;
  /// Per-point event ring; null unless SweepSpec::trace_capacity was set.
  std::shared_ptr<obs::Tracer> trace;
};

struct SweepSpec {
  config::SimConfig base;
  std::vector<core::LimiterKind> limiters;
  std::vector<double> offered_loads;
  /// Called after each point finishes (progress reporting); may be
  /// empty. Invocations are serialized behind a mutex, so the callback
  /// needs no locking of its own — but under `jobs > 1` points complete
  /// in an arbitrary order, so it must not assume sweep order.
  std::function<void(const SweepPoint&)> on_point;
  /// Threads that run the points (at most one per point): 0 =
  /// WORMSIM_JOBS env override or hardware concurrency; 1 = serial path
  /// on the calling thread (no thread at all).
  unsigned jobs = 0;
  /// Optional out-param: wall-clock/throughput counters for this sweep.
  metrics::SweepStats* stats = nullptr;
  /// Events each point's own obs::Tracer keeps (newest win); 0 = no
  /// tracing. Results land in SweepPoint::trace. Purely observational:
  /// results are unchanged, and each ring depends only on its point.
  std::size_t trace_capacity = 0;
  /// Emit a "[done/total] mechanism @ load ... eta" line on stderr
  /// after every point (obs::logf at Info level).
  bool progress = false;
  /// Attach a per-point metrics::OnlineStats (streaming histograms,
  /// windowed time series, saturation detector) configured by
  /// `online_config`. Results land in SweepPoint::online. All recorded
  /// quantities are integers derived from simulation state, so
  /// telemetry built from them is byte-identical at any `jobs`.
  bool online = false;
  metrics::OnlineConfig online_config{};
};

/// Run every (limiter, load) combination; each point uses a fresh
/// simulator seeded deterministically from the base seed (stream split
/// by point index — thread-count independent).
std::vector<SweepPoint> run_sweep(const SweepSpec& spec);

/// "<mechanism> @ <load>", the name a point goes by in progress lines
/// and traces.
std::string point_label(core::LimiterKind limiter, double offered);

/// Emit the standard figure CSV:
/// mechanism,offered,latency_avg,latency_sd,accepted,deadlock_pct,...
void write_sweep_csv(std::ostream& out, const std::vector<SweepPoint>& points);

/// Evenly spaced loads in [lo, hi].
std::vector<double> load_range(double lo, double hi, unsigned points);

/// Apply command-line overrides (--k, --n, --vcs, --msg-len, --pattern,
/// --warmup, --measure, --seed, ...) and the WORMSIM_FAST environment
/// switch to a base config. Used by every bench binary so they share
/// flags.
void apply_common_flags(config::SimConfig& cfg, const util::ArgParser& args);
void apply_scale_env(config::SimConfig& cfg);

/// Materialize a `--faults <spec>` flag into cfg.sim.faults, where
/// <spec> is either a schedule file path or a `transient:...` preset
/// (see fault/schedule.hpp). Must run AFTER apply_common_flags and
/// apply_scale_env: presets pick random links from the *final*
/// topology, and WORMSIM_FAST=1 shrinks `n`. No-op without the flag.
void apply_fault_flag(config::SimConfig& cfg, const util::ArgParser& args);

/// Read the `--jobs N` flag for SweepSpec::jobs (0 = auto: WORMSIM_JOBS
/// env override or hardware concurrency). Shared by every bench/example
/// so the knob is spelled the same everywhere.
unsigned jobs_flag(const util::ArgParser& args);

/// Human banner describing a config (topology, router, workload).
std::string describe(const config::SimConfig& cfg);

}  // namespace wormsim::harness
