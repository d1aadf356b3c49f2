// Machine-readable run telemetry for sweep harnesses.
//
// `write_sweep_telemetry` emits one schema-versioned JSON line per
// sweep point (config echo, the full SimResult, engine performance
// counters, tracer drop counts) plus a trailing summary record, so a
// whole bench run can be joined, diffed and plotted without parsing
// banners. Records are written in point-index order after the sweep
// finishes, which makes the file deterministic for a fixed seed — for
// any --jobs count — modulo the wall-clock fields, which are isolated
// under the "perf" key so consumers (and the determinism test) can
// strip them wholesale.
//
// `write_sweep_timeseries` emits the companion `wormsim.timeseries/1`
// stream: one "window" record per (point, recording window) from the
// per-point OnlineStats, plus a trailing summary. Every field is an
// integer derived from simulation state, so the file is byte-identical
// for a fixed seed at any --jobs count. docs/TELEMETRY.md documents
// both schemas field by field.
//
// `ObsSession` bundles the observability command-line surface shared
// by every bench/example:
//   --metrics-out FILE     JSONL telemetry (one record per point)
//   --timeseries-out FILE  wormsim.timeseries/1 JSONL (windowed series)
//   --online-window N      recording-window width in cycles (default 256)
//   --profile [N]          per-phase cycle-loop profiler, sampling every
//                          N cycles (default 64); reported under "perf"
//   --trace FILE           Chrome trace-event JSON (Perfetto-loadable)
//   --trace-capacity N     per-thread tracer ring capacity (default 64k)
//   --spatial-out PREFIX   after the sweep, run one instrumented
//                          simulation and write PREFIX_channels.csv,
//                          PREFIX_nodes.csv, PREFIX_vc_occupancy.csv
//   --spatial-load X       offered load for that run (default 1.2)
//   --spatial-limiter M    mechanism for that run (default none)
//
// Telemetry (--metrics-out) or timeseries (--timeseries-out) enable the
// per-point online statistics: point records gain "latency_hist" (the
// streaming log-bucketed histogram) and "saturation" (the onset
// detector's verdict), and the summary gains per-mechanism
// "saturation_load" — the smallest offered load the detector flagged.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "metrics/spatial.hpp"

namespace wormsim::harness {

inline constexpr std::string_view kTelemetrySchema = "wormsim.telemetry/4";
inline constexpr std::string_view kTimeseriesSchema = "wormsim.timeseries/1";

/// One "point" JSONL record per sweep point (index order), then one
/// "summary" record. `stats` and `spec.tracer` may be null; their
/// sections are omitted accordingly. Points carrying OnlineStats gain
/// "latency_hist"/"saturation" sections (emitted before "perf": they
/// are deterministic, "perf" is the volatile tail).
void write_sweep_telemetry(std::ostream& out, const SweepSpec& spec,
                           const std::vector<SweepPoint>& points,
                           const metrics::SweepStats* stats);

/// One `wormsim.timeseries/1` "window" JSONL record per recording
/// window of every point carrying OnlineStats, then one "summary"
/// record. Deterministic for a fixed seed at any --jobs count.
void write_sweep_timeseries(std::ostream& out, const SweepSpec& spec,
                            const std::vector<SweepPoint>& points);

/// Run one instrumented simulation of `base` (limiter/load overridden)
/// and write the spatial CSV tables to `<prefix>_channels.csv`,
/// `<prefix>_nodes.csv` and `<prefix>_vc_occupancy.csv`.
void capture_spatial(const config::SimConfig& base, core::LimiterKind limiter,
                     double offered, const std::string& prefix);

/// Per-binary observability session: parses the flags above, owns the
/// tracer, and writes every requested output after the sweep.
class ObsSession {
 public:
  explicit ObsSession(const util::ArgParser& args);
  ~ObsSession();

  /// Attach the tracer (if tracing or telemetry was requested) and
  /// enable per-point online statistics (if telemetry or timeseries
  /// output was requested) on the sweep about to run.
  void attach(SweepSpec& spec);

  /// Write telemetry/trace/spatial outputs. Call once, after the sweep.
  void finish(const SweepSpec& spec, const std::vector<SweepPoint>& points,
              const metrics::SweepStats* stats);

  obs::Tracer* tracer() noexcept { return tracer_.get(); }

 private:
  std::string metrics_path_;
  std::string timeseries_path_;
  std::string trace_path_;
  std::string spatial_prefix_;
  core::LimiterKind spatial_limiter_ = core::LimiterKind::None;
  double spatial_load_;
  std::uint64_t online_window_;
  std::uint64_t profile_period_;
  std::unique_ptr<obs::Tracer> tracer_;
};

}  // namespace wormsim::harness
