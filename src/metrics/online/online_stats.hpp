// Streaming per-run statistics: latency histogram, fixed-cycle-window
// time series, saturation-onset detection, and (optionally) a per-phase
// cycle-loop profiler.
//
// The simulator drives this through branch-on-null hooks exactly like
// the tracer/spatial observers from the observability layer: when no
// OnlineStats is attached nothing is computed, and attaching one never
// changes simulation results (CSV stays byte-identical). Window counts
// are not fed event by event: each is the difference of two cumulative
// samples of the simulator's ledger, taken at the window's ends. All
// recorded quantities are integers derived from simulation state, so
// sweep telemetry remains byte-identical at any --jobs count; only the
// profiler (quarantined under telemetry "perf") is wall-clock.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "metrics/online/log_histogram.hpp"
#include "metrics/online/profiler.hpp"

namespace wormsim::metrics {

using Cycle = std::uint64_t;

struct OnlineConfig {
  /// Width of each recording window in cycles.
  std::uint64_t window_cycles = 256;
  /// Window counts as throughput-deficient when accepted flits fall
  /// below this fraction of offered flits.
  double deficit_ratio = 0.9;
  /// Window counts as latency-blown-up when its p99 exceeds this
  /// multiple of the baseline (running minimum) window p99.
  double latency_blowup = 3.0;
  /// Window counts as occupancy-starved when the free fraction of
  /// virtual channels (from the limiter's status registers) drops
  /// below this floor. 0.12 splits the empirical bands on the fig05
  /// reference: an unlimited network pins free-VC occupancy near 0.07
  /// past the knee, while ALO/LF/DRIL hold 0.16–0.26 by construction
  /// (that is the paper's mechanism working). Occupancy is what
  /// separates network saturation from mere source-side overload.
  double free_vc_floor = 0.12;
  /// Consecutive saturating windows required before latching onset.
  unsigned onset_windows = 3;
  /// Initial windows ignored by the detector (pipeline fill).
  unsigned settle_windows = 2;
  /// Cycle period for the phase profiler; 0 disables profiling.
  std::uint64_t profile_period = 0;
};

/// Network state snapshotted by the simulator when a window closes: the
/// instantaneous occupancy, and event counts cumulative since simulator
/// start. A window's counts are the differences between its closing
/// sample and the previous one.
struct WindowSample {
  std::uint64_t in_flight_flits = 0;  ///< flits currently in the network
  std::uint64_t blocked_headers = 0;  ///< messages waiting on a route
  std::uint64_t free_vcs = 0;         ///< free VCs per the status registers
  std::uint64_t total_vcs = 0;        ///< total VCs in the network
  std::uint64_t queue_total = 0;      ///< pending messages in source queues
  std::uint64_t offered_flits = 0;    ///< cumulative flits generated
  std::uint64_t accepted_flits = 0;   ///< cumulative flits ejected
  std::uint64_t injected = 0;         ///< cumulative source injections
  std::uint64_t delivered = 0;        ///< cumulative deliveries
  std::uint64_t deadlocks = 0;        ///< cumulative deadlock detections
  std::uint64_t credit_messages = 0;  ///< cumulative credit messages
};

/// One closed recording window.
struct Window {
  std::uint64_t start_cycle = 0;
  std::uint64_t cycles = 0;
  std::uint64_t offered_flits = 0;   ///< flits generated by sources
  std::uint64_t accepted_flits = 0;  ///< flits ejected at destinations
  std::uint64_t injected = 0;        ///< messages entering the network
  std::uint64_t delivered = 0;       ///< messages fully delivered
  std::uint64_t deadlocks = 0;       ///< deadlock recoveries triggered
  std::uint64_t credit_messages = 0; ///< credit msgs sent in this window
  WindowSample end{};                ///< snapshot at window close
  std::uint64_t latency_count = 0;   ///< deliveries contributing to p99
  std::uint64_t latency_p99 = 0;     ///< p99 latency of this window
  bool saturating = false;           ///< detector verdict for this window

  double free_vc_fraction() const noexcept {
    return end.total_vcs == 0
               ? 1.0
               : static_cast<double>(end.free_vcs) /
                     static_cast<double>(end.total_vcs);
  }
};

class OnlineStats {
 public:
  explicit OnlineStats(std::uint32_t num_nodes, const OnlineConfig& cfg = {});

  // --- hot-path hook (called only when attached) ------------------------
  void on_delivered(Cycle latency, bool measured) {
    window_hist_.add(latency);
    if (measured) latency_hist_.add(latency);
  }

  /// Start the current window at cycle `t`, with `baseline` as the
  /// cumulative counts it is measured from (the attach point).
  void start_window(Cycle t, const WindowSample& baseline) noexcept {
    cur_start_ = t;
    last_ = baseline;
  }
  /// True when cycle t is the last cycle of the current window.
  bool window_closes(Cycle t) const noexcept {
    return (t + 1) % cfg_.window_cycles == 0;
  }
  /// Close the current window with the given end-of-window snapshot.
  void close_window(Cycle t, const WindowSample& sample);

  bool profile_enabled() const noexcept { return cfg_.profile_period != 0; }
  bool profile_due(Cycle t) const noexcept {
    return profile_enabled() && t % cfg_.profile_period == 0;
  }
  PhaseProfiler& profiler() noexcept { return profiler_; }
  const PhaseProfiler& profiler() const noexcept { return profiler_; }

  /// Flush a final partial window (if any cycles elapsed since the last
  /// close). Safe to call once at end of run.
  void finish(Cycle now, const WindowSample& sample);

  // --- results ----------------------------------------------------------
  const LogHistogram& latency_hist() const noexcept { return latency_hist_; }
  const std::vector<Window>& windows() const noexcept { return windows_; }
  bool saturated() const noexcept { return saturated_; }
  /// Start cycle of the first window of the onset run (when saturated).
  std::optional<Cycle> onset_cycle() const noexcept { return onset_cycle_; }
  const OnlineConfig& config() const noexcept { return cfg_; }
  std::uint32_t num_nodes() const noexcept { return num_nodes_; }

 private:
  void detect(Window& w);

  OnlineConfig cfg_;
  std::uint32_t num_nodes_ = 0;

  LogHistogram latency_hist_;  ///< measured-phase deliveries, whole run
  LogHistogram window_hist_;   ///< all deliveries, reset every window

  Window cur_{};
  Cycle cur_start_ = 0;
  WindowSample last_{};  ///< the sample the current window counts from
  std::vector<Window> windows_;

  // detector state
  std::uint64_t baseline_p99_ = 0;   ///< running min window p99 (healthy)
  std::uint64_t peak_accepted_ = 0;  ///< running max accepted flits/window
  unsigned consecutive_ = 0;
  bool saturated_ = false;
  std::optional<Cycle> onset_cycle_;

  PhaseProfiler profiler_;
  bool finished_ = false;
};

}  // namespace wormsim::metrics
