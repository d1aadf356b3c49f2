// Measurement collection and the per-run result record.
//
// Paper metric definitions (§4): latency = cycles from generation to
// delivery, including source-queue time; traffic = flit reception rate
// in flits/node/cycle; detected deadlocks = messages detected as
// deadlocked over total messages sent (injected).
#pragma once

#include <cstdint>
#include <string>

#include "util/stats.hpp"

namespace wormsim::metrics {

using Cycle = std::uint64_t;
using NodeId = std::uint32_t;

/// ALO routing-occurrence statistics (the paper's Figure 2): fraction of
/// routing operations where (a) every useful physical channel had a free
/// VC, (b) some useful physical channel was completely free.
struct ProbeStats {
  std::uint64_t samples = 0;
  std::uint64_t rule_a = 0;
  std::uint64_t rule_b = 0;
  std::uint64_t either = 0;

  double pct_a() const noexcept {
    return samples ? 100.0 * static_cast<double>(rule_a) / static_cast<double>(samples) : 0.0;
  }
  double pct_b() const noexcept {
    return samples ? 100.0 * static_cast<double>(rule_b) / static_cast<double>(samples) : 0.0;
  }
  double pct_either() const noexcept {
    return samples ? 100.0 * static_cast<double>(either) / static_cast<double>(samples) : 0.0;
  }
};

/// Everything one simulation run reports.
struct SimResult {
  // Configuration echo
  double offered_flits_per_node_cycle = 0.0;
  std::string pattern;
  std::string limiter;
  std::uint32_t message_length = 0;

  // Latency (measured messages: generated inside the window and
  // delivered before the run ended)
  double latency_mean = 0.0;
  double latency_stddev = 0.0;
  double latency_min = 0.0;
  double latency_max = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;

  // Throughput
  double accepted_flits_per_node_cycle = 0.0;

  // Deadlocks (during the measurement window)
  std::uint64_t deadlock_detections = 0;
  std::uint64_t messages_injected_window = 0;
  double deadlock_pct = 0.0;  // detections / injected, in percent

  // Volume
  std::uint64_t messages_generated = 0;
  std::uint64_t messages_injected = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t measured_delivered = 0;
  std::uint64_t measured_generated = 0;
  std::uint64_t messages_lost = 0;  // dropped by fault reconfiguration

  // Source queues
  double avg_queue_len = 0.0;
  std::uint64_t max_queue_len = 0;

  // Probe (Figure 2)
  ProbeStats probe;

  // Run bookkeeping
  Cycle warmup_cycles = 0;
  Cycle measure_cycles = 0;
  Cycle total_cycles = 0;
  bool fully_drained = false;  // every measured message was delivered
  bool saturated = false;      // source queues grew without bound
  double wall_seconds = 0.0;

  // Simulation-core diagnostics (excluded from sweep CSVs so result
  // files stay byte-identical across cores; see write_sweep_csv).
  std::string core;               // "dense" | "active"
  double cycles_per_second = 0.0; // simulated cycles per wall second
  double scan_skip_ratio = 0.0;   // fraction of dense scan slots skipped
  double avg_active_links = 0.0;  // mean occupied network links / cycle
  double avg_active_nodes = 0.0;  // mean active-set nodes / cycle (active core)
  double route_memo_hit_rate = 0.0;  // blocked-header re-routes avoided

  // Fault injection (all zero on healthy runs; also excluded from sweep
  // CSVs, which never carry fault columns)
  std::uint64_t fault_events = 0;  // schedule events applied so far
  std::uint64_t lut_rebuilds = 0;  // routing-table reconfigurations
};

/// Streaming collector the simulator feeds; produces a SimResult.
class Collector {
 public:
  Collector(NodeId num_nodes, Cycle window_start, Cycle window_end);

  bool in_window(Cycle t) const noexcept {
    return t >= window_start_ && t < window_end_;
  }

  void on_generated(Cycle t) noexcept {
    ++generated_;
    if (in_window(t)) ++measured_generated_;
  }
  void on_injected(NodeId node, Cycle t, bool counts_fairness) noexcept {
    ++injected_;
    if (in_window(t)) {
      ++injected_window_;
      if (counts_fairness) fairness_.increment(node);
    }
  }
  void on_delivered(Cycle gen_time, Cycle now, bool measured) noexcept {
    ++delivered_;
    if (measured) {
      ++measured_delivered_;
      const auto lat = static_cast<double>(now - gen_time);
      latency_.add(lat);
      latency_hist_.add(lat);
    }
  }
  void on_flits_ejected(Cycle t, std::uint32_t count) noexcept {
    if (in_window(t)) flits_ejected_window_ += count;
  }
  void on_deadlock(Cycle t) noexcept {
    if (in_window(t)) ++deadlocks_window_;
  }
  void on_probe(Cycle t, bool rule_a, bool rule_b) noexcept {
    if (!in_window(t)) return;
    ++probe_.samples;
    probe_.rule_a += rule_a;
    probe_.rule_b += rule_b;
    probe_.either += (rule_a || rule_b);
  }
  void on_queue_sample(std::size_t len) noexcept {
    queue_len_.add(static_cast<double>(len));
  }
  /// A message that will never be delivered: its destination died or
  /// became unreachable (fault reconfiguration).
  void on_lost(bool measured) noexcept {
    ++lost_;
    if (measured) ++measured_lost_;
  }

  std::uint64_t measured_generated() const noexcept {
    return measured_generated_;
  }
  std::uint64_t measured_delivered() const noexcept {
    return measured_delivered_;
  }
  std::uint64_t measured_lost() const noexcept { return measured_lost_; }
  const util::FairnessCounters& fairness() const noexcept { return fairness_; }

  /// Finalize into a SimResult (the caller fills the config echo and
  /// run-bookkeeping fields it owns).
  SimResult finish(NodeId num_nodes) const;

 private:
  Cycle window_start_;
  Cycle window_end_;

  util::RunningStats latency_;
  util::Histogram latency_hist_{1.0, 1u << 20};
  util::RunningStats queue_len_;
  util::FairnessCounters fairness_;
  ProbeStats probe_;

  std::uint64_t generated_ = 0;
  std::uint64_t measured_generated_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t injected_window_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t measured_delivered_ = 0;
  std::uint64_t flits_ejected_window_ = 0;
  std::uint64_t deadlocks_window_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t measured_lost_ = 0;
};

}  // namespace wormsim::metrics
