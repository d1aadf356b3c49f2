// Degraded-operation bench: kill links mid-measurement at saturation
// load and watch whether the injection limiters hold the network out of
// saturation through the reconfiguration transient (ISSUE 6 headline
// experiment).
//
// Default mode runs a None/ALO sweep at one offered load with a fault
// schedule folded into every point (2 random links die halfway through
// the measurement window unless --faults overrides the schedule) and
// prints the standard sweep CSV plus per-mechanism transient summaries;
// the usual observability flags (--metrics-out/--trace/--spatial-out)
// apply, so the run can drop JSONL telemetry and spatial heatmap CSVs
// of the degraded network.
//
// `--json [path]` runs the gated acceptance mode at the FAST operating
// point (8-ary 2-cube) and emits a JSON record with an embedded
// criteria block for tools/check_bench.py:
//   recovery_cycles_max          ALO throughput must return to >= 80%
//                                of its pre-fault mean within this many
//                                cycles of the kill
//   post_rebuild_cps_ratio_min   simulation throughput on the degraded
//                                network (2 dead links, rebuilt LUT)
//                                must stay within this fraction of the
//                                healthy network's cycles/s
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>

#include "fault/schedule.hpp"
#include "fig_common.hpp"
#include "util/stats.hpp"

namespace wormsim::bench {
namespace {

/// Recording-window width for the transient analysis; coarse enough
/// that per-window accepted traffic is not shot noise, fine enough to
/// bound the recovery time usefully.
constexpr std::uint64_t kWindowCycles = 250;

struct TransientMetrics {
  double pre_accepted = 0.0;   // mean accepted traffic before the kill
  double post_accepted = 0.0;  // mean accepted traffic after recovery
  std::uint64_t recovery_cycles = 0;
  bool recovered = false;
};

/// One instrumented run of `cfg` (which carries a fault schedule whose
/// first event is the kill): per-window accepted traffic before the
/// kill versus after, and the first window boundary at which
/// throughput is back above 80% of the pre-fault mean. Windows that do
/// not end inside the measurement window are skipped.
TransientMetrics measure_transient(const config::SimConfig& cfg) {
  const std::uint64_t kill_cycle = cfg.sim.faults.events().front().cycle;
  auto simulator = config::build_simulator(cfg);
  metrics::OnlineConfig online_cfg;
  online_cfg.window_cycles = kWindowCycles;
  metrics::OnlineStats online(simulator->topology().num_nodes(), online_cfg);
  simulator->set_online(&online);
  simulator->run(cfg.protocol);
  const double nodes = simulator->topology().num_nodes();
  const std::uint64_t window_end = cfg.protocol.warmup + cfg.protocol.measure;
  const auto accepted = [&](const metrics::Window& w) {
    return static_cast<double>(w.accepted_flits) /
           (static_cast<double>(w.cycles) * nodes);
  };

  TransientMetrics m;
  util::RunningStats pre;
  for (const metrics::Window& w : online.windows()) {
    if (w.start_cycle >= cfg.protocol.warmup &&
        w.start_cycle + kWindowCycles <= kill_cycle) {
      pre.add(accepted(w));
    }
  }
  m.pre_accepted = pre.mean();

  const double recovery_floor = 0.8 * m.pre_accepted;
  util::RunningStats post;
  for (const metrics::Window& w : online.windows()) {
    if (w.start_cycle < kill_cycle ||
        w.start_cycle + kWindowCycles > window_end) {
      continue;
    }
    if (!m.recovered && accepted(w) >= recovery_floor) {
      m.recovered = true;
      m.recovery_cycles = w.start_cycle + kWindowCycles - kill_cycle;
    }
    if (m.recovered) post.add(accepted(w));
  }
  m.post_accepted = post.mean();
  if (!m.recovered) m.recovery_cycles = window_end - kill_cycle;
  return m;
}

config::SimConfig transient_base() {
  // The hotpath FAST operating point: 8-ary 2-cube, uniform traffic,
  // 16-flit messages, bench-sized windows, ALO at saturation load.
  config::SimConfig cfg = config::paper_base();
  cfg.n = 2;
  cfg.protocol.warmup = 3000;
  cfg.protocol.measure = 8000;
  cfg.protocol.drain_max = 8000;
  cfg.sim.limiter.kind = core::LimiterKind::ALO;
  cfg.workload.offered_flits_per_node_cycle = 1.0;
  return cfg;
}

/// Best-of-`reps` simulation throughput (deterministic results; only
/// the wall clock varies between repetitions).
double best_cps(const config::SimConfig& cfg, int reps) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    best = std::max(best, config::run_experiment(cfg).cycles_per_second);
  }
  return best;
}

int run_transient_json(const char* path) {
  constexpr std::uint64_t kRecoveryCyclesMax = 2000;
  constexpr double kPostRebuildCpsRatioMin = 0.5;
  const int reps = 3;

  std::ostream* os = &std::cout;
  std::ofstream file;
  if (path) {
    file.open(path);
    if (!file) {
      obs::logf(obs::LogLevel::Error, "error: cannot write %s\n", path);
      return 1;
    }
    os = &file;
  }

  const config::SimConfig healthy = transient_base();
  const topo::KAryNCube topo(healthy.k, healthy.n);

  // Recovery transient: 2 links die halfway through the measurement.
  config::SimConfig faulty = healthy;
  const std::uint64_t kill_cycle =
      healthy.protocol.warmup + healthy.protocol.measure / 2;
  faulty.sim.faults =
      fault::make_transient(topo, 2, kill_cycle, 0, healthy.seed);
  obs::logf(obs::LogLevel::Info,
            "# fault_transient: ALO @ 1.0, 2 links killed at cycle %llu\n",
            static_cast<unsigned long long>(kill_cycle));
  const TransientMetrics m = measure_transient(faulty);

  // Post-rebuild engine throughput: same point with the links dead (and
  // the LUT rebuilt) from cycle 0, against the healthy network.
  config::SimConfig degraded = healthy;
  degraded.sim.faults = fault::make_transient(topo, 2, 0, 0, healthy.seed);
  best_cps(healthy, 1);  // thermal/cache warmup, discarded
  const double healthy_cps = best_cps(healthy, reps);
  const double degraded_cps = best_cps(degraded, reps);
  const double ratio = healthy_cps > 0.0 ? degraded_cps / healthy_cps : 0.0;

  obs::logf(obs::LogLevel::Info,
            "# fault_transient: pre=%.4f post=%.4f recovery=%llu cycles, "
            "degraded %.0f cps vs healthy %.0f cps (ratio %.2f)\n",
            m.pre_accepted, m.post_accepted,
            static_cast<unsigned long long>(m.recovery_cycles), degraded_cps,
            healthy_cps, ratio);

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n  \"schema\": \"wormsim.bench/1\",\n"
      "  \"bench\": \"fault_transient\",\n"
      "  \"config\": \"ALO FAST point: 8-ary 2-cube (64 nodes), uniform, "
      "16-flit messages, load 1.0, 2 links killed mid-measure, best of %d "
      "runs for cps\",\n"
      "  \"points\": [\n"
      "    {\"offered_flits_node_cycle\": 1.0, \"mechanism\": \"alo\", "
      "\"pre_fault_accepted\": %.4f, \"post_fault_accepted\": %.4f, "
      "\"recovered\": %s, \"recovery_cycles\": %llu, "
      "\"post_rebuild_cycles_per_second\": %.0f, "
      "\"healthy_cycles_per_second\": %.0f, "
      "\"post_rebuild_cps_ratio\": %.3f}\n"
      "  ],\n"
      "  \"criteria\": {\"recovery_cycles_max\": %llu, "
      "\"post_rebuild_cps_ratio_min\": %.2f}\n}\n",
      reps, m.pre_accepted, m.post_accepted, m.recovered ? "true" : "false",
      static_cast<unsigned long long>(m.recovery_cycles), degraded_cps,
      healthy_cps, ratio, static_cast<unsigned long long>(kRecoveryCyclesMax),
      kPostRebuildCpsRatioMin);
  *os << buf;

  if (!m.recovered || m.recovery_cycles > kRecoveryCyclesMax ||
      ratio < kPostRebuildCpsRatioMin) {
    obs::logf(obs::LogLevel::Error,
              "# fault_transient: ACCEPTANCE CRITERIA NOT MET\n");
    return 2;
  }
  return 0;
}

int run_demo(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  config::SimConfig cfg = config::paper_base();
  cfg.protocol.warmup = 3000;
  cfg.protocol.measure = 8000;
  cfg.protocol.drain_max = 8000;
  harness::apply_common_flags(cfg, args);
  harness::apply_scale_env(cfg);
  harness::apply_fault_flag(cfg, args);
  if (cfg.sim.faults.empty()) {
    // Default schedule: 2 random links die halfway through measurement
    // and stay dead, so the CSV reflects degraded steady state.
    const topo::KAryNCube topo(cfg.k, cfg.n);
    cfg.sim.faults = fault::make_transient(
        topo, 2, cfg.protocol.warmup + cfg.protocol.measure / 2, 0, cfg.seed);
  }

  harness::SweepSpec sweep;
  sweep.base = cfg;
  sweep.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  sweep.offered_loads = {args.get_double("load", 1.0)};
  sweep.jobs = harness::jobs_flag(args);
  metrics::SweepStats stats;
  sweep.stats = &stats;
  sweep.progress = true;
  harness::ObsSession session(args);
  args.reject_unknown();
  session.attach(sweep);

  std::cout << "# Degraded operation — " << cfg.sim.faults.size()
            << "-event fault schedule, first event at cycle "
            << cfg.sim.faults.events().front().cycle << "\n";
  std::cout << "# expectation: ALO re-stabilizes throughput within a "
               "bounded transient; None collapses further\n";
  std::cout << harness::describe(cfg) << "\n";
  const auto points = harness::run_sweep(sweep);
  harness::write_sweep_csv(std::cout, points);

  // Per-mechanism transient summaries from instrumented reruns.
  for (const auto limiter : sweep.limiters) {
    config::SimConfig point_cfg = cfg;
    point_cfg.sim.limiter.kind = limiter;
    point_cfg.workload.offered_flits_per_node_cycle = sweep.offered_loads[0];
    const TransientMetrics m = measure_transient(point_cfg);
    std::cout << "# transient " << core::limiter_name(limiter)
              << ": pre_accepted=" << m.pre_accepted
              << " post_accepted=" << m.post_accepted
              << " recovered=" << (m.recovered ? 1 : 0)
              << " recovery_cycles=" << m.recovery_cycles << "\n";
  }
  obs::logf(obs::LogLevel::Info, "# %s\n", stats.summary().c_str());
  session.finish(sweep, points, &stats);
  return 0;
}

}  // namespace
}  // namespace wormsim::bench

int main(int argc, char** argv) {
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        return wormsim::bench::run_transient_json(i + 1 < argc ? argv[i + 1]
                                                               : nullptr);
      }
    }
    return wormsim::bench::run_demo(argc, argv);
  } catch (const std::exception& e) {
    wormsim::obs::logf(wormsim::obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
