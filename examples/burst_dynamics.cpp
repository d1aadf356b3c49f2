// Transient dynamics under bursty traffic, seen through the per-interval
// time series: how a burst drives the network into saturation and how
// the ALO mechanism changes what happens next.
//
//   ./burst_dynamics [--offered 0.45 --duty 0.3 --burst-len 800
//                     --interval 256 --cycles 20000]
//
// Prints one CSV row per interval and mechanism: accepted traffic,
// mean latency of deliveries, deadlock detections and total queued
// messages. Feed it to any plotting tool to watch the collapse (None)
// versus the queue-absorbed burst (ALO).
#include <cstdio>
#include <exception>
#include <iostream>

#include "config/presets.hpp"
#include "harness/sweep.hpp"
#include "obs/log.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

using namespace wormsim;

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    config::SimConfig cfg = config::small_base();
    harness::apply_common_flags(cfg, args);
    harness::apply_scale_env(cfg);
    cfg.workload.process = traffic::ProcessKind::Bursty;
    cfg.workload.offered_flits_per_node_cycle =
        args.get_double("offered", 0.45);
    cfg.workload.bursty.duty_cycle = args.get_double("duty", 0.3);
    cfg.workload.bursty.mean_burst_cycles =
        args.get_double("burst-len", 800.0);
    const auto interval = args.get_uint("interval", 256);
    const auto cycles = args.get_uint("cycles", 20000);
    args.reject_unknown();

    std::printf("%s\n", harness::describe(cfg).c_str());
    std::printf(
        "# bursty process: duty %.2f, mean burst %.0f cycles, burst rate "
        "%.2f flits/node/cycle\n",
        cfg.workload.bursty.duty_cycle, cfg.workload.bursty.mean_burst_cycles,
        cfg.workload.offered_flits_per_node_cycle /
            cfg.workload.bursty.duty_cycle);

    util::CsvWriter csv(std::cout);
    csv.header({"mechanism", "interval_start", "accepted_flits_node_cycle",
                "latency_avg_cycles", "deadlocks", "queued_msgs"});
    for (const auto kind : {core::LimiterKind::None, core::LimiterKind::ALO}) {
      cfg.sim.limiter.kind = kind;
      auto sim = config::build_simulator(cfg);
      sim->enable_timeseries(interval);
      sim->step_cycles(cycles);
      const auto nodes = sim->topology().num_nodes();
      const auto* ts = sim->timeseries();
      for (std::size_t i = 0; i < ts->intervals().size(); ++i) {
        const auto& iv = ts->intervals()[i];
        csv.row(core::limiter_name(kind), iv.start_cycle,
                ts->accepted(i, nodes), iv.latency.mean(),
                iv.deadlock_detections, iv.queue_total);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
