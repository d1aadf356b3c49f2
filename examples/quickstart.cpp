// Quickstart: simulate the paper's 8-ary 3-cube at one offered load with
// and without the ALO injection limitation mechanism, and print the
// headline metrics.
//
//   ./quickstart [--k 8 --n 3 --offered 0.4 --pattern uniform
//                 --msg-len 16 --limiter alo --core dense|active ...]
//
// With no arguments it runs a small 64-node network so it finishes in a
// few seconds.
#include <cstdio>
#include <exception>

#include "config/presets.hpp"
#include "harness/sweep.hpp"
#include "obs/log.hpp"
#include "util/cli.hpp"

using namespace wormsim;

namespace {

void print_result(const char* label, const metrics::SimResult& r) {
  std::printf(
      "%-6s offered=%.3f accepted=%.3f flits/node/cycle  latency=%.1f "
      "(sd %.1f, p99 %.0f) cycles  deadlocks=%.2f%%  drained=%s\n",
      label, r.offered_flits_per_node_cycle, r.accepted_flits_per_node_cycle,
      r.latency_mean, r.latency_stddev, r.latency_p99, r.deadlock_pct,
      r.fully_drained ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    config::SimConfig cfg = config::small_base();
    harness::apply_common_flags(cfg, args);
    cfg.workload.offered_flits_per_node_cycle =
        args.get_double("offered", 0.35);
    args.reject_unknown();

    std::printf("%s\n", harness::describe(cfg).c_str());

    for (const auto kind : {core::LimiterKind::None, core::LimiterKind::ALO}) {
      cfg.sim.limiter.kind = kind;
      const auto result = config::run_experiment(cfg);
      print_result(std::string(core::limiter_name(kind)).c_str(), result);
    }
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
