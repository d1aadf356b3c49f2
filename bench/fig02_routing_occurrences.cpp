// Figure 2: percentage of routing occurrences that satisfy (a) "every
// useful physical output channel has at least one free VC", (b) "at
// least one useful physical channel is completely free", and (a OR b),
// versus network traffic. This is the measurement that motivates the
// ALO mechanism: condition (a) holds for almost all routings at low
// load and degrades as traffic grows; (a OR b) is the better congestion
// indicator.
#include "fig_common.hpp"
#include "util/csv.hpp"

using namespace wormsim;

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    bench::FigureSpec spec;
    spec.figure = "Figure 2";
    spec.expectation =
        "rule (a) satisfied for ~100% of routings at low load, "
        "decreasing with traffic; (a OR b) lies above (a) alone";
    config::SimConfig cfg = bench::figure_base(spec, args);
    cfg.sim.limiter.kind = core::LimiterKind::None;

    const auto loads = harness::load_range(
        args.get_double("min-load", 0.05),
        args.get_double("max-load", 0.8),
        static_cast<unsigned>(args.get_uint("loads", 8)));
    args.reject_unknown();

    std::cout << "# Figure 2 — ALO routing-occurrence probe, uniform "
                 "16-flit messages, no limitation\n";
    std::cout << "# paper expectation: " << spec.expectation << "\n";
    std::cout << harness::describe(cfg) << "\n";
    util::CsvWriter csv(std::cout);
    csv.header({"offered_flits_node_cycle", "accepted_flits_node_cycle",
                "pct_rule_a", "pct_rule_b", "pct_a_or_b", "probe_samples"});
    unsigned index = 0;
    for (const double offered : loads) {
      config::SimConfig point = cfg;
      point.workload.offered_flits_per_node_cycle = offered;
      point.seed = cfg.seed + 0x9e3779b9ULL * ++index;
      const auto r = config::run_experiment(point);
      obs::logf(obs::LogLevel::Info, "  [probe @ %.3f] a=%.1f%% b=%.1f%% either=%.1f%%\n",
                   offered, r.probe.pct_a(), r.probe.pct_b(),
                   r.probe.pct_either());
      csv.row(offered, r.accepted_flits_per_node_cycle, r.probe.pct_a(),
              r.probe.pct_b(), r.probe.pct_either(), r.probe.samples);
    }
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
