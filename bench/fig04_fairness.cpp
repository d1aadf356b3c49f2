// Figure 4: differences in sent messages per node (percent deviation
// from the all-node mean) for the LF, DRIL and ALO mechanisms. Uniform
// destinations, 64-flit messages, offered traffic 0.65 flits/node/cycle
// (a saturating load where the limiters actively throttle).
//
// Paper expectation: ALO within about ±3%, LF up to about ±20%, DRIL
// with some nodes 60–80% below the mean.
#include <cmath>

#include "fig_common.hpp"
#include "util/csv.hpp"

using namespace wormsim;

namespace {

struct FairnessRun {
  std::vector<double> deviations;
  double max_abs = 0.0;
  double jain = 1.0;
  double mean_msgs = 0.0;
  /// Pure sampling noise floor: Poisson-ish per-node counts give a
  /// relative sigma of 100/sqrt(mean) percent; deviations below ~3x
  /// this are indistinguishable from noise. Structural unfairness (the
  /// paper's DRIL result) sits far above it.
  double noise_floor_sigma_pct = 0.0;
};

FairnessRun run_fairness(config::SimConfig cfg, core::LimiterKind kind) {
  cfg.sim.limiter.kind = kind;
  auto sim = config::build_simulator(cfg);
  sim->run(cfg.protocol);
  const auto& fairness = sim->collector().fairness();
  FairnessRun out;
  const auto nodes = sim->topology().num_nodes();
  out.deviations.reserve(nodes);
  for (topo::NodeId n = 0; n < nodes; ++n) {
    out.deviations.push_back(fairness.deviation_pct(n));
  }
  out.max_abs = fairness.max_abs_deviation_pct();
  out.jain = fairness.jain_index();
  out.mean_msgs = fairness.mean();
  out.noise_floor_sigma_pct =
      out.mean_msgs > 0 ? 100.0 / std::sqrt(out.mean_msgs) : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    bench::FigureSpec spec;
    spec.figure = "Figure 4";
    spec.msg_len = 64;
    spec.expectation =
        "ALO per-node sent-message deviation within a few percent; LF up "
        "to ~20%; DRIL grossly unfair (some nodes 60-80% under the mean)";
    config::SimConfig cfg = bench::figure_base(spec, args);
    // Long window so per-node message counts are statistically stable
    // (the sampling noise floor is printed alongside the results).
    cfg.protocol.measure =
        args.get_uint("measure", std::max<std::uint64_t>(
                                     cfg.protocol.measure, 30000));
    cfg.workload.offered_flits_per_node_cycle =
        args.get_double("offered", 0.65);
    cfg.protocol.drain_max = 4000;
    // DRIL's unfairness comes from thresholds staying frozen at the
    // node-dependent values sampled when each node first saw saturation
    // (paper §4.2). The library default relaxes thresholds quickly,
    // trading that unfairness for throughput; this figure uses the
    // faithful slow relaxation so the published behaviour is visible.
    cfg.sim.limiter.dril_relax_period = args.get_uint("dril-relax", 16384);
    args.reject_unknown();

    std::cout << "# Figure 4 — per-node sent-message deviation (%), "
                 "uniform, 64-flit, offered "
              << cfg.workload.offered_flits_per_node_cycle
              << " flits/node/cycle\n";
    std::cout << "# paper expectation: " << spec.expectation << "\n";
    std::cout << harness::describe(cfg) << "\n";

    const auto lf = run_fairness(cfg, core::LimiterKind::LF);
    obs::logf(obs::LogLevel::Info, "  [lf]   max|dev|=%.1f%% jain=%.4f\n", lf.max_abs,
                 lf.jain);
    const auto dril = run_fairness(cfg, core::LimiterKind::DRIL);
    obs::logf(obs::LogLevel::Info, "  [dril] max|dev|=%.1f%% jain=%.4f\n", dril.max_abs,
                 dril.jain);
    const auto alo = run_fairness(cfg, core::LimiterKind::ALO);
    obs::logf(obs::LogLevel::Info, "  [alo]  max|dev|=%.1f%% jain=%.4f\n", alo.max_abs,
                 alo.jain);
    std::printf(
        "# sampling noise floor: %.0f msgs/node -> sigma = %.1f%% "
        "(deviations under ~%.0f%% are statistical noise)\n",
        alo.mean_msgs, alo.noise_floor_sigma_pct,
        3.0 * alo.noise_floor_sigma_pct);

    util::CsvWriter csv(std::cout);
    csv.header({"node", "lf_dev_pct", "dril_dev_pct", "alo_dev_pct"});
    for (std::size_t n = 0; n < alo.deviations.size(); ++n) {
      csv.row(n, lf.deviations[n], dril.deviations[n], alo.deviations[n]);
    }
    csv.row("max_abs", lf.max_abs, dril.max_abs, alo.max_abs);
    csv.row("jain_index", lf.jain, dril.jain, alo.jain);
    csv.row("noise_floor_sigma", lf.noise_floor_sigma_pct,
            dril.noise_floor_sigma_pct, alo.noise_floor_sigma_pct);
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
