// Extension experiment: injection limitation under deadlock AVOIDANCE.
//
// The paper's opening claim covers both deadlock-handling families:
// "Both deadlock avoidance and recovery techniques suffer from severe
// performance degradation when the network is close to or beyond
// saturation" — with avoidance, messages do not deadlock but "spend a
// long time blocked in the network" faster than escape paths drain
// them. This bench swaps TFAR+recovery for Duato's protocol (adaptive
// VCs + dateline-DOR escape layer, provably deadlock-free — detection
// disabled) and sweeps None vs ALO.
//
// Expectation: the None curve still degrades beyond saturation (less
// violently than TFAR since escape paths always drain), deadlock
// detections are structurally zero, and ALO again pins throughput at
// the peak.
#include "fig_common.hpp"

using namespace wormsim;

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    bench::FigureSpec spec;
    spec.figure = "Extension: deadlock avoidance (Duato's protocol)";
    spec.expectation =
        "degradation beyond saturation also appears under deadlock "
        "avoidance; ALO removes it; zero deadlock detections by "
        "construction";
    config::SimConfig cfg = bench::figure_base(spec, args);
    cfg.sim.algorithm = routing::Algorithm::Duato;
    cfg.sim.detection.enabled = false;  // deadlock-free by construction

    harness::SweepSpec sweep;
    sweep.base = cfg;
    sweep.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
    sweep.offered_loads = harness::load_range(
        args.get_double("min-load", 0.1), args.get_double("max-load", 1.2),
        args.get_u32("loads", 7));
    sweep.jobs = harness::jobs_flag(args);
    metrics::SweepStats stats;
    sweep.stats = &stats;
    sweep.progress = true;
    harness::ObsSession session(args);
    args.reject_unknown();
    session.attach(sweep);

    std::cout << "# " << spec.figure << "\n";
    std::cout << "# expectation: " << spec.expectation << "\n";
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
