// Saturation study: sweep offered load for a chosen traffic pattern and
// print the latency / accepted-traffic / deadlock curves for all four
// mechanisms (None, ALO, LF, DRIL) as CSV — the shape of the paper's
// Figures 5..10 in one command.
//
//   ./saturation_study --pattern complement --msg-len 16
//       --loads 8 --max-load 1.2 [--k 8 --n 3 --jobs 4 ...]
//
// Defaults use the 64-node reduced preset; pass --paper for the full
// 8-ary 3-cube of the paper (slower). Points run in parallel (--jobs,
// or the WORMSIM_JOBS env; output is identical for any job count).
// Observability: --metrics-out FILE (JSONL telemetry), --trace FILE
// (Perfetto-loadable Chrome trace), --spatial-out PREFIX (per-channel /
// per-node heatmap CSVs), --log-level LEVEL.
#include <exception>
#include <iostream>

#include "harness/sweep.hpp"
#include "harness/telemetry.hpp"
#include "obs/log.hpp"

using namespace wormsim;

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    config::SimConfig base = args.has("paper") ? config::paper_base()
                                               : config::small_base();
    harness::apply_common_flags(base, args);
    harness::apply_scale_env(base);

    const auto points = static_cast<unsigned>(args.get_uint("loads", 8));
    const double min_load = args.get_double("min-load", 0.1);
    const double max_load = args.get_double("max-load", 1.2);

    harness::SweepSpec spec;
    spec.base = base;
    spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO,
                     core::LimiterKind::LF, core::LimiterKind::DRIL};
    spec.offered_loads = harness::load_range(min_load, max_load, points);
    spec.jobs = harness::jobs_flag(args);
    metrics::SweepStats stats;
    spec.stats = &stats;
    spec.progress = true;
    harness::ObsSession session(args);
    args.reject_unknown();
    session.attach(spec);

    std::cout << harness::describe(base) << "\n";
    const auto results = harness::run_sweep(spec);
    harness::write_sweep_csv(std::cout, results);
    obs::logf(obs::LogLevel::Info, "# %s\n", stats.summary().c_str());
    session.finish(spec, results, &stats);
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
