// Ablation: virtual-channel count and buffer depth.
//
// The paper (§1) notes that adding virtual channels is the classic
// alternative to injection limitation but "makes hardware more complex,
// possibly leading to a reduction in clock frequency" [Chien'93]. This
// bench quantifies the trade: peak accepted traffic and post-saturation
// behaviour for 1..4 VCs (None vs ALO), and for 2/4/8-flit buffers at 3
// VCs.
#include <mutex>
#include <vector>

#include "fig_common.hpp"
#include "util/csv.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

using namespace wormsim;

namespace {

metrics::SimResult run_point(config::SimConfig cfg, unsigned vcs,
                             unsigned buf, core::LimiterKind limiter,
                             double offered, std::uint64_t stream) {
  cfg.sim.net.num_vcs = vcs;
  cfg.sim.net.buf_flits = buf;
  cfg.sim.limiter.kind = limiter;
  cfg.workload.offered_flits_per_node_cycle = offered;
  cfg.seed = util::derive_stream_seed(cfg.seed, stream);
  return config::run_experiment(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    bench::FigureSpec spec;
    spec.figure = "Ablation: VCs and buffers";
    spec.expectation =
        "more VCs raise the saturation point but do not remove the "
        "collapse; ALO removes the collapse at every VC count";
    config::SimConfig base = bench::figure_base(spec, args);

    const double low = args.get_double("low", 0.55);
    const double high = args.get_double("high", 1.2);
    const unsigned jobs = harness::jobs_flag(args);
    args.reject_unknown();

    std::cout << "# Ablation — VC count / buffer depth (uniform 16-flit); "
                 "accepted traffic at a moderate and a beyond-saturation "
                 "load\n";
    std::cout << "# expectation: " << spec.expectation << "\n";
    std::cout << harness::describe(base) << "\n";
    util::CsvWriter csv(std::cout);
    csv.header({"vcs", "buf_flits", "mechanism", "offered",
                "accepted_flits_node_cycle", "latency_avg_cycles",
                "deadlock_pct"});

    // Enumerate the grid first (the enumeration order fixes both the
    // row order and each point's RNG stream), then run the points with
    // parallel_for and emit rows from their slots.
    struct Cell {
      unsigned vcs;
      unsigned buf;
      core::LimiterKind limiter;
      double offered;
    };
    std::vector<Cell> grid;
    for (const unsigned vcs : {1u, 2u, 3u, 4u}) {
      for (const auto limiter :
           {core::LimiterKind::None, core::LimiterKind::ALO}) {
        grid.push_back({vcs, base.sim.net.buf_flits, limiter, low});
        grid.push_back({vcs, base.sim.net.buf_flits, limiter, high});
      }
    }
    for (const unsigned buf : {2u, 4u, 8u}) {
      for (const auto limiter :
           {core::LimiterKind::None, core::LimiterKind::ALO}) {
        grid.push_back({3, buf, limiter, high});
      }
    }

    std::vector<metrics::SimResult> results(grid.size());
    std::mutex progress_mu;
    util::parallel_for(
        grid.size(), jobs, [&](std::size_t i) {
          const Cell& c = grid[i];
          results[i] = run_point(base, c.vcs, c.buf, c.limiter, c.offered, i);
          const std::lock_guard<std::mutex> lock(progress_mu);
          obs::logf(obs::LogLevel::Info, "  [vcs=%u buf=%u %s @ %.2f] accepted=%.3f\n",
                       c.vcs, c.buf,
                       std::string(core::limiter_name(c.limiter)).c_str(),
                       c.offered, results[i].accepted_flits_per_node_cycle);
        });
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const Cell& c = grid[i];
      csv.row(c.vcs, c.buf, core::limiter_name(c.limiter), c.offered,
              results[i].accepted_flits_per_node_cycle,
              results[i].latency_mean, results[i].deadlock_pct);
    }
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
