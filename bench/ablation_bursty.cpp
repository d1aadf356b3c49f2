// Extension experiment: bursty application traffic.
//
// The paper's introduction motivates saturation prevention with studies
// showing that "network traffic is bursty and peak traffic may saturate
// the network" [Flich'99, Silla'98], transiently driving the network
// into the degraded regime even when the *average* load is moderate.
// This bench uses a Markov-modulated on/off workload whose long-run
// average sits below uniform saturation but whose burst rate sits well
// above it, and compares None vs ALO on delivered traffic and latency
// tails.
//
// Expectation: with bursts, the unrestricted network repeatedly enters
// the degraded regime (deadlock detections, latency tail blow-up) and
// delivers less than ALO; with smooth traffic at the same mean both
// mechanisms behave identically.
#include <mutex>
#include <vector>

#include "fig_common.hpp"
#include "util/csv.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

using namespace wormsim;

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    bench::FigureSpec spec;
    spec.figure = "Extension: bursty traffic";
    spec.expectation =
        "bursty peaks saturate the network: None degrades (deadlocks, "
        "huge p99), ALO absorbs the bursts into source queues";
    config::SimConfig base = bench::figure_base(spec, args);
    // Long window: synchronized bursts have a ~burst-len/duty period, so
    // the measurement must span many of them.
    base.protocol.measure =
        args.get_uint("measure", std::max<std::uint64_t>(
                                     base.protocol.measure, 24000));
    base.workload.bursty.duty_cycle = args.get_double("duty", 0.3);
    base.workload.bursty.mean_burst_cycles =
        args.get_double("burst-len", 800.0);
    // Application-phase behaviour: the whole machine bursts together.
    // (Independent per-node bursts average out at 512 nodes and never
    // saturate the network; pass --sync=false to see that control.)
    base.workload.bursty.synchronized = args.get_bool("sync", true);

    const auto means = harness::load_range(
        args.get_double("min-load", 0.2), args.get_double("max-load", 0.5),
        args.get_u32("loads", 4));
    const unsigned jobs = harness::jobs_flag(args);
    args.reject_unknown();

    std::cout << "# Extension — bursty on/off traffic (duty "
              << base.workload.bursty.duty_cycle << ", mean burst "
              << base.workload.bursty.mean_burst_cycles
              << " cycles): burst-rate = mean/duty\n";
    std::cout << "# expectation: " << spec.expectation << "\n";
    std::cout << harness::describe(base) << "\n";
    util::CsvWriter csv(std::cout);
    csv.header({"process", "mechanism", "mean_offered", "burst_offered",
                "accepted_flits_node_cycle", "latency_avg_cycles",
                "latency_p99_cycles", "deadlock_pct"});

    struct Cell {
      const char* process;
      core::LimiterKind limiter;
      double mean;
      std::uint64_t load_stream;  // seed stream: depends on the load ONLY
    };
    std::vector<Cell> grid;
    for (const char* process : {"exponential", "bursty"}) {
      for (const auto limiter :
           {core::LimiterKind::None, core::LimiterKind::ALO}) {
        for (std::size_t li = 0; li < means.size(); ++li) {
          grid.push_back({process, limiter, means[li], li});
        }
      }
    }

    std::vector<metrics::SimResult> results(grid.size());
    std::mutex progress_mu;
    util::parallel_for(
        grid.size(), jobs, [&](std::size_t i) {
          const Cell& c = grid[i];
          config::SimConfig cfg = base;
          cfg.workload.process = traffic::parse_process(c.process);
          cfg.workload.offered_flits_per_node_cycle = c.mean;
          cfg.sim.limiter.kind = c.limiter;
          // Seed depends on the load only: mechanisms compared at the
          // same point see the identical workload and burst schedule.
          cfg.seed = util::derive_stream_seed(base.seed, c.load_stream);
          results[i] = config::run_experiment(cfg);
          const std::lock_guard<std::mutex> lock(progress_mu);
          obs::logf(obs::LogLevel::Info,
                       "  [%s/%s @ %.2f] accepted=%.3f p99=%.0f dl=%.2f%%\n",
                       c.process,
                       std::string(core::limiter_name(c.limiter)).c_str(),
                       c.mean, results[i].accepted_flits_per_node_cycle,
                       results[i].latency_p99, results[i].deadlock_pct);
        });
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const Cell& c = grid[i];
      const auto& r = results[i];
      const double burst = traffic::parse_process(c.process) ==
                                   traffic::ProcessKind::Bursty
                               ? c.mean / base.workload.bursty.duty_cycle
                               : c.mean;
      csv.row(c.process, core::limiter_name(c.limiter), c.mean, burst,
              r.accepted_flits_per_node_cycle, r.latency_mean,
              r.latency_p99, r.deadlock_pct);
    }
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
