// Extending the library: plug a user-defined injection-limitation
// mechanism into the simulator.
//
// This example implements a simple "occupancy cap" limiter — inject only
// while fewer than `cap` of the node's output VCs are busy, a global
// (non-routing-aware) variant of the LF family — and races it against
// ALO on the same workload. It demonstrates the InjectionLimiter
// interface, manual Simulator assembly (instead of config::presets), and
// why routing-awareness matters.
#include <bit>
#include <cstdio>
#include <exception>
#include <memory>

#include "core/limiter.hpp"
#include "harness/sweep.hpp"
#include "obs/log.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"

using namespace wormsim;

namespace {

/// Inject only while the total busy output-VC count at the node is below
/// a fixed cap. Unlike ALO, it ignores the routing function, so it
/// throttles on congestion the message would never meet and misses
/// congestion concentrated on the message's own path.
class OccupancyCapLimiter final : public core::InjectionLimiter {
 public:
  explicit OccupancyCapLimiter(unsigned cap) : cap_(cap) {}

  bool allow(const core::InjectionRequest& req,
             const core::ChannelStatus& status) override {
    unsigned busy = 0;
    const std::uint32_t vc_field = (1u << status.num_vcs()) - 1u;
    for (unsigned c = 0; c < status.num_phys_channels(); ++c) {
      const auto free = status.free_vc_mask(
                            req.node, static_cast<core::ChannelId>(c)) &
                        vc_field;
      busy += status.num_vcs() - static_cast<unsigned>(std::popcount(free));
    }
    return busy < cap_;
  }

  // The enum has no slot for external mechanisms; report the closest
  // family. Downstream code only uses this for labels.
  core::LimiterKind kind() const noexcept override {
    return core::LimiterKind::LF;
  }

 private:
  unsigned cap_;
};

metrics::SimResult run_with(std::unique_ptr<core::InjectionLimiter> limiter,
                            const config::SimConfig& cfg) {
  const topo::KAryNCube topo(cfg.k, cfg.n);
  auto workload =
      std::make_unique<traffic::Workload>(topo, cfg.workload, cfg.seed);
  sim::Simulator simulator(topo, cfg.sim, std::move(workload));
  simulator.set_limiter(std::move(limiter));  // the extension seam
  return simulator.run(cfg.protocol);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    config::SimConfig cfg = config::small_base();
    harness::apply_common_flags(cfg, args);
    harness::apply_scale_env(cfg);
    const double offered = args.get_double("offered", 1.0);
    args.reject_unknown();
    cfg.workload.offered_flits_per_node_cycle = offered;

    std::printf("%s\n", harness::describe(cfg).c_str());
    std::printf("%-14s %10s %10s %9s %9s\n", "mechanism", "accepted",
                "latency", "dl%", "queue");

    // Baselines through the standard factory.
    for (const auto kind : {core::LimiterKind::None, core::LimiterKind::ALO}) {
      cfg.sim.limiter.kind = kind;
      const auto r = config::run_experiment(cfg);
      std::printf("%-14s %10.3f %10.1f %8.2f%% %9.1f\n",
                  std::string(core::limiter_name(kind)).c_str(),
                  r.accepted_flits_per_node_cycle, r.latency_mean,
                  r.deadlock_pct, r.avg_queue_len);
    }

    // The custom mechanism at a few cap values scaled to the node's
    // total output-VC count.
    const unsigned total_vcs = 2 * cfg.n * cfg.sim.net.num_vcs;
    for (const unsigned cap :
         {total_vcs / 3, total_vcs / 2, (3 * total_vcs) / 4}) {
      cfg.sim.limiter.kind = core::LimiterKind::None;
      const auto r =
          run_with(std::make_unique<OccupancyCapLimiter>(cap), cfg);
      std::printf("occupancy<%-3u %10.3f %10.1f %8.2f%% %9.1f\n", cap,
                  r.accepted_flits_per_node_cycle, r.latency_mean,
                  r.deadlock_pct, r.avg_queue_len);
    }
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
