// Pattern explorer: characterize each traffic pattern on a topology —
// active-node fraction, mean minimal distance of its flows, channel-load
// concentration — then simulate one load point per pattern and report
// the sustained throughput with and without ALO.
//
//   ./pattern_explorer [--k 8 --n 3 --offered 0.8 --msg-len 16 --jobs 4]
#include <cstdio>
#include <exception>
#include <vector>

#include "config/presets.hpp"
#include "harness/sweep.hpp"
#include "obs/log.hpp"
#include "traffic/patterns.hpp"
#include "util/cli.hpp"
#include "util/parallel_for.hpp"

using namespace wormsim;

namespace {

/// Mean minimal distance over every node's pattern flow (random
/// patterns sample; deterministic ones enumerate).
double mean_flow_distance(const traffic::TrafficPattern& p,
                          const topo::KAryNCube& t, util::Rng& rng) {
  double sum = 0;
  unsigned flows = 0;
  for (topo::NodeId n = 0; n < t.num_nodes(); ++n) {
    const topo::NodeId d = p.destination(n, rng);
    if (d == n) continue;
    sum += t.distance(n, d);
    ++flows;
  }
  return flows ? sum / flows : 0.0;
}

/// Peak / mean load ratio over physical channels assuming each active
/// node routes one minimal flow, split evenly over its useful channels
/// hop by hop (a quick static congestion estimate for deterministic
/// patterns).
double channel_concentration(const traffic::TrafficPattern& p,
                             const topo::KAryNCube& t, util::Rng& rng) {
  std::vector<double> load(t.num_nodes() * t.num_channels(), 0.0);
  for (topo::NodeId n = 0; n < t.num_nodes(); ++n) {
    topo::NodeId here = n;
    const topo::NodeId dst = p.destination(n, rng);
    if (dst == n) continue;
    while (here != dst) {
      const std::uint32_t mask = t.useful_channels_mask(here, dst);
      // Follow the lowest useful channel; credit its link.
      const auto c = static_cast<topo::ChannelId>(
          static_cast<unsigned>(__builtin_ctz(mask)));
      load[here * t.num_channels() + c] += 1.0;
      here = t.neighbor(here, c);
    }
  }
  double sum = 0, peak = 0;
  unsigned used = 0;
  for (double l : load) {
    sum += l;
    peak = std::max(peak, l);
    used += (l > 0);
  }
  return used ? peak / (sum / used) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    config::SimConfig base = config::small_base();
    harness::apply_common_flags(base, args);
    harness::apply_scale_env(base);
    const double offered = args.get_double("offered", 0.8);
    const unsigned jobs = harness::jobs_flag(args);
    args.reject_unknown();

    const topo::KAryNCube topo(base.k, base.n);
    util::Rng rng(base.seed);

    std::printf("%s\n", harness::describe(base).c_str());
    std::printf("%-16s %8s %10s %8s | %10s %10s %9s\n", "pattern", "active",
                "mean_dist", "conc", "none_acc", "alo_acc", "alo_dl%");

    const std::vector<traffic::PatternKind> kinds = {
        traffic::PatternKind::Uniform, traffic::PatternKind::Butterfly,
        traffic::PatternKind::Complement, traffic::PatternKind::BitReversal,
        traffic::PatternKind::PerfectShuffle, traffic::PatternKind::Transpose,
        traffic::PatternKind::Tornado};

    // The two simulations per pattern are independent; run the whole
    // pattern × {None, ALO} grid with parallel_for (seeds unchanged:
    // both limiters see the identical workload at base.seed).
    std::vector<metrics::SimResult> sims(kinds.size() * 2);
    util::parallel_for(
        sims.size(), jobs, [&](std::size_t i) {
          config::SimConfig cfg = base;
          cfg.workload.pattern = kinds[i / 2];
          cfg.workload.offered_flits_per_node_cycle = offered;
          cfg.sim.limiter.kind =
              (i % 2) ? core::LimiterKind::ALO : core::LimiterKind::None;
          sims[i] = config::run_experiment(cfg);
        });

    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const auto kind = kinds[i];
      auto pattern = traffic::make_pattern(kind, topo);
      const double active = traffic::active_node_fraction(*pattern, topo, rng);
      const double dist = mean_flow_distance(*pattern, topo, rng);
      const double conc = channel_concentration(*pattern, topo, rng);
      const auto& none = sims[i * 2];
      const auto& alo = sims[i * 2 + 1];
      std::printf("%-16s %7.0f%% %10.2f %8.2f | %10.3f %10.3f %8.2f%%\n",
                  std::string(traffic::pattern_name(kind)).c_str(),
                  active * 100.0, dist, conc,
                  none.accepted_flits_per_node_cycle,
                  alo.accepted_flits_per_node_cycle, alo.deadlock_pct);
    }
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
