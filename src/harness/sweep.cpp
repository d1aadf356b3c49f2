#include "harness/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <sstream>

#include "fault/schedule.hpp"
#include "obs/log.hpp"
#include "util/csv.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace wormsim::harness {

namespace {

/// The flattened (limiter, load) grid in sweep order. The position in
/// this vector is both the output slot and the RNG stream index, which
/// is what makes the parallel engine's results independent of thread
/// count and completion order.
struct GridPoint {
  core::LimiterKind limiter;
  double offered;
};

std::vector<GridPoint> flatten_grid(const SweepSpec& spec) {
  std::vector<GridPoint> grid;
  grid.reserve(spec.limiters.size() * spec.offered_loads.size());
  for (const auto limiter : spec.limiters) {
    for (const double offered : spec.offered_loads) {
      grid.push_back({limiter, offered});
    }
  }
  return grid;
}

/// Serialized (caller holds the progress mutex) per-point progress line.
class ProgressMeter {
 public:
  ProgressMeter(bool enabled, std::uint64_t total)
      : enabled_(enabled),
        total_(total),
        start_(std::chrono::steady_clock::now()) {}

  void on_done(const GridPoint& p, const metrics::SimResult& r) {
    ++done_;
    // Progress is purely informational: skip even the formatting work
    // when the leveled logger would drop the line (--log-level warn).
    if (!enabled_ || !obs::log_enabled(obs::LogLevel::Info)) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double eta =
        done_ ? elapsed / static_cast<double>(done_) *
                    static_cast<double>(total_ - done_)
              : 0.0;
    obs::logf(obs::LogLevel::Info,
              "[%llu/%llu] %s: latency=%.1f accepted=%.4f dl=%.2f%%%s "
              "(%.1fs elapsed, eta %.0fs)\n",
              static_cast<unsigned long long>(done_),
              static_cast<unsigned long long>(total_),
              point_label(p.limiter, p.offered).c_str(), r.latency_mean,
              r.accepted_flits_per_node_cycle, r.deadlock_pct,
              r.saturated ? " saturated" : "", elapsed, eta);
  }

 private:
  bool enabled_;
  std::uint64_t done_ = 0;
  std::uint64_t total_;
  std::chrono::steady_clock::time_point start_;
};

config::SimConfig point_config(const SweepSpec& spec, const GridPoint& p,
                               std::uint64_t stream) {
  config::SimConfig cfg = spec.base;
  cfg.sim.limiter.kind = p.limiter;
  cfg.workload.offered_flits_per_node_cycle = p.offered;
  // Decorrelated, order-independent per-simulation stream.
  cfg.seed = util::derive_stream_seed(spec.base.seed, stream);
  return cfg;
}

class SweepTimer {
 public:
  SweepTimer(metrics::SweepStats* stats, unsigned jobs, std::uint64_t points)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {
    if (!stats_) return;
    stats_->jobs = jobs;
    stats_->points = points;
    stats_->simulations = points;
  }
  ~SweepTimer() {
    if (!stats_) return;
    stats_->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
  }

 private:
  metrics::SweepStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

std::vector<SweepPoint> run_sweep(const SweepSpec& spec) {
  const std::vector<GridPoint> grid = flatten_grid(spec);
  const unsigned jobs = util::resolve_jobs(spec.jobs);
  const SweepTimer timer(spec.stats, jobs, grid.size());

  std::vector<SweepPoint> points(grid.size());
  std::mutex progress_mu;
  ProgressMeter meter(spec.progress, grid.size());
  util::parallel_for(grid.size(), jobs, [&](std::size_t i) {
    const config::SimConfig cfg = point_config(spec, grid[i], i);
    // Every recorder is per-simulation state: each point owns its own,
    // so no recorder is shared between threads.
    config::RunHooks hooks;
    std::shared_ptr<metrics::OnlineStats> online;
    if (spec.online) {
      online = std::make_shared<metrics::OnlineStats>(
          topo::KAryNCube(cfg.k, cfg.n).num_nodes(), spec.online_config);
      hooks.online = online.get();
    }
    std::shared_ptr<obs::Tracer> trace;
    if (spec.trace_capacity) {
      trace = std::make_shared<obs::Tracer>(spec.trace_capacity);
      hooks.tracer = trace.get();
    }
    SweepPoint point{grid[i].limiter, grid[i].offered,
                     config::run_experiment(cfg, hooks), std::move(online),
                     std::move(trace)};
    {
      const std::lock_guard<std::mutex> lock(progress_mu);
      meter.on_done(grid[i], point.result);
      if (spec.on_point) spec.on_point(point);
    }
    points[i] = std::move(point);
  });
  if (spec.stats) {
    for (const auto& p : points) spec.stats->sim_cycles += p.result.total_cycles;
  }
  return points;
}

std::string point_label(core::LimiterKind limiter, double offered) {
  std::ostringstream os;
  os << core::limiter_name(limiter) << " @ " << offered;
  return os.str();
}

void write_sweep_csv(std::ostream& out,
                     const std::vector<SweepPoint>& points) {
  util::CsvWriter csv(out);
  csv.header({"mechanism", "offered_flits_node_cycle", "latency_avg_cycles",
              "latency_sd_cycles", "latency_p99_cycles",
              "accepted_flits_node_cycle", "deadlock_pct", "avg_queue_len",
              "fully_drained", "saturated"});
  for (const auto& p : points) {
    const auto& r = p.result;
    csv.row(core::limiter_name(p.limiter), p.offered, r.latency_mean,
            r.latency_stddev, r.latency_p99, r.accepted_flits_per_node_cycle,
            r.deadlock_pct, r.avg_queue_len,
            static_cast<int>(r.fully_drained), static_cast<int>(r.saturated));
  }
}

std::vector<double> load_range(double lo, double hi, unsigned points) {
  std::vector<double> out;
  if (points == 0) return out;
  if (points == 1) {
    out.push_back(lo);
    return out;
  }
  out.reserve(points);
  for (unsigned i = 0; i < points; ++i) {
    out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                           static_cast<double>(points - 1));
  }
  return out;
}

void apply_common_flags(config::SimConfig& cfg, const util::ArgParser& args) {
  cfg.k = args.get_u32("k", cfg.k);
  cfg.n = args.get_u32("n", cfg.n);
  cfg.sim.net.num_vcs = args.get_u32("vcs", cfg.sim.net.num_vcs);
  cfg.sim.net.buf_flits = args.get_u32("buf", cfg.sim.net.buf_flits);
  cfg.workload.length.fixed =
      args.get_u32("msg-len", cfg.workload.length.fixed);
  if (auto p = args.get("pattern")) {
    cfg.workload.pattern = traffic::parse_pattern(*p);
  }
  if (auto r = args.get("routing")) {
    cfg.sim.algorithm = routing::parse_algorithm(*r);
  }
  if (auto s = args.get("selection")) {
    cfg.sim.selection = routing::parse_selection(*s);
  }
  if (auto fc = args.get("flow-control")) {
    cfg.sim.flow.scheme = sim::parse_flow_control(*fc);
  }
  cfg.sim.flow.credit_return_delay =
      args.get_u32("credit-delay", cfg.sim.flow.credit_return_delay);
  cfg.sim.detection.threshold =
      args.get_u32("deadlock-threshold", cfg.sim.detection.threshold);
  cfg.protocol.warmup = args.get_uint("warmup", cfg.protocol.warmup);
  cfg.protocol.measure = args.get_uint("measure", cfg.protocol.measure);
  cfg.protocol.drain_max = args.get_uint("drain", cfg.protocol.drain_max);
  cfg.seed = args.get_uint("seed", cfg.seed);
  if (auto lv = args.get("log-level")) {
    obs::set_log_level(obs::parse_log_level(*lv));
  }
}

void apply_fault_flag(config::SimConfig& cfg, const util::ArgParser& args) {
  if (auto spec = args.get("faults")) {
    const topo::KAryNCube topo(cfg.k, cfg.n);
    cfg.sim.faults = fault::load_faults(*spec, topo, cfg.seed);
  }
}

unsigned jobs_flag(const util::ArgParser& args) {
  return args.get_u32("jobs", 0);
}

void apply_scale_env(config::SimConfig& cfg) {
  const char* fast = std::getenv("WORMSIM_FAST");
  if (fast && fast[0] == '1') {
    cfg.n = 2;  // 64-node torus
    cfg.protocol.warmup = std::min<std::uint64_t>(cfg.protocol.warmup, 3000);
    cfg.protocol.measure =
        std::min<std::uint64_t>(cfg.protocol.measure, 10000);
    cfg.protocol.drain_max =
        std::min<std::uint64_t>(cfg.protocol.drain_max, 10000);
  }
}

std::string describe(const config::SimConfig& cfg) {
  std::ostringstream os;
  const topo::KAryNCube t(cfg.k, cfg.n);
  os << "# " << cfg.k << "-ary " << cfg.n << "-cube (" << t.num_nodes()
     << " nodes), " << cfg.sim.net.num_vcs << " VCs x "
     << cfg.sim.net.buf_flits << "-flit buffers, routing="
     << routing::algorithm_name(cfg.sim.algorithm)
     << ", selection=" << routing::selection_name(cfg.sim.selection)
     << ", pattern=" << traffic::pattern_name(cfg.workload.pattern)
     << ", msg=" << cfg.workload.length.fixed << " flits"
     << ", detect=" << cfg.sim.detection.threshold << " cycles"
     << ", warmup=" << cfg.protocol.warmup
     << ", measure=" << cfg.protocol.measure << ", seed=" << cfg.seed;
  // Only non-empty schedules appear, so fault-free banners (and any CSV
  // that embeds them) stay byte-identical to pre-fault-subsystem output.
  if (!cfg.sim.faults.empty()) {
    os << ", faults=" << cfg.sim.faults.size() << " events";
  }
  // Same convention for flow control: wormhole (the default) is silent.
  if (cfg.sim.flow.scheme != sim::FlowControl::Wormhole) {
    os << ", flow-control=" << sim::flow_control_name(cfg.sim.flow.scheme);
    if (cfg.sim.flow.scheme == sim::FlowControl::Credit) {
      os << " (credit-delay=" << cfg.sim.flow.credit_return_delay << ")";
    }
  }
  const config::MemoryFootprint mem = config::estimate_memory(cfg);
  os << "\n# memory: " << std::fixed << std::setprecision(1)
     << mem.bytes_per_node() << " B/node ("
     << mem.total_bytes() / 1024 << " KiB total: network "
     << mem.network_bytes / 1024 << ", lut " << mem.lut_bytes / 1024
     << ", status " << mem.status_bytes / 1024 << ", active-sets "
     << mem.active_set_bytes / 1024 << ")";
  return os.str();
}

}  // namespace wormsim::harness
