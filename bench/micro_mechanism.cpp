// Micro-benchmarks (google-benchmark): per-operation cost of the ALO
// decision (behavioural predicate and gate-circuit model), the LF and
// DRIL checks, the routing functions and the selection function — the
// hardware-cost claims of §3 translated to software terms, plus overall
// simulator cycle throughput.
//
// Besides the google-benchmark suite, `--hotpath-json [path]` records
// the simulation core's exact per-cycle work at the FAST fig05 low-load
// and saturation points — element visits against a full scan's, and the
// blocked-header memo's hit rate — and emits a JSON record gated on
// those deterministic counts (see BENCH_hotpath.json at the repo root
// for the committed record), and
// `--obs-overhead-json [path]` measures the cost of the observability
// hooks at the same operating points: each mode (instrumented-off as an
// A/A control, online statistics, tracing, tracing+spatial) runs in
// alternating CPU-time pairs against the instrumented-off baseline
// (branch-on-null checks only) in the same process, and its overhead is
// the median per-pair ratio (see BENCH_obs_overhead.json for the
// committed record).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "config/presets.hpp"
#include "core/alo.hpp"
#include "core/alo_gates.hpp"
#include "core/dril.hpp"
#include "core/linear_function.hpp"
#include "metrics/spatial.hpp"
#include "obs/log.hpp"
#include "obs/tracer.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace wormsim;

/// Synthetic channel-status register with pseudo-random occupancy: a
/// pool of rows that free_row(node) cycles through.
class SyntheticStatus final : public core::ChannelStatus {
 public:
  SyntheticStatus(unsigned channels, unsigned vcs, std::uint64_t seed)
      : channels_(channels), vcs_(vcs), rng_(seed) {
    masks_.resize(1024);
    for (auto& m : masks_) {
      m = static_cast<std::uint8_t>(rng_.bits() & ((1u << vcs) - 1));
    }
  }
  unsigned num_phys_channels() const override { return channels_; }
  unsigned num_vcs() const override { return vcs_; }
  const std::uint8_t* free_row(core::NodeId node) const override {
    return masks_.data() + (node % (masks_.size() / channels_)) * channels_;
  }

 private:
  unsigned channels_;
  unsigned vcs_;
  util::Rng rng_;
  std::vector<std::uint8_t> masks_;
};

void BM_AloPredicate(benchmark::State& state) {
  SyntheticStatus status(6, 3, 1);
  std::uint32_t node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::evaluate_alo(status.free_row(node++ % 512), 3, 0b010101));
  }
}
BENCHMARK(BM_AloPredicate);

void BM_AloGateCircuit(benchmark::State& state) {
  core::AloGateCircuit circuit(6, 3);
  util::Rng rng(2);
  std::uint64_t busy = rng.bits();
  for (auto _ : state) {
    busy = busy * 6364136223846793005ULL + 1;
    benchmark::DoNotOptimize(
        circuit.evaluate(busy & ((1ULL << 18) - 1), 0b010101));
  }
}
BENCHMARK(BM_AloGateCircuit);

void BM_LinearFunctionCheck(benchmark::State& state) {
  SyntheticStatus status(6, 3, 3);
  core::LinearFunctionLimiter lf(0.625);
  routing::RouteResult route;
  for (unsigned c = 0; c < 6; c += 2) {
    route.candidates.push_back({static_cast<topo::ChannelId>(c), 0b111, false});
    route.useful_phys_mask |= 1u << c;
  }
  core::InjectionRequest req;
  req.route = &route;
  std::uint32_t node = 0;
  for (auto _ : state) {
    req.node = node++ % 512;
    benchmark::DoNotOptimize(lf.allow(req, status));
  }
}
BENCHMARK(BM_LinearFunctionCheck);

void BM_DrilCheck(benchmark::State& state) {
  SyntheticStatus status(6, 3, 4);
  core::DrilLimiter dril(512, 16, 1, 2048);
  routing::RouteResult route;
  route.useful_phys_mask = 0b111111;
  core::InjectionRequest req;
  req.route = &route;
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    req.node = static_cast<core::NodeId>(cycle % 512);
    req.cycle = ++cycle;
    req.head_wait = cycle % 40;
    benchmark::DoNotOptimize(dril.allow(req, status));
  }
}
BENCHMARK(BM_DrilCheck);

void BM_RoutingFunction(benchmark::State& state) {
  const topo::KAryNCube topo(8, 3);
  const auto algo = static_cast<routing::Algorithm>(state.range(0));
  auto routing = routing::make_routing(algo, topo, 3);
  routing::RouteResult out;
  util::Rng rng(5);
  for (auto _ : state) {
    const auto src = static_cast<topo::NodeId>(rng.below(512));
    auto dst = static_cast<topo::NodeId>(rng.below(512));
    if (dst == src) dst = (dst + 1) % 512;
    routing->route(src, dst, out);
    benchmark::DoNotOptimize(out.useful_phys_mask);
  }
}
BENCHMARK(BM_RoutingFunction)
    ->Arg(static_cast<int>(routing::Algorithm::TFAR))
    ->Arg(static_cast<int>(routing::Algorithm::DOR))
    ->Arg(static_cast<int>(routing::Algorithm::Duato));

/// The simulator's route query: the closed-form 4-byte code, expanded
/// into the same RouteResult BM_RoutingFunction produces.
void BM_RouteCode(benchmark::State& state) {
  const topo::KAryNCube topo(8, 3);
  const auto algo = static_cast<routing::Algorithm>(state.range(0));
  const routing::RouteCoder coder(topo);
  routing::RouteResult out;
  util::Rng rng(5);
  for (auto _ : state) {
    const auto src = static_cast<topo::NodeId>(rng.below(512));
    auto dst = static_cast<topo::NodeId>(rng.below(512));
    if (dst == src) dst = (dst + 1) % 512;
    routing::expand(coder.code(src, dst), algo, 3, out);
    benchmark::DoNotOptimize(out.useful_phys_mask);
  }
}
BENCHMARK(BM_RouteCode)
    ->Arg(static_cast<int>(routing::Algorithm::TFAR))
    ->Arg(static_cast<int>(routing::Algorithm::DOR))
    ->Arg(static_cast<int>(routing::Algorithm::Duato));

void BM_SimulatorCycle(benchmark::State& state) {
  // Whole-simulator throughput: node-cycles per second on the
  // configured cube size (range(0) = n) at the given offered load
  // (range(1), in hundredths of a flit/node/cycle).
  config::SimConfig cfg = config::paper_base();
  cfg.n = static_cast<unsigned>(state.range(0));
  cfg.workload.offered_flits_per_node_cycle =
      static_cast<double>(state.range(1)) / 100.0;
  auto sim = config::build_simulator(cfg);
  sim->step_cycles(500);  // warm into steady state
  const auto nodes = sim->topology().num_nodes();
  for (auto _ : state) {
    sim->step();
  }
  state.SetItemsProcessed(state.iterations() * nodes);
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["skip_ratio"] =
      sim->scan_stats().skipped_scan_ratio(sim->full_scan_visits());
}
BENCHMARK(BM_SimulatorCycle)
    ->Args({2, 10})
    ->Args({2, 40})
    ->Args({3, 40})
    ->Unit(benchmark::kMicrosecond);

// --- Hot-path JSON mode ------------------------------------------------

config::SimConfig hotpath_base() {
  // The fig05 bench under WORMSIM_FAST=1: 8-ary 2-cube, uniform
  // traffic, 16-flit messages, bench-sized windows.
  config::SimConfig cfg = config::paper_base();
  cfg.n = 2;
  cfg.protocol.warmup = 3000;
  cfg.protocol.measure = 8000;
  cfg.protocol.drain_max = 8000;
  cfg.workload.pattern = traffic::PatternKind::Uniform;
  cfg.workload.length.fixed = 16;
  return cfg;
}

void keep_best(metrics::SimResult& best, metrics::SimResult r, bool first) {
  if (first || r.cycles_per_second > best.cycles_per_second) {
    best = std::move(r);
  }
}

/// CPU seconds consumed by this process so far. On a shared vCPU, wall
/// clock carries multi-second preemption phases that dwarf the effects
/// the overhead gates bound, while process CPU time is immune to them
/// (frequency drift remains, which alternating pair order cancels).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The gates of the hot-path record. The counts behind them are exact
/// (same seed, same visits), so each bound sits at the committed value
/// rounded toward failure in the third decimal: a core that visits
/// more elements or parks fewer headers fails it on any host.
constexpr double kLowLoadSkipMin = 0.896;
constexpr double kSaturationSkipMin = 0.177;
constexpr double kSaturationMemoHitMin = 0.945;

int run_hotpath_json(const char* path) {
  // Timing reps per load: only cycles_per_second varies between them
  // (its best rep is reported, for information).
  const int reps = 3;
  const double loads[] = {0.1, 1.2};

  std::ostream* os = &std::cout;
  std::ofstream file;
  if (path) {
    file.open(path);
    if (!file) {
      obs::logf(obs::LogLevel::Error, "error: cannot write %s\n", path);
      return 1;
    }
    os = &file;
  }

  util::JsonWriter w(*os);
  w.begin_object();
  w.field("schema", "wormsim.bench/1");
  w.field("bench", "hotpath");
  w.field("config",
          "fig05 FAST point: 8-ary 2-cube (64 nodes), uniform, 16-flit "
          "messages, warmup 3000, measure 8000, drain 8000; "
          "visits_per_cycle = element visits of the generate, eject, "
          "transmit and inject phases per cycle, full_scan_visits_per_cycle "
          "= network links + 3 x nodes, scan_skip_ratio = 1 - their ratio; "
          "cycles_per_second (best of 3 reps) is information only");
  w.key("points");
  w.begin_array();
  bool ok = true;
  for (const double offered : loads) {
    obs::logf(obs::LogLevel::Info, "# hotpath: offered=%.2f...\n", offered);
    config::SimConfig cfg = hotpath_base();
    cfg.workload.offered_flits_per_node_cycle = offered;
    metrics::SimResult best;
    sim::CoreScanStats scan;
    std::uint64_t full = 0;
    for (int rep = 0; rep < reps; ++rep) {
      auto sim = config::build_simulator(cfg);
      keep_best(best, sim->run(cfg.protocol), rep == 0);
      scan = sim->scan_stats();
      full = sim->full_scan_visits();
    }
    const double visits = static_cast<double>(scan.scan_visited) /
                          static_cast<double>(scan.cycles);
    w.begin_object();
    w.field("offered_flits_node_cycle", offered);
    w.field("visits_per_cycle", std::round(visits * 100.0) / 100.0);
    w.field("full_scan_visits_per_cycle", full);
    w.field("scan_skip_ratio", std::round(best.scan_skip_ratio * 1e4) / 1e4);
    w.field("route_memo_hit_rate",
            std::round(best.route_memo_hit_rate * 1e4) / 1e4);
    w.field("avg_active_links", std::round(best.avg_active_links * 100) / 100);
    w.field("avg_active_nodes", std::round(best.avg_active_nodes * 100) / 100);
    w.field("total_cycles", best.total_cycles);
    w.field("cycles_per_second", std::round(best.cycles_per_second));
    w.end_object();
    obs::logf(obs::LogLevel::Info,
              "# hotpath: offered=%.2f visits/cycle %.2f of %llu "
              "(skip ratio %.4f), memo hit rate %.4f, %.0f cycles/s\n",
              offered, visits, static_cast<unsigned long long>(full),
              best.scan_skip_ratio, best.route_memo_hit_rate,
              best.cycles_per_second);
    if (offered == loads[0] && best.scan_skip_ratio < kLowLoadSkipMin) {
      ok = false;
    }
    if (offered == loads[1] && (best.scan_skip_ratio < kSaturationSkipMin ||
                                best.route_memo_hit_rate <
                                    kSaturationMemoHitMin)) {
      ok = false;
    }
  }
  w.end_array();
  w.key("criteria");
  w.begin_object();
  w.field("low_load_scan_skip_ratio_min", kLowLoadSkipMin);
  w.field("saturation_scan_skip_ratio_min", kSaturationSkipMin);
  w.field("saturation_route_memo_hit_rate_min", kSaturationMemoHitMin);
  w.end_object();
  w.end_object();
  *os << "\n";
  if (!ok) {
    obs::logf(obs::LogLevel::Error, "# hotpath: ACCEPTANCE CRITERIA NOT MET\n");
    return 2;
  }
  return 0;
}

// --- Observability-overhead JSON mode ----------------------------------

enum class ObsMode { Off, Online, Tracing, TracingSpatial };

metrics::SimResult run_obs_point(double offered, ObsMode mode,
                                 std::uint64_t* events_recorded,
                                 std::uint64_t* events_dropped,
                                 unsigned window_scale = 1) {
  config::SimConfig cfg = hotpath_base();
  cfg.workload.offered_flits_per_node_cycle = offered;
  cfg.protocol.warmup *= window_scale;
  cfg.protocol.measure *= window_scale;
  cfg.protocol.drain_max *= window_scale;
  if (mode == ObsMode::Off) return config::run_experiment(cfg);

  const topo::KAryNCube topo(cfg.k, cfg.n);
  if (mode == ObsMode::Online) {
    // The streaming-statistics engine exactly as --metrics-out /
    // --timeseries-out attach it: latency histograms plus the windowed
    // recorder and onset detector (profiler off — it is opt-in).
    metrics::OnlineStats online(topo.num_nodes());
    config::RunHooks hooks;
    hooks.online = &online;
    return config::run_experiment(cfg, hooks);
  }
  obs::Tracer tracer;
  metrics::SpatialMetrics spatial(topo.num_nodes(),
                                  topo.num_nodes() * topo.num_channels(),
                                  cfg.sim.net.num_vcs);
  config::RunHooks hooks;
  hooks.tracer = &tracer;
  if (mode == ObsMode::TracingSpatial) hooks.spatial = &spatial;
  metrics::SimResult r = config::run_experiment(cfg, hooks);
  if (events_recorded) *events_recorded = tracer.events_recorded();
  if (events_dropped) *events_dropped = tracer.events_dropped();
  return r;
}

/// One instrumented mode against the instrumented-off baseline over
/// `pairs` alternating back-to-back pairs, the order alternating per
/// pair so slow frequency drift cancels. The overhead is the median of the
/// per-pair CPU-time ratios: process CPU time leaves out the time the
/// process waits to be scheduled, alternating order cancels frequency
/// drift, and the median ignores the few pairs that other tenants still
/// skew (shared caches, or a virtual CPU its host deschedules, which
/// the guest counts as CPU time), where one such pair can swing a ratio
/// of sums. With mode == Off this is an A/A control: it measures the
/// method's noise floor, which is what the instrumented-off ≤2% gate
/// bounds. The mode's fastest rep is kept as its JSON sample.
struct ObsOverhead {
  metrics::SimResult sample;
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
  double pct = 0.0;
};

ObsOverhead measure_obs_overhead(double offered, int pairs, ObsMode mode) {
  const unsigned scale = offered < 0.5 ? 4 : 1;
  ObsOverhead out;
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    double base_cpu = 0.0, mode_cpu = 0.0;
    const auto run = [&](bool instrumented) {
      const double t0 = cpu_seconds();
      if (!instrumented) {
        run_obs_point(offered, ObsMode::Off, nullptr, nullptr, scale);
        base_cpu = cpu_seconds() - t0;
        return;
      }
      metrics::SimResult r = run_obs_point(
          offered, mode, &out.events_recorded, &out.events_dropped, scale);
      mode_cpu = cpu_seconds() - t0;
      keep_best(out.sample, std::move(r), i == 0);
    };
    run(i % 2 != 0);
    run(i % 2 == 0);
    ratios.push_back(mode_cpu / base_cpu);
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  const double median = ratios.size() % 2 != 0
                            ? ratios[mid]
                            : (ratios[mid - 1] + ratios[mid]) / 2.0;
  out.pct = (median - 1.0) * 100.0;
  return out;
}

int run_obs_overhead_json(const char* path) {
  const int pairs = 20;
  const double loads[] = {0.1, 1.2};
  // The A/A control bounds the instrumented-off noise floor (the
  // branch-on-null hook checks plus measurement noise), and the online
  // gate bounds the streaming histograms + windowed-recorder + detector
  // cost.
  constexpr double kMaxOffOverheadPct = 2.0;
  constexpr double kMaxOnlineOverheadPct = 5.0;
  // Generous tracing gates: these exist to catch pathological
  // regressions (a hook on the per-flit path, say), not to benchmark
  // the tracer.
  constexpr double kMaxTracingOverheadPct = 25.0;
  constexpr double kMaxTracingSpatialOverheadPct = 50.0;

  std::ostream* os = &std::cout;
  std::ofstream file;
  if (path) {
    file.open(path);
    if (!file) {
      obs::logf(obs::LogLevel::Error, "error: cannot write %s\n", path);
      return 1;
    }
    os = &file;
  }

  util::JsonWriter w(*os);
  w.begin_object();
  w.field("schema", "wormsim.bench/1");
  w.field("bench", "obs_overhead");
  w.field("config",
          "fig05 FAST point: 8-ary 2-cube (64 nodes), uniform, 16-flit "
          "messages, warmup 3000, measure 8000, drain 8000 (x4 at load "
          "0.1); each mode's overhead = median per-pair "
          "CPU-time ratio against the instrumented-off run over 20 "
          "alternating pairs (off is an A/A control bounding the noise "
          "floor); samples = each mode's fastest rep");
  w.field("baseline_source", "instrumented-off run, same process and pair");
  w.key("points");
  w.begin_array();

  bool ok = true;
  const auto emit_mode = [&](const char* name, const ObsOverhead& m,
                             bool traced) {
    w.key(name);
    w.begin_object();
    w.field("cycles_per_second", m.sample.cycles_per_second);
    w.field("wall_seconds", m.sample.wall_seconds);
    w.field("total_cycles", m.sample.total_cycles);
    if (traced) {
      w.field("events_recorded", m.events_recorded);
      w.field("events_dropped", m.events_dropped);
    }
    w.end_object();
  };

  for (const double offered : loads) {
    obs::logf(obs::LogLevel::Info,
              "# obs-overhead: offered=%.2f (%d pairs per mode)...\n",
              offered, pairs);
    // Positive = the instrumented mode is slower than the
    // instrumented-off baseline of its own pairs.
    const ObsOverhead off =
        measure_obs_overhead(offered, pairs, ObsMode::Off);
    const ObsOverhead online =
        measure_obs_overhead(offered, pairs, ObsMode::Online);
    const ObsOverhead tracing =
        measure_obs_overhead(offered, pairs, ObsMode::Tracing);
    const ObsOverhead both =
        measure_obs_overhead(offered, pairs, ObsMode::TracingSpatial);

    w.begin_object();
    w.field("offered_flits_node_cycle", offered);
    emit_mode("off", off, false);
    emit_mode("online", online, false);
    emit_mode("tracing", tracing, true);
    emit_mode("tracing_spatial", both, true);
    w.field("off_overhead_pct", off.pct);
    w.field("online_overhead_pct", online.pct);
    w.field("tracing_overhead_pct", tracing.pct);
    w.field("tracing_spatial_overhead_pct", both.pct);
    w.end_object();

    obs::logf(obs::LogLevel::Info,
              "# obs-overhead: offered=%.2f off=%.0f c/s, off(A/A) %+.2f%%, "
              "online %+.2f%%, tracing %+.2f%%, +spatial %+.2f%%\n",
              offered, off.sample.cycles_per_second, off.pct, online.pct,
              tracing.pct, both.pct);
    if (off.pct > kMaxOffOverheadPct) ok = false;
    if (online.pct > kMaxOnlineOverheadPct) ok = false;
    if (tracing.pct > kMaxTracingOverheadPct) ok = false;
    if (both.pct > kMaxTracingSpatialOverheadPct) ok = false;
  }

  w.end_array();
  w.key("criteria");
  w.begin_object();
  w.field("off_overhead_max_pct", kMaxOffOverheadPct);
  w.field("online_overhead_max_pct", kMaxOnlineOverheadPct);
  w.field("tracing_overhead_max_pct", kMaxTracingOverheadPct);
  w.field("tracing_spatial_overhead_max_pct", kMaxTracingSpatialOverheadPct);
  w.end_object();
  w.end_object();
  *os << "\n";
  if (!ok) {
    obs::logf(obs::LogLevel::Error,
              "# obs-overhead: ACCEPTANCE CRITERIA NOT MET\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hotpath-json") == 0) {
      return run_hotpath_json(i + 1 < argc ? argv[i + 1] : nullptr);
    }
    if (std::strcmp(argv[i], "--obs-overhead-json") == 0) {
      return run_obs_overhead_json(i + 1 < argc ? argv[i + 1] : nullptr);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
