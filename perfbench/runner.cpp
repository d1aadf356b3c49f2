// The simulator's benchmark: three workloads, timed from outside
// through the public API, with per-layer costs from a separate traced
// run. perfbench/README.md documents the workloads and every metric;
// perfbench/run.py builds this binary and is the entry point.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --reference FILE --digests-out FILE
//                    [--trace-out FILE]
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the line before it records host and build facts.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_math.hpp"
#include "config/presets.hpp"
#include "core/limiter.hpp"
#include "harness/sweep.hpp"
#include "harness/telemetry.hpp"
#include "obs/log.hpp"
#include "routing/routing_lut.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

using namespace wormsim;
using Clock = std::chrono::steady_clock;

/// The seed the committed reference digests were recorded with.
constexpr std::uint64_t kDefaultSeed = 1;
/// Builds timed for setup_s; the first is cold, the median is reported.
constexpr int kSetupBuilds = 15;
/// Phase-profiler sampling period of the traced run (cycles).
constexpr std::uint64_t kProfilePeriod = 16;
/// Online window width that never closes inside a run: used when an
/// OnlineStats is attached only to carry the phase profiler.
constexpr std::uint64_t kNoWindows = std::uint64_t{1} << 62;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Keeps timed loops' results observable so they are not optimized out.
volatile std::uint64_t g_sink = 0;

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Pins every thread of this process to its own allowed CPU (the main
/// thread to the first) for its lifetime, and restores the main
/// thread's mask on destruction. Left to the scheduler, the shard
/// workers of one simulation are sometimes woken onto the waking core
/// and run one after another, and whether that happens changes from
/// process to process with the host's load; pinning makes "one shard
/// per core" hold in every run.
class PinThreads {
 public:
  PinThreads() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
    }
    std::vector<pid_t> tids = {getpid()};  // the main thread first
    if (DIR* dir = opendir("/proc/self/task")) {
      while (const dirent* e = readdir(dir)) {
        const pid_t tid = std::atoi(e->d_name);
        if (tid > 0 && tid != tids.front()) tids.push_back(tid);
      }
      closedir(dir);
    }
    if (cpus.size() < 2 || tids.size() < 2) return;
    for (std::size_t i = 0; i < tids.size(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i % cpus.size()], &one);
      sched_setaffinity(tids[i], sizeof(one), &one);
    }
    pinned_ = true;
  }
  ~PinThreads() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinThreads(const PinThreads&) = delete;
  PinThreads& operator=(const PinThreads&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// --- Build facts -----------------------------------------------------------

std::string sanitizers() {
  std::string s;
#if defined(__SANITIZE_ADDRESS__)
  s += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  s += "thread ";
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    s += "flags:-fsanitize ";
  }
  if (!s.empty()) s.pop_back();
  return s;
}

constexpr bool kAssertsOff =
#if defined(NDEBUG)
    true;
#else
    false;
#endif

// --- Workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  /// Sweep workloads run through harness::run_sweep with jobs = nproc;
  /// the single workload builds one simulator and calls Simulator::run.
  bool sweep = true;
  /// Attach per-point online statistics (histograms, windows, onset
  /// detector) as the figure benches do.
  bool online = false;
  std::vector<core::LimiterKind> limiters;
  std::vector<double> loads;
  config::SimConfig base;
};

const std::vector<core::LimiterKind> kAllMechanisms = {
    core::LimiterKind::None, core::LimiterKind::ALO, core::LimiterKind::LF,
    core::LimiterKind::DRIL};

/// The paper's network and router (8-ary 3-cube, 3 VCs x 4 flits, TFAR,
/// uniform traffic, 16-flit messages), with windows short enough that a
/// batch repeats several times in one run.
config::SimConfig paper_scale(std::uint64_t seed) {
  config::SimConfig cfg = config::paper_base();
  cfg.protocol.warmup = 1000;
  cfg.protocol.measure = 2000;
  cfg.protocol.drain_max = 1000;
  cfg.seed = util::derive_stream_seed(cfg.seed, seed);
  return cfg;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.base = paper_scale(seed);
  if (name == "saturated_512") {
    w.online = true;
    w.limiters = kAllMechanisms;
    w.loads = {1.0, 1.2};
  } else if (name == "light_512") {
    w.limiters = kAllMechanisms;
    w.loads = {0.1, 0.3, 0.5};
  } else if (name == "single_4096") {
    w.sweep = false;
    w.base.k = 16;  // 16-ary 3-cube: 4096 nodes, LUT in passthrough
    w.base.sim.limiter.kind = core::LimiterKind::ALO;
    w.base.workload.offered_flits_per_node_cycle = 0.35;
    w.base.protocol.warmup = 300;
    w.base.protocol.measure = 500;
    w.base.protocol.drain_max = 500;
    w.limiters = {core::LimiterKind::ALO};
    w.loads = {0.35};
    request_shards(w.base.sim, host_threads());
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (saturated_512, light_512, single_4096)");
  }
  if (w.sweep) {
    w.base.sim.limiter.kind = w.limiters.front();
    w.base.workload.offered_flits_per_node_cycle = w.loads.front();
  }
  return w;
}

std::size_t points_per_batch(const Workload& w) {
  return w.limiters.size() * w.loads.size();
}

/// a / b, or 0 when nothing was counted.
double ratio(std::uint64_t a, std::uint64_t b) {
  return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

std::uint64_t num_nodes(const config::SimConfig& cfg) {
  std::uint64_t nodes = 1;
  for (unsigned d = 0; d < cfg.n; ++d) nodes *= cfg.k;
  return nodes;
}

// Members that a build without the sharded core would not have.
template <typename R>
std::pair<std::uint64_t, std::uint64_t> commit_counts(const R& r) {
  if constexpr (requires { r.commit_decisions + r.commit_conflicts; }) {
    return {r.commit_decisions, r.commit_conflicts};
  } else {
    return {0, 0};
  }
}

template <typename S>
unsigned effective_shards(const S& sim) {
  if constexpr (requires { sim.shards(); }) {
    return sim.shards();
  } else {
    return 1;
  }
}

// --- Correctness -----------------------------------------------------------

/// Digest of every simulated (deterministic) field of a point: host
/// timings and scan diagnostics are left out, so the digest is the same
/// at any jobs or shard count.
std::string point_digest(const metrics::SimResult& r,
                         const metrics::OnlineStats* online) {
  std::ostringstream os;
  os.precision(17);
  os << r.offered_flits_per_node_cycle << '|' << r.pattern << '|'
     << r.limiter << '|' << r.message_length << '|' << r.latency_mean << '|'
     << r.latency_stddev << '|' << r.latency_min << '|' << r.latency_max
     << '|' << r.latency_p50 << '|' << r.latency_p95 << '|' << r.latency_p99
     << '|' << r.accepted_flits_per_node_cycle << '|'
     << r.deadlock_detections << '|' << r.messages_injected_window << '|'
     << r.deadlock_pct << '|' << r.messages_generated << '|'
     << r.messages_injected << '|' << r.messages_delivered << '|'
     << r.measured_delivered << '|' << r.measured_generated << '|'
     << r.messages_lost << '|' << r.avg_queue_len << '|' << r.max_queue_len
     << '|' << r.probe.samples << '|' << r.probe.rule_a << '|'
     << r.probe.rule_b << '|' << r.probe.either << '|' << r.warmup_cycles
     << '|' << r.measure_cycles << '|' << r.total_cycles << '|'
     << r.fully_drained << '|' << r.saturated;
  if (online) {
    os << "|windows=" << online->windows().size()
       << "|sat=" << online->saturated()
       << "|onset=" << online->onset_cycle().value_or(0)
       << "|hist=" << online->latency_hist().count();
  }
  return hex64(fnv1a(os.str()));
}

/// Reference digests: lines of "workload seed index digest"; '#' starts
/// a comment.
std::vector<std::string> load_reference(const std::string& path,
                                        const std::string& workload,
                                        std::uint64_t seed) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, digest;
    std::uint64_t s = 0;
    std::size_t idx = 0;
    if (!(ls >> w >> s >> idx >> digest)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    if (w != workload || s != seed) continue;
    if (out.size() <= idx) out.resize(idx + 1);
    out[idx] = digest;
  }
  return out;
}

// --- Batches ---------------------------------------------------------------

struct Batch {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double node_cycles = 0.0;
  double telemetry_write_s = 0.0;
  std::vector<metrics::SimResult> results;  // point order
  std::vector<std::string> digests;
  std::vector<bool> invariant_failed;
  std::uint64_t online_windows = 0;
  std::array<std::uint64_t, metrics::kPhaseCount> phase_ns{};
  std::uint64_t sampled_cycles = 0;
  sim::CoreScanStats scan;  // single only
};

void add_profile(Batch& b, const metrics::OnlineStats& online) {
  const metrics::PhaseProfiler& prof = online.profiler();
  for (std::size_t p = 0; p < metrics::kPhaseCount; ++p) {
    b.phase_ns[p] += prof.phase_ns(static_cast<metrics::Phase>(p));
  }
  b.sampled_cycles += prof.sampled_cycles();
}

/// One pass over the sweep workload's points through harness::run_sweep,
/// plus the telemetry write the figure benches do after a sweep. With
/// `spans` set this is the traced form: the phase profiler is on and
/// each point, the write and the batch are recorded as spans.
Batch run_sweep_batch(const Workload& w, unsigned jobs, SpanRecorder* spans,
                      std::uint64_t parent) {
  const bool traced = spans != nullptr;
  harness::SweepSpec spec;
  spec.base = w.base;
  spec.limiters = w.limiters;
  spec.offered_loads = w.loads;
  spec.jobs = jobs;
  metrics::SweepStats stats;
  spec.stats = &stats;
  spec.online = w.online || traced;
  if (!w.online) spec.online_config.window_cycles = kNoWindows;
  if (traced) spec.online_config.profile_period = kProfilePeriod;
  const std::uint64_t batch_id = traced ? spans->reserve() : 0;
  if (traced) {
    spec.on_point = [&](const harness::SweepPoint& p) {
      const auto end = Clock::now();
      const auto start =
          end - std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(p.result.wall_seconds));
      std::ostringstream label;
      label << "point " << core::limiter_name(p.limiter) << " @ " << p.offered;
      spans->add(label.str(), start, end, batch_id);
    };
  }

  Batch b;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const std::vector<harness::SweepPoint> points = harness::run_sweep(spec);
  const auto tw0 = Clock::now();
  std::ostringstream telemetry;
  harness::write_sweep_telemetry(telemetry, spec, points, &stats);
  if (w.online) harness::write_sweep_timeseries(telemetry, spec, points);
  const auto t1 = Clock::now();
  b.cpu_s = cpu_seconds() - cpu0;
  b.wall_s = seconds_between(t0, t1);
  b.telemetry_write_s = seconds_between(tw0, t1);
  if (traced) {
    spans->add("telemetry write", tw0, t1, batch_id);
    spans->add_reserved(batch_id, "batch (traced)", t0, t1, parent);
  }

  const double nodes = static_cast<double>(num_nodes(w.base));
  for (const harness::SweepPoint& p : points) {
    b.results.push_back(p.result);
    b.node_cycles += nodes * static_cast<double>(p.result.total_cycles);
    const metrics::OnlineStats* online = w.online ? p.online.get() : nullptr;
    b.digests.push_back(point_digest(p.result, online));
    b.invariant_failed.push_back(false);
    if (online) b.online_windows += online->windows().size();
    if (traced && p.online) add_profile(b, *p.online);
  }
  return b;
}

/// One build + Simulator::run of the single workload and the write of
/// its telemetry record, then the conservation, active-set and
/// flow-control invariant checks (outside the timed interval). The
/// simulator is handed back through `keep` for the traced run's probes.
Batch run_single_batch(const Workload& w, SpanRecorder* spans,
                       std::uint64_t parent,
                       std::unique_ptr<sim::Simulator>* keep) {
  const bool traced = spans != nullptr;
  Batch b;
  metrics::OnlineConfig ocfg;
  ocfg.window_cycles = kNoWindows;
  ocfg.profile_period = kProfilePeriod;
  metrics::OnlineStats online(static_cast<std::uint32_t>(num_nodes(w.base)),
                              ocfg);
  harness::SweepSpec spec;
  spec.base = w.base;
  spec.limiters = w.limiters;
  spec.offered_loads = w.loads;
  spec.jobs = 1;

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  std::unique_ptr<sim::Simulator> sim = config::build_simulator(w.base);
  const PinThreads pin;
  if (traced) sim->set_online(&online);
  const metrics::SimResult r = sim->run(w.base.protocol);
  if (traced) {
    sim->finish_online();
    sim->set_online(nullptr);
  }
  const auto tw0 = Clock::now();
  std::ostringstream telemetry;
  const std::vector<harness::SweepPoint> points = {
      {w.limiters.front(), w.loads.front(), r, nullptr}};
  harness::write_sweep_telemetry(telemetry, spec, points, nullptr);
  const auto t1 = Clock::now();
  b.cpu_s = cpu_seconds() - cpu0;
  b.wall_s = seconds_between(t0, t1);
  b.telemetry_write_s = seconds_between(tw0, t1);
  if (traced) {
    const std::uint64_t batch_id = spans->reserve();
    spans->add("point ALO @ " + std::to_string(w.loads.front()),
               tw0 - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(r.wall_seconds)),
               tw0, batch_id);
    spans->add("telemetry write", tw0, t1, batch_id);
    spans->add_reserved(batch_id, "batch (traced)", t0, t1, parent);
    add_profile(b, online);
  }

  std::string why;
  bool ok = sim->check_conservation(&why);
  ok = ok && sim->check_active_sets(&why);
  ok = ok && sim->check_flow_control(&why);
  if (!ok) std::fprintf(stderr, "perfbench: invariant failed: %s\n", why.c_str());

  b.results.push_back(r);
  b.node_cycles =
      static_cast<double>(num_nodes(w.base)) * static_cast<double>(r.total_cycles);
  b.digests.push_back(point_digest(r, nullptr));
  b.invariant_failed.push_back(!ok);
  b.scan = sim->scan_stats();
  if (keep) *keep = std::move(sim);
  return b;
}

// --- Set-up ----------------------------------------------------------------

struct Setup {
  double setup_s = 0.0;
  double topology_build_s = 0.0;
  double lut_build_s = 0.0;
  double estimate_mb = 0.0;
  unsigned shards = 1;
};

template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

Setup measure_setup(const Workload& w, SpanRecorder* spans,
                    std::uint64_t parent) {
  Setup s;
  const auto t0 = Clock::now();
  const std::uint64_t setup_id = spans ? spans->reserve() : 0;
  std::vector<double> builds;
  for (int i = 0; i < kSetupBuilds; ++i) {
    const auto b0 = Clock::now();
    std::unique_ptr<sim::Simulator> sim = config::build_simulator(w.base);
    const auto b1 = Clock::now();
    builds.push_back(seconds_between(b0, b1));
    s.shards = effective_shards(*sim);
    if (spans) spans->add("build_simulator", b0, b1, setup_id);
  }
  s.setup_s = median(builds);
  // One construction takes tens of nanoseconds, below the clock's
  // resolution: time groups of them.
  constexpr int kTopologyGroup = 1000;
  s.topology_build_s = median_time(kSetupBuilds, [&] {
                         for (int i = 0; i < kTopologyGroup; ++i) {
                           const topo::KAryNCube topo(w.base.k, w.base.n);
                           g_sink = g_sink + topo.num_nodes();
                         }
                       }) /
                       kTopologyGroup;
  const topo::KAryNCube topo(w.base.k, w.base.n);
  const auto fn = routing::make_routing(w.base.sim.algorithm, topo,
                                        w.base.sim.net.num_vcs);
  s.lut_build_s = median_time(kSetupBuilds, [&] {
    const routing::RoutingLut lut(*fn, topo);
    g_sink = g_sink + lut.tabulated();
  });
  s.estimate_mb = static_cast<double>(
                      config::estimate_memory(w.base).total_bytes()) /
                  (1024.0 * 1024.0);
  if (spans) spans->add_reserved(setup_id, "setup", t0, Clock::now(), parent);
  return s;
}

// --- Traced-run probes -----------------------------------------------------

/// Counts allow() outcomes of the wrapped limiter. Installing it moves
/// the simulator onto its virtual limiter path, which gives identical
/// results.
class CountingLimiter final : public core::InjectionLimiter {
 public:
  explicit CountingLimiter(std::unique_ptr<core::InjectionLimiter> inner)
      : inner_(std::move(inner)) {}
  bool allow(const core::InjectionRequest& req,
             const core::ChannelStatus& status) override {
    ++calls;
    const bool ok = inner_->allow(req, status);
    allowed += ok;
    return ok;
  }
  void on_injected(core::NodeId node, std::uint64_t cycle) override {
    inner_->on_injected(node, cycle);
  }
  void reset() override { inner_->reset(); }
  core::LimiterKind kind() const noexcept override { return inner_->kind(); }

  std::uint64_t calls = 0;
  std::uint64_t allowed = 0;

 private:
  std::unique_ptr<core::InjectionLimiter> inner_;
};

struct Probes {
  std::uint64_t route_evals = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t cycles = 0;
  std::uint64_t allow_calls = 0;
  std::uint64_t allow_true = 0;
  std::vector<double> step_us;
  std::array<double, 3> allow_ns{};  // ALO, LF, DRIL
  double lut_route_ns = 0.0;
  double fn_route_ns = 0.0;
};

std::vector<std::pair<topo::NodeId, topo::NodeId>> random_pairs(
    std::uint64_t nodes, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> pick(0, nodes - 1);
  std::vector<std::pair<topo::NodeId, topo::NodeId>> out;
  while (out.size() < count) {
    const auto a = static_cast<topo::NodeId>(pick(rng));
    const auto b = static_cast<topo::NodeId>(pick(rng));
    if (a != b) out.emplace_back(a, b);
  }
  return out;
}

/// ns per call of `call(i)` over `n` inputs, median of five timed
/// repetitions of `rounds` passes each.
template <typename Fn>
double ns_per_call(std::size_t n, int rounds, Fn&& call) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    for (int k = 0; k < rounds; ++k) {
      for (std::size_t i = 0; i < n; ++i) call(i);
    }
    reps.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                       .count() /
                   (static_cast<double>(n) * rounds));
  }
  return median(std::move(reps));
}

/// allow() cost of ALO, LF and DRIL against the live channel status of
/// `sim`, for a fixed random set of requests routed at their sources.
std::array<double, 3> time_allow(sim::Simulator& sim,
                                 const config::SimConfig& cfg,
                                 std::uint64_t seed) {
  const std::uint64_t nodes = sim.topology().num_nodes();
  const auto pairs = random_pairs(nodes, 1024, seed);
  std::vector<routing::RouteResult> routes(pairs.size());
  std::vector<core::InjectionRequest> reqs(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    sim.routing_function().route(pairs[i].first, pairs[i].second, routes[i]);
    reqs[i].node = pairs[i].first;
    reqs[i].dst = pairs[i].second;
    reqs[i].length_flits = cfg.workload.length.fixed;
    reqs[i].route = &routes[i];
    reqs[i].cycle = sim.cycle();
    reqs[i].queue_len = 1;
  }
  const core::ChannelStatus& status = sim.network();
  std::array<double, 3> out{};
  const core::LimiterKind kinds[] = {core::LimiterKind::ALO,
                                     core::LimiterKind::LF,
                                     core::LimiterKind::DRIL};
  std::uint64_t sink = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    core::LimiterConfig lcfg = cfg.sim.limiter;
    lcfg.kind = kinds[k];
    auto limiter =
        core::make_limiter(lcfg, static_cast<core::NodeId>(nodes));
    out[k] = ns_per_call(reqs.size(), 200, [&](std::size_t i) {
      sink += limiter->allow(reqs[i], status);
    });
  }
  g_sink = sink;
  return out;
}

/// RoutingLut::route and the virtual RoutingFunction::route, ns per call.
void time_routes(const config::SimConfig& cfg, std::uint64_t seed,
                 Probes& p) {
  const topo::KAryNCube topo(cfg.k, cfg.n);
  const auto fn =
      routing::make_routing(cfg.sim.algorithm, topo, cfg.sim.net.num_vcs);
  const routing::RoutingLut lut(*fn, topo);
  const auto pairs = random_pairs(topo.num_nodes(), 4096, seed);
  routing::RouteResult out;
  std::uint64_t sink = 0;
  p.lut_route_ns = ns_per_call(pairs.size(), 50, [&](std::size_t i) {
    lut.route(pairs[i].first, pairs[i].second, out);
    sink += out.useful_phys_mask;
  });
  p.fn_route_ns = ns_per_call(pairs.size(), 50, [&](std::size_t i) {
    fn->route(pairs[i].first, pairs[i].second, out);
    sink += out.useful_phys_mask;
  });
  g_sink = sink;
}

/// Probe simulators for a sweep workload: one per point of its grid,
/// `jobs` at a time. Each runs the warm-up, then times individual
/// step() calls; scan_stats() gives exact route-query counts and, for
/// ALO/LF/DRIL, a counting wrapper gives allow() outcomes. allow() is
/// then timed against the live network of the unrestricted probe at the
/// highest load.
constexpr std::uint64_t kProbeTimedSteps = 200;

Probes run_sweep_probes(const Workload& w, unsigned jobs, SpanRecorder* spans,
                        std::uint64_t parent) {
  const auto t0 = Clock::now();
  struct Slot {
    core::LimiterKind limiter;
    double load;
    std::unique_ptr<sim::Simulator> sim;
    sim::CoreScanStats scan;
    std::uint64_t allow_calls = 0;
    std::uint64_t allow_true = 0;
    std::vector<double> step_us;
    std::exception_ptr error;
  };
  const double top = *std::max_element(w.loads.begin(), w.loads.end());
  std::vector<Slot> slots;
  for (const auto limiter : w.limiters) {
    for (const double load : w.loads) slots.push_back({limiter, load, {}, {}});
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < slots.size();) {
      Slot& slot = slots[i];
      try {
        config::SimConfig cfg = w.base;
        cfg.sim.limiter.kind = slot.limiter;
        cfg.workload.offered_flits_per_node_cycle = slot.load;
        cfg.seed = util::derive_stream_seed(w.base.seed, 1000 + i);
        auto sim = config::build_simulator(cfg);
        CountingLimiter* counter = nullptr;
        if (slot.limiter != core::LimiterKind::None) {
          auto c = std::make_unique<CountingLimiter>(core::make_limiter(
              cfg.sim.limiter, static_cast<core::NodeId>(num_nodes(cfg))));
          counter = c.get();
          sim->set_limiter(std::move(c));
        }
        sim->step_cycles(cfg.protocol.warmup);
        for (std::uint64_t c = 0; c < kProbeTimedSteps; ++c) {
          const auto s0 = Clock::now();
          sim->step();
          slot.step_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - s0)
                  .count());
        }
        slot.scan = sim->scan_stats();
        if (counter) {
          slot.allow_calls = counter->calls;
          slot.allow_true = counter->allowed;
        }
        if (slot.limiter == core::LimiterKind::None && slot.load == top) {
          slot.sim = std::move(sim);
        }
      } catch (...) {
        slot.error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned j = 0; j < std::min<std::size_t>(jobs, slots.size()); ++j) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) t.join();

  Probes p;
  sim::Simulator* live = nullptr;
  for (Slot& slot : slots) {
    if (slot.error) std::rethrow_exception(slot.error);
    p.route_evals += slot.scan.route_evals;
    p.memo_hits += slot.scan.route_memo_hits;
    p.cycles += slot.scan.cycles;
    p.allow_calls += slot.allow_calls;
    p.allow_true += slot.allow_true;
    p.step_us.insert(p.step_us.end(), slot.step_us.begin(),
                     slot.step_us.end());
    if (slot.sim) live = slot.sim.get();
  }
  if (!live) throw std::logic_error("sweep workload lacks an unrestricted point");
  p.allow_ns = time_allow(*live, w.base, w.base.seed);
  time_routes(w.base, w.base.seed, p);
  if (spans) spans->add("probes", t0, Clock::now(), parent);
  return p;
}

/// Probes for the single workload, on the simulator its last traced
/// batch left live: timed step() calls, then allow() outcomes under a
/// counting ALO limiter, then allow() and route timings.
constexpr std::uint64_t kSingleTimedSteps = 1200;
constexpr std::uint64_t kSingleAllowSteps = 200;

Probes run_single_probes(const Workload& w, sim::Simulator& sim,
                         SpanRecorder* spans, std::uint64_t parent) {
  const auto t0 = Clock::now();
  const PinThreads pin;
  Probes p;
  for (std::uint64_t c = 0; c < kSingleTimedSteps; ++c) {
    const auto s0 = Clock::now();
    sim.step();
    p.step_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - s0).count());
  }
  auto counter = std::make_unique<CountingLimiter>(core::make_limiter(
      w.base.sim.limiter, static_cast<core::NodeId>(num_nodes(w.base))));
  CountingLimiter* c = counter.get();
  sim.set_limiter(std::move(counter));
  sim.step_cycles(kSingleAllowSteps);
  p.allow_calls = c->calls;
  p.allow_true = c->allowed;
  p.allow_ns = time_allow(sim, w.base, w.base.seed);
  time_routes(w.base, w.base.seed, p);
  if (spans) spans->add("probes", t0, Clock::now(), parent);
  return p;
}

// --- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " + number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

// --- Driver ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string digests_out;
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = v == "1";
    } else if (a == "--reference") {
      o.reference = v;
    } else if (a == "--digests-out") {
      o.digests_out = v;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

int run(const Options& o) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sans = sanitizers();
  if (build_type != "Release" || !sans.empty() || !kAssertsOff) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a '%s' build "
                 "(sanitizers: '%s', NDEBUG %s); build with "
                 "CMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 build_type.c_str(), sans.c_str(),
                 kAssertsOff ? "set" : "unset");
    return 3;
  }
  obs::set_log_level(obs::LogLevel::Warn);
  const Workload w = make_workload(o.workload, o.seed);
  const unsigned nproc = host_threads();
  const unsigned jobs = w.sweep ? nproc : 1;
  SpanRecorder recorder;
  SpanRecorder* spans = o.trace ? &recorder : nullptr;
  const std::uint64_t root = o.trace ? recorder.reserve() : 0;
  const auto run_start = Clock::now();

  const Setup setup = measure_setup(w, spans, root);

  // Measurement: repeat the workload's fixed batch of points for the
  // requested time (at least once); the traced run alternates untraced
  // and traced batches so their walls pair up for trace.overhead_pct.
  std::vector<Batch> plain;
  std::vector<Batch> traced;
  std::unique_ptr<sim::Simulator> live;
  const auto measure_start = Clock::now();
  auto one = [&](SpanRecorder* sp) {
    return w.sweep ? run_sweep_batch(w, jobs, sp, root)
                   : run_single_batch(w, sp, root, sp ? &live : nullptr);
  };
  std::uint64_t thrown = 0;
  for (std::size_t i = 0;; ++i) {
    const auto iter_start = Clock::now();
    try {
      if (o.trace && i % 2 == 1) {
        // Alternate which side of a pair runs first, so warm-up and
        // drift do not bias trace.overhead_pct.
        traced.push_back(one(spans));
        plain.push_back(one(nullptr));
      } else {
        plain.push_back(one(nullptr));
        if (o.trace) traced.push_back(one(spans));
      }
    } catch (const std::exception& e) {
      // A point that throws fails the batch it ran in; stop measuring.
      std::fprintf(stderr, "perfbench: batch failed: %s\n", e.what());
      thrown += points_per_batch(w);
      break;
    }
    const double elapsed = seconds_between(measure_start, Clock::now());
    const double iter = seconds_between(iter_start, Clock::now());
    if (elapsed + iter > o.seconds) break;
  }
  if (plain.empty() || (o.trace && traced.empty())) {
    throw std::runtime_error("no batch of the workload completed");
  }

  // Correctness: every batch must reproduce the expected digests — the
  // committed reference for the default seed, otherwise the run's own
  // first batch — and pass its invariant checks.
  std::vector<std::string> expected = plain.front().digests;
  bool reference_checked = false;
  if (o.seed == kDefaultSeed) {
    expected = load_reference(o.reference, w.name, o.seed);
    reference_checked = true;
    if (expected.empty()) {
      std::fprintf(stderr, "perfbench: no reference digests for %s seed %llu\n",
                   w.name.c_str(), static_cast<unsigned long long>(o.seed));
    }
  }
  std::uint64_t attempted = thrown;
  std::uint64_t failed = thrown;
  for (const auto* set : {&plain, &traced}) {
    for (const Batch& b : *set) {
      attempted += b.digests.size();
      failed += failed_points(b.digests, expected, b.invariant_failed);
    }
  }
  if (!o.digests_out.empty()) {
    std::ofstream out(o.digests_out);
    out << "# workload seed point digest\n";
    for (std::size_t i = 0; i < plain.front().digests.size(); ++i) {
      out << w.name << ' ' << o.seed << ' ' << i << ' '
          << plain.front().digests[i] << '\n';
    }
  }

  const Batch& first = plain.front();
  std::vector<double> walls, cpus, rates, point_walls, telemetry_s, eff,
      point_max;
  for (const Batch& b : plain) {
    walls.push_back(b.wall_s);
    cpus.push_back(b.cpu_s);
    rates.push_back(b.node_cycles / b.wall_s);
    telemetry_s.push_back(b.telemetry_write_s);
    double sum = 0.0, worst = 0.0;
    for (const auto& r : b.results) {
      point_walls.push_back(r.wall_seconds);
      sum += r.wall_seconds;
      worst = std::max(worst, r.wall_seconds);
    }
    eff.push_back(parallel_efficiency(sum, jobs, b.wall_s));
    point_max.push_back(worst);
  }
  std::vector<double> accepted, latency_p50, deadlock_pct, skip, active_links;
  std::uint64_t generated = 0, detections = 0, decisions = 0, conflicts = 0;
  for (const auto& r : first.results) {
    accepted.push_back(r.accepted_flits_per_node_cycle);
    latency_p50.push_back(r.latency_p50);
    deadlock_pct.push_back(r.deadlock_pct);
    skip.push_back(r.scan_skip_ratio);
    active_links.push_back(r.avg_active_links);
    generated += r.messages_generated;
    detections += r.deadlock_detections;
    const auto [d, c] = commit_counts(r);
    decisions += d;
    conflicts += c;
  }
  const Percentile point_p50 = percentile(point_walls, 50.0);

  std::vector<Metric> ms;
  std::string step_facts;
  if (!o.trace) {
    ms = {
        {"wall_s", median(walls), "s"},
        {"cpu_s", median(cpus), "s"},
        {"setup_s", setup.setup_s, "s"},
        {"node_cycles_per_s", median(rates), "1/s"},
        {"point_wall_s_p50", point_p50.value, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_accepted_flits", mean(accepted), "flits/node/cycle"},
        {"sim_latency_p50_cycles", mean(latency_p50), "cycles"},
    };
  } else {
    Probes p = w.sweep ? run_sweep_probes(w, jobs, spans, root)
                       : run_single_probes(w, *live, spans, root);
    if (!w.sweep) {
      for (const Batch& b : traced) {
        p.route_evals += b.scan.route_evals;
        p.memo_hits += b.scan.route_memo_hits;
        p.cycles += b.scan.cycles;
      }
    }
    std::array<std::uint64_t, metrics::kPhaseCount> phase_ns{};
    std::uint64_t sampled = 0;
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      for (std::size_t k = 0; k < metrics::kPhaseCount; ++k) {
        phase_ns[k] += traced[i].phase_ns[k];
      }
      sampled += traced[i].sampled_cycles;
      overhead.push_back((traced[i].wall_s / plain[i].wall_s - 1.0) * 100.0);
    }
    auto phase = [&](const char* name) {
      for (std::size_t k = 0; k < metrics::kPhaseCount; ++k) {
        if (metrics::phase_name(static_cast<metrics::Phase>(k)) == name) {
          return sampled ? static_cast<double>(phase_ns[k]) /
                               static_cast<double>(sampled)
                         : 0.0;
        }
      }
      return 0.0;  // phase not present in this build
    };
    const Percentile step50 = percentile(p.step_us, 50.0);
    const Percentile step99 = percentile(p.step_us, 99.0);
    step_facts = ", \"step_samples\": " + std::to_string(step99.count) +
                 ", \"step_samples_beyond_p99\": " +
                 std::to_string(samples_beyond(p.step_us, step99.value));
    ms = {
        {"topology.build_s", setup.topology_build_s, "s"},
        {"routing.lut_build_s", setup.lut_build_s, "s"},
        {"routing.memo_hit_rate",
         ratio(p.memo_hits, p.memo_hits + p.route_evals), "ratio"},
        {"routing.route_evals", ratio(p.route_evals, p.cycles), "1/cycle"},
        {"routing.lut_route_ns", p.lut_route_ns, "ns"},
        {"routing.fn_route_ns", p.fn_route_ns, "ns"},
        {"core.allow_ns.alo", p.allow_ns[0], "ns"},
        {"core.allow_ns.lf", p.allow_ns[1], "ns"},
        {"core.allow_ns.dril", p.allow_ns[2], "ns"},
        {"core.allow_frac", ratio(p.allow_true, p.allow_calls), "ratio"},
        {"traffic.messages_generated", static_cast<double>(generated),
         "count"},
        {"sim.phase_ns.generate", phase("generate"), "ns/cycle"},
        {"sim.phase_ns.arrivals", phase("arrivals"), "ns/cycle"},
        {"sim.phase_ns.eject", phase("eject"), "ns/cycle"},
        {"sim.phase_ns.route", phase("route"), "ns/cycle"},
        {"sim.phase_ns.transmit", phase("transmit"), "ns/cycle"},
        {"sim.phase_ns.inject", phase("inject"), "ns/cycle"},
        {"sim.phase_ns.route_eval", phase("route_eval"), "ns/cycle"},
        {"sim.phase_ns.route_commit", phase("route_commit"), "ns/cycle"},
        {"sim.phase_ns.transmit_eval", phase("transmit_eval"), "ns/cycle"},
        {"sim.phase_ns.transmit_commit", phase("transmit_commit"),
         "ns/cycle"},
        {"sim.scan_skip_ratio", mean(skip), "ratio"},
        {"sim.avg_active_links", mean(active_links), "count"},
        {"sim.step_us_p50", step50.value, "us"},
        {"sim.step_us_p99", step99.value, "us"},
        {"deadlock.detections", static_cast<double>(detections), "count"},
        {"sim_deadlock_pct", mean(deadlock_pct), "%"},
        {"metrics.online_windows", static_cast<double>(first.online_windows),
         "count"},
        {"metrics.telemetry_write_s", median(telemetry_s), "s"},
        {"harness.parallel_efficiency", median(eff), "ratio"},
        {"harness.point_wall_s_max", median(point_max), "s"},
        {"util.shards", static_cast<double>(setup.shards), "count"},
        {"util.commit_conflict_rate", ratio(conflicts, decisions), "ratio"},
        {"config.estimate_mb", setup.estimate_mb, "MB"},
        {"trace.overhead_pct", median(overhead), "%"},
        {"failed_point_frac", failed_fraction(failed, attempted), "ratio"},
    };
    recorder.add_reserved(root, "workload " + w.name, run_start, Clock::now());
    if (!o.trace_out.empty() && !recorder.write_chrome_json(o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
  }

  auto json_list = [](const std::vector<double>& vs) {
    std::string out;
    for (const double v : vs) out += (out.empty() ? "" : ", ") + number(v);
    return out;
  };
  std::string digests;
  for (const auto& d : first.digests) {
    digests += (digests.empty() ? "\"" : ", \"") + d + "\"";
  }
  std::printf(
      "{\"facts\": {\"workload\": %s, \"seed\": %llu, \"nproc\": %u, "
      "\"jobs\": %u, \"shards\": %u, \"build_type\": %s, \"sanitizers\": "
      "%s, \"ndebug\": %s, \"batches\": %zu, \"traced_batches\": %zu, "
      "\"points_per_batch\": %zu, \"point_wall_samples\": %zu%s, "
      "\"batch_wall_s\": [%s], \"batch_cpu_s\": [%s], "
      "\"reference_checked\": %s, "
      "\"digests\": [%s]}}\n",
      json_string(w.name).c_str(), static_cast<unsigned long long>(o.seed),
      nproc, jobs, setup.shards, json_string(build_type).c_str(),
      json_string(sans.empty() ? "none" : sans).c_str(),
      kAssertsOff ? "true" : "false", plain.size(), traced.size(),
      points_per_batch(w), point_p50.count, step_facts.c_str(),
      json_list(walls).c_str(), json_list(cpus).c_str(),
      reference_checked ? "true" : "false", digests.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(ms).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
