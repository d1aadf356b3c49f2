#include "harness/telemetry.hpp"

#include <cmath>
#include <fstream>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "obs/log.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace wormsim::harness {

namespace {

void emit_config(util::JsonWriter& w, const config::SimConfig& cfg) {
  w.key("config");
  w.begin_object();
  w.field("k", cfg.k);
  w.field("n", cfg.n);
  w.field("vcs", cfg.sim.net.num_vcs);
  w.field("buf_flits", cfg.sim.net.buf_flits);
  w.field("inj_channels", cfg.sim.net.inj_channels);
  w.field("eje_channels", cfg.sim.net.eje_channels);
  w.field("routing", routing::algorithm_name(cfg.sim.algorithm));
  w.field("selection", routing::selection_name(cfg.sim.selection));
  w.field("pattern", traffic::pattern_name(cfg.workload.pattern));
  w.field("msg_len", cfg.workload.length.fixed);
  w.field("deadlock_threshold", cfg.sim.detection.threshold);
  w.field("warmup", cfg.protocol.warmup);
  w.field("measure", cfg.protocol.measure);
  w.field("drain_max", cfg.protocol.drain_max);
  w.field("seed", cfg.seed);
  w.field("fault_schedule_events",
          static_cast<std::uint64_t>(cfg.sim.faults.size()));
  w.field("flow_control", sim::flow_control_name(cfg.sim.flow.scheme));
  if (cfg.sim.flow.scheme == sim::FlowControl::Credit) {
    w.field("credit_return_delay", cfg.sim.flow.credit_return_delay);
  }
  w.end_object();
}

void emit_result(util::JsonWriter& w, const metrics::SimResult& r) {
  w.key("result");
  w.begin_object();
  w.field("latency_mean", r.latency_mean);
  w.field("latency_stddev", r.latency_stddev);
  w.field("latency_p50", r.latency_p50);
  w.field("latency_p95", r.latency_p95);
  w.field("latency_p99", r.latency_p99);
  w.field("accepted_flits_per_node_cycle", r.accepted_flits_per_node_cycle);
  w.field("deadlock_detections", r.deadlock_detections);
  w.field("deadlock_pct", r.deadlock_pct);
  w.field("messages_generated", r.messages_generated);
  w.field("messages_injected", r.messages_injected);
  w.field("messages_delivered", r.messages_delivered);
  w.field("messages_lost", r.messages_lost);
  w.field("fault_events", r.fault_events);
  w.field("lut_rebuilds", r.lut_rebuilds);
  w.field("avg_queue_len", r.avg_queue_len);
  w.field("max_queue_len", r.max_queue_len);
  w.field("probe_pct_a", r.probe.pct_a());
  w.field("probe_pct_b", r.probe.pct_b());
  w.field("probe_pct_either", r.probe.pct_either());
  w.field("total_cycles", r.total_cycles);
  w.field("fully_drained", r.fully_drained);
  w.field("saturated", r.saturated);
  w.end_object();
}

/// Deterministic online-statistics sections. Emitted BEFORE "perf":
/// consumers strip everything from the "perf" key to end of line when
/// comparing records across job counts, and these sections are exact.
void emit_online(util::JsonWriter& w, const metrics::OnlineStats& online) {
  const metrics::LogHistogram& h = online.latency_hist();
  w.key("latency_hist");
  w.begin_object();
  w.field("count", h.count());
  w.field("p50", h.quantile(0.50));
  w.field("p90", h.quantile(0.90));
  w.field("p99", h.quantile(0.99));
  w.field("p999", h.quantile(0.999));
  w.field("max", h.max_value());
  w.key("buckets");
  w.begin_array();
  h.for_each_bucket([&](const metrics::LogHistogram::Bucket& b) {
    w.begin_array();
    w.value(b.lo);
    w.value(b.hi);
    w.value(b.count);
    w.end_array();
  });
  w.end_array();
  w.end_object();

  std::uint64_t saturating = 0;
  for (const auto& win : online.windows())
    if (win.saturating) ++saturating;
  w.key("saturation");
  w.begin_object();
  w.field("saturated", online.saturated());
  w.key("onset_cycle");
  if (online.onset_cycle())
    w.value(*online.onset_cycle());
  else
    w.value_null();
  w.field("windows", static_cast<std::uint64_t>(online.windows().size()));
  w.field("saturating_windows", saturating);
  w.field("window_cycles", online.config().window_cycles);
  w.end_object();
}

/// Wall-clock-dependent diagnostics, quarantined under "perf" so the
/// rest of a record is reproducible bit-for-bit for a fixed seed.
/// The memory estimate lives here too: it describes the host-side
/// footprint, never the simulated results.
/// `online` (nullable) contributes the phase-profiler attribution.
void emit_perf(util::JsonWriter& w, const config::SimConfig& cfg,
               const metrics::SimResult& r,
               const metrics::OnlineStats* online) {
  w.key("perf");
  w.begin_object();
  w.field("wall_seconds", r.wall_seconds);
  w.field("cycles_per_second", r.cycles_per_second);
  w.field("scan_skip_ratio", r.scan_skip_ratio);
  w.field("avg_active_links", r.avg_active_links);
  w.field("avg_active_nodes", r.avg_active_nodes);
  w.field("route_memo_hit_rate", r.route_memo_hit_rate);
  const config::MemoryFootprint mem = config::estimate_memory(cfg);
  w.key("memory");
  w.begin_object();
  w.field("network_bytes", mem.network_bytes);
  w.field("lut_bytes", mem.lut_bytes);
  w.field("status_bytes", mem.status_bytes);
  w.field("active_set_bytes", mem.active_set_bytes);
  w.field("total_bytes", mem.total_bytes());
  w.field("bytes_per_node", mem.bytes_per_node());
  w.end_object();
  if (online && online->profile_enabled()) {
    const metrics::PhaseProfiler& prof = online->profiler();
    w.key("profile");
    w.begin_object();
    w.field("sampled_cycles", prof.sampled_cycles());
    w.field("total_ns", prof.total_ns());
    w.key("phase_ns");
    w.begin_object();
    for (std::size_t p = 0; p < metrics::kPhaseCount; ++p) {
      const auto phase = static_cast<metrics::Phase>(p);
      w.field(metrics::phase_name(phase), prof.phase_ns(phase));
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
}

/// Smallest offered load the detector flagged for `limiter`; nullopt
/// when no point of that mechanism saturated (or none carried stats).
std::optional<double> saturation_load(const std::vector<SweepPoint>& points,
                                      core::LimiterKind limiter) {
  std::optional<double> load;
  for (const SweepPoint& p : points) {
    if (p.limiter != limiter || !p.online || !p.online->saturated()) continue;
    if (!load || p.offered < *load) load = p.offered;
  }
  return load;
}

}  // namespace

void write_sweep_telemetry(std::ostream& out, const SweepSpec& spec,
                           const std::vector<SweepPoint>& points,
                           const metrics::SweepStats* stats) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    util::JsonWriter w(out);
    w.begin_object();
    w.field("schema", kTelemetrySchema);
    w.field("kind", "point");
    w.field("point", static_cast<std::uint64_t>(i));
    w.field("mechanism", core::limiter_name(p.limiter));
    w.field("offered", p.offered);
    config::SimConfig cfg = spec.base;
    cfg.sim.limiter.kind = p.limiter;
    cfg.workload.offered_flits_per_node_cycle = p.offered;
    cfg.seed = util::derive_stream_seed(spec.base.seed, i);
    emit_config(w, cfg);
    emit_result(w, p.result);
    if (p.online) emit_online(w, *p.online);
    if (p.trace) {
      w.key("trace");
      w.begin_object();
      w.field("events_recorded", p.trace->events_recorded());
      w.field("events_dropped", p.trace->events_dropped());
      w.end_object();
    }
    emit_perf(w, cfg, p.result, p.online.get());
    w.end_object();
    out << "\n";
  }

  bool any_online = false;
  for (const SweepPoint& p : points) any_online |= p.online != nullptr;

  util::JsonWriter w(out);
  w.begin_object();
  w.field("schema", kTelemetrySchema);
  w.field("kind", "summary");
  w.field("points", static_cast<std::uint64_t>(points.size()));
  if (any_online) {
    w.key("saturation_load");
    w.begin_object();
    for (const auto limiter : spec.limiters) {
      w.key(core::limiter_name(limiter));
      if (const auto load = saturation_load(points, limiter))
        w.value(*load);
      else
        w.value_null();
    }
    w.end_object();
  }
  if (stats) {
    w.field("simulations", stats->simulations);
    w.field("jobs", stats->jobs);
    w.field("sim_cycles", stats->sim_cycles);
    w.key("perf");
    w.begin_object();
    w.field("wall_seconds", stats->wall_seconds);
    w.field("points_per_second", stats->points_per_second());
    w.field("cycles_per_second", stats->cycles_per_second());
    w.end_object();
  }
  w.end_object();
  out << "\n";
}

void write_sweep_timeseries(std::ostream& out, const SweepSpec& spec,
                            const std::vector<SweepPoint>& points) {
  std::uint64_t total_windows = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    if (!p.online) continue;
    const std::uint32_t nodes = p.online->num_nodes();
    for (std::size_t j = 0; j < p.online->windows().size(); ++j) {
      const metrics::Window& win = p.online->windows()[j];
      ++total_windows;
      util::JsonWriter w(out);
      w.begin_object();
      w.field("schema", kTimeseriesSchema);
      w.field("kind", "window");
      w.field("point", static_cast<std::uint64_t>(i));
      w.field("mechanism", core::limiter_name(p.limiter));
      w.field("offered", p.offered);
      w.field("window", static_cast<std::uint64_t>(j));
      w.field("start_cycle", win.start_cycle);
      w.field("cycles", win.cycles);
      w.field("offered_flits", win.offered_flits);
      w.field("accepted_flits", win.accepted_flits);
      const double denom =
          static_cast<double>(win.cycles) * static_cast<double>(nodes);
      w.field("offered_flits_node_cycle",
              denom > 0 ? static_cast<double>(win.offered_flits) / denom : 0.0);
      w.field("accepted_flits_node_cycle",
              denom > 0 ? static_cast<double>(win.accepted_flits) / denom
                        : 0.0);
      w.field("injected", win.injected);
      w.field("delivered", win.delivered);
      w.field("deadlocks", win.deadlocks);
      w.field("credit_messages", win.credit_messages);
      w.field("in_flight_flits", win.end.in_flight_flits);
      w.field("blocked_headers", win.end.blocked_headers);
      w.field("free_vcs", win.end.free_vcs);
      w.field("total_vcs", win.end.total_vcs);
      w.field("free_vc_fraction", win.free_vc_fraction());
      w.field("queue_total", win.end.queue_total);
      w.field("latency_count", win.latency_count);
      w.field("latency_p99", win.latency_p99);
      w.field("saturating", win.saturating);
      w.end_object();
      out << "\n";
    }
  }

  util::JsonWriter w(out);
  w.begin_object();
  w.field("schema", kTimeseriesSchema);
  w.field("kind", "summary");
  w.field("points", static_cast<std::uint64_t>(points.size()));
  w.field("windows", total_windows);
  w.field("window_cycles", spec.online_config.window_cycles);
  w.end_object();
  out << "\n";
}

void write_sweep_trace(std::ostream& out,
                       const std::vector<SweepPoint>& points) {
  std::vector<obs::TraceProcess> processes;
  processes.reserve(points.size());
  for (const SweepPoint& p : points) {
    processes.push_back({point_label(p.limiter, p.offered),
                         p.result.total_cycles, p.trace.get()});
  }
  obs::write_chrome_trace(out, processes);
}

void capture_spatial(const config::SimConfig& base, core::LimiterKind limiter,
                     double offered, const std::string& prefix) {
  config::SimConfig cfg = base;
  cfg.sim.limiter.kind = limiter;
  cfg.workload.offered_flits_per_node_cycle = offered;

  const topo::KAryNCube topo(cfg.k, cfg.n);
  metrics::SpatialMetrics spatial(
      topo.num_nodes(), topo.num_nodes() * topo.num_channels(),
      cfg.sim.net.num_vcs);
  config::RunHooks hooks;
  hooks.spatial = &spatial;
  const metrics::SimResult r = config::run_experiment(cfg, hooks);

  const auto write = [&](const char* suffix, auto&& fn) {
    const std::string path = prefix + suffix;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    fn(out);
    obs::logf(obs::LogLevel::Info, "wrote %s\n", path.c_str());
  };
  write("_channels.csv", [&](std::ostream& out) {
    spatial.write_channel_csv(out, topo, r.total_cycles);
  });
  write("_nodes.csv", [&](std::ostream& out) {
    spatial.write_node_csv(out, topo, r.total_cycles);
  });
  write("_vc_occupancy.csv", [&](std::ostream& out) {
    spatial.write_vc_occupancy_csv(out, topo);
  });
}

ObsSession::ObsSession(const util::ArgParser& args)
    : metrics_path_(args.get_string("metrics-out", "")),
      timeseries_path_(args.get_string("timeseries-out", "")),
      trace_path_(args.get_string("trace", "")),
      spatial_prefix_(args.get_string("spatial-out", "")),
      spatial_load_(args.get_double("spatial-load", 1.2)),
      online_window_(args.get_uint("online-window", 256)),
      profile_period_(0),
      trace_capacity_(static_cast<std::size_t>(
          args.get_uint("trace-capacity", std::size_t{1} << 16))) {
  // Every flag is checked here, before the sweep runs.
  const std::string limiter = args.get_string("spatial-limiter", "none");
  try {
    spatial_limiter_ = core::parse_limiter(limiter);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(
        "--spatial-limiter expects none, alo, lf or dril, got '" + limiter +
        "'");
  }
  if (!std::isfinite(spatial_load_) || spatial_load_ < 0.0) {
    throw std::invalid_argument(
        "--spatial-load expects a finite load >= 0, got '" +
        args.get_string("spatial-load", "") + "'");
  }
  // Bare "--profile" parses as the string "true": default period 64.
  if (args.get_string("profile", "") == "true") {
    profile_period_ = 64;
  } else {
    profile_period_ = args.get_uint("profile", 0);
  }
  if (trace_capacity_ == 0) {
    throw std::invalid_argument(
        "--trace-capacity expects an integer >= 1, got '0'");
  }
}

void ObsSession::attach(SweepSpec& spec) {
  spec.trace_capacity = trace_path_.empty() ? 0 : trace_capacity_;
  if (!metrics_path_.empty() || !timeseries_path_.empty()) {
    spec.online = true;
    spec.online_config.window_cycles = online_window_;
    spec.online_config.profile_period = profile_period_;
  }
}

void ObsSession::finish(const SweepSpec& spec,
                        const std::vector<SweepPoint>& points,
                        const metrics::SweepStats* stats) {
  if (!metrics_path_.empty()) {
    std::ofstream out(metrics_path_);
    if (!out) throw std::runtime_error("cannot open " + metrics_path_);
    write_sweep_telemetry(out, spec, points, stats);
    obs::logf(obs::LogLevel::Info, "wrote %s (%zu point records)\n",
              metrics_path_.c_str(), points.size());
  }
  if (!timeseries_path_.empty()) {
    std::ofstream out(timeseries_path_);
    if (!out) throw std::runtime_error("cannot open " + timeseries_path_);
    write_sweep_timeseries(out, spec, points);
    obs::logf(obs::LogLevel::Info, "wrote %s\n", timeseries_path_.c_str());
  }
  if (!trace_path_.empty()) {
    std::ofstream out(trace_path_);
    if (!out) throw std::runtime_error("cannot open " + trace_path_);
    write_sweep_trace(out, points);
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    for (const SweepPoint& p : points) {
      if (!p.trace) continue;
      recorded += p.trace->events_recorded();
      dropped += p.trace->events_dropped();
    }
    obs::logf(obs::LogLevel::Info,
              "wrote %s (%llu events, %llu dropped)\n", trace_path_.c_str(),
              static_cast<unsigned long long>(recorded),
              static_cast<unsigned long long>(dropped));
  }
  if (!spatial_prefix_.empty()) {
    capture_spatial(spec.base, spatial_limiter_, spatial_load_,
                    spatial_prefix_);
  }
}

}  // namespace wormsim::harness
