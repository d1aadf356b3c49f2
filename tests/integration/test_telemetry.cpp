// End-to-end validation of the machine-readable telemetry surface: a
// FAST-sized traced sweep must emit one schema-valid JSONL record per
// sweep point plus a summary, the records must be deterministic for a
// fixed seed across --jobs counts (modulo the quarantined "perf"
// section), the Chrome trace export must be valid JSON and
// byte-identical across --jobs counts, and the spatial capture must
// produce parseable CSVs.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../support/json_parse.hpp"
#include "config/presets.hpp"
#include "harness/sweep.hpp"
#include "harness/telemetry.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace wormsim::harness {
namespace {

config::SimConfig telemetry_base() {
  config::SimConfig cfg = config::small_base();
  cfg.protocol.warmup = 200;
  cfg.protocol.measure = 400;
  cfg.protocol.drain_max = 600;
  cfg.seed = 0x0B5E11E7;
  return cfg;
}

SweepSpec telemetry_spec(unsigned jobs, std::size_t trace_capacity) {
  SweepSpec spec;
  spec.base = telemetry_base();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = {0.1, 0.6, 1.2};
  spec.jobs = jobs;
  spec.trace_capacity = trace_capacity;
  return spec;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Telemetry text for one full sweep (runs the simulations).
std::string run_and_serialize(unsigned jobs) {
  SweepSpec spec = telemetry_spec(jobs, 1u << 10);
  metrics::SweepStats stats;
  spec.stats = &stats;
  const auto points = run_sweep(spec);
  std::ostringstream os;
  write_sweep_telemetry(os, spec, points, &stats);
  return os.str();
}

TEST(Telemetry, OneSchemaValidRecordPerPointPlusSummary) {
  SweepSpec spec = telemetry_spec(1, 1u << 12);
  metrics::SweepStats stats;
  spec.stats = &stats;
  const auto points = run_sweep(spec);
  ASSERT_EQ(points.size(), 6u);

  std::ostringstream os;
  write_sweep_telemetry(os, spec, points, &stats);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), points.size() + 1);

  for (std::size_t i = 0; i < points.size(); ++i) {
    std::string err;
    const auto rec = util::json_parse(lines[i], &err);
    ASSERT_TRUE(rec.has_value()) << "line " << i << ": " << err;
    ASSERT_TRUE(rec->is_object());
    EXPECT_EQ(rec->find("schema")->str, kTelemetrySchema);
    EXPECT_EQ(rec->find("kind")->str, "point");
    EXPECT_DOUBLE_EQ(rec->find("point")->number, static_cast<double>(i));
    EXPECT_EQ(rec->find("mechanism")->str,
              core::limiter_name(points[i].limiter));
    EXPECT_DOUBLE_EQ(rec->find("offered")->number, points[i].offered);
    // Config echo carries the per-point derived seed, not the base seed.
    EXPECT_DOUBLE_EQ(
        rec->at_path("config.seed")->number,
        static_cast<double>(util::derive_stream_seed(spec.base.seed, i)));
    EXPECT_EQ(rec->at_path("config.k")->number, spec.base.k);
    // Result section mirrors the SimResult for this point.
    EXPECT_DOUBLE_EQ(rec->at_path("result.total_cycles")->number,
                     static_cast<double>(points[i].result.total_cycles));
    EXPECT_DOUBLE_EQ(rec->at_path("result.accepted_flits_per_node_cycle")
                         ->number,
                     points[i].result.accepted_flits_per_node_cycle);
    EXPECT_EQ(rec->at_path("result.saturated")->boolean,
              points[i].result.saturated);
    // The point was traced, so its ring's counts are present.
    ASSERT_NE(points[i].trace, nullptr);
    EXPECT_DOUBLE_EQ(rec->at_path("trace.events_recorded")->number,
                     static_cast<double>(points[i].trace->events_recorded()));
    EXPECT_DOUBLE_EQ(rec->at_path("trace.events_dropped")->number,
                     static_cast<double>(points[i].trace->events_dropped()));
    // Wall-clock-dependent fields live only under "perf".
    ASSERT_NE(rec->find("perf"), nullptr);
    EXPECT_NE(rec->at_path("perf.cycles_per_second"), nullptr);
    EXPECT_NE(rec->at_path("perf.wall_seconds"), nullptr);
  }

  std::string err;
  const auto summary = util::json_parse(lines.back(), &err);
  ASSERT_TRUE(summary.has_value()) << err;
  EXPECT_EQ(summary->find("kind")->str, "summary");
  EXPECT_EQ(summary->find("schema")->str, kTelemetrySchema);
  EXPECT_DOUBLE_EQ(summary->find("points")->number, 6.0);
  EXPECT_DOUBLE_EQ(summary->find("simulations")->number, 6.0);
  EXPECT_GT(summary->find("sim_cycles")->number, 0.0);
  EXPECT_EQ(summary->find("trace"), nullptr);
}

TEST(Telemetry, DeterministicAcrossJobCounts) {
  const auto strip_volatile = [](std::string line) {
    // "perf" is always the record's tail; everything before it, the
    // points' "trace" sections included, is the reproducible part...
    const std::size_t pos = line.find(",\"perf\":");
    if (pos != std::string::npos) line.resize(pos);
    // ...except the summary's worker-count echo, which differs by
    // construction here.
    const std::size_t jobs = line.find("\"jobs\":");
    if (jobs != std::string::npos) {
      std::size_t end = jobs + 7;
      while (end < line.size() &&
             std::isdigit(static_cast<unsigned char>(line[end]))) {
        ++end;
      }
      line.erase(jobs, end - jobs);
    }
    return line;
  };
  const auto serial = lines_of(run_and_serialize(1));
  const auto parallel = lines_of(run_and_serialize(2));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(strip_volatile(serial[i]), strip_volatile(parallel[i]))
        << "record " << i;
  }
}

TEST(Telemetry, SweepCsvUnchangedByInstrumentation) {
  metrics::SweepStats stats;
  SweepSpec plain = telemetry_spec(2, 0);
  const auto base_points = run_sweep(plain);
  for (const SweepPoint& p : base_points) EXPECT_EQ(p.trace, nullptr);

  SweepSpec traced = telemetry_spec(2, 1u << 10);
  traced.stats = &stats;
  const auto traced_points = run_sweep(traced);
  for (const SweepPoint& p : traced_points) {
    ASSERT_NE(p.trace, nullptr);
    EXPECT_GT(p.trace->events_recorded(), 0u);
  }

  std::ostringstream plain_csv;
  write_sweep_csv(plain_csv, base_points);
  std::ostringstream traced_csv;
  write_sweep_csv(traced_csv, traced_points);
  EXPECT_EQ(plain_csv.str(), traced_csv.str());
}

TEST(Telemetry, ChromeTraceFromSweepIsValidJson) {
  const SweepSpec spec = telemetry_spec(1, 1u << 12);
  const auto points = run_sweep(spec);

  std::ostringstream os;
  write_sweep_trace(os, points);
  std::string err;
  const auto doc = util::json_parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const util::JsonValue* events = doc->find("traceEvents");
  ASSERT_TRUE(events && events->is_array());
  EXPECT_FALSE(events->array.empty());
  EXPECT_EQ(doc->at_path("otherData.schema")->str, "wormsim.trace/2");
}

/// Each point owns its ring, so a ring too small for its point drops
/// only that point's oldest events, whichever worker ran it: the trace
/// is the same file at any --jobs count, and every point keeps its
/// label and `simulate` span.
TEST(Telemetry, ChromeTraceIdenticalAcrossJobCounts) {
  constexpr std::size_t kCapacity = 256;
  const auto trace_at = [&](unsigned jobs) {
    const auto points = run_sweep(telemetry_spec(jobs, kCapacity));
    std::uint64_t dropped = 0;
    for (const SweepPoint& p : points) dropped += p.trace->events_dropped();
    EXPECT_GT(dropped, 0u) << "the ring must be small enough to drop";
    std::ostringstream os;
    write_sweep_trace(os, points);
    return std::make_pair(os.str(), points);
  };
  const auto [serial, points] = trace_at(1);
  ASSERT_GE(points.size(), 6u);
  EXPECT_EQ(trace_at(2).first, serial);
  EXPECT_EQ(trace_at(4).first, serial);

  std::string err;
  const auto doc = util::json_parse(serial, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  std::vector<double> spans(points.size(), -1.0);
  for (const util::JsonValue& e : doc->find("traceEvents")->array) {
    if (e.find("ph")->str != "X") continue;
    EXPECT_EQ(e.find("name")->str, "simulate");
    spans.at(static_cast<std::size_t>(e.find("pid")->number)) =
        e.find("dur")->number;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(spans[i], static_cast<double>(points[i].result.total_cycles))
        << "point " << i;
  }
}

TEST(Telemetry, CaptureSpatialWritesParseableCsvs) {
  const std::string prefix = ::testing::TempDir() + "wormsim_spatial_test";
  config::SimConfig base = telemetry_base();
  capture_spatial(base, core::LimiterKind::ALO, 1.2, prefix);

  const topo::KAryNCube topo(base.k, base.n);
  const struct {
    const char* suffix;
    const char* header;
    std::size_t rows;
  } tables[] = {
      {"_channels.csv",
       "link,src,dst,dim,dir,src_x,src_y,flits_carried,utilization,"
       "mean_busy_vcs",
       static_cast<std::size_t>(topo.num_links())},
      {"_nodes.csv",
       "node,x,y,coords,injected_msgs,ejected_flits,ejected_flits_per_cycle,"
       "queue_avg,queue_max",
       topo.num_nodes()},
      {"_vc_occupancy.csv", "link,src,dst,dim,dir,busy_vcs,samples",
       static_cast<std::size_t>(topo.num_links()) *
           (base.sim.net.num_vcs + 1)},
  };
  for (const auto& t : tables) {
    const std::string path = prefix + t.suffix;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header, t.header) << path;
    std::size_t rows = 0;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) ++rows;
    }
    EXPECT_EQ(rows, t.rows) << path;
    in.close();
    std::remove(path.c_str());
  }
}

/// Parse `argv` (program name first) and attach the session to a spec;
/// returns the profiler period the sweep would run with.
std::uint64_t session_profile_period(std::vector<const char*> argv) {
  const util::ArgParser args(static_cast<int>(argv.size()), argv.data());
  ObsSession session(args);
  args.reject_unknown();
  SweepSpec spec;
  session.attach(spec);
  return spec.online_config.profile_period;
}

/// A bad observability flag fails in the ObsSession constructor, before
/// any sweep runs, with an error that names the flag.
TEST(Telemetry, ObsSessionRejectsBadFlagsByName) {
  const std::vector<std::pair<std::vector<const char*>, std::string>> bad = {
      {{"prog", "--profile", "abc"}, "--profile"},
      {{"prog", "--profile", "12x"}, "--profile"},
      {{"prog", "--profile", "-1"}, "--profile"},
      {{"prog", "--spatial-limiter", "bogus"}, "--spatial-limiter"},
      {{"prog", "--spatial-load", "nan"}, "--spatial-load"},
      {{"prog", "--spatial-load", "inf"}, "--spatial-load"},
      {{"prog", "--spatial-load", "-0.5"}, "--spatial-load"},
      {{"prog", "--trace-capacity", "0"}, "--trace-capacity"},
  };
  for (const auto& [argv, flag] : bad) {
    SCOPED_TRACE(std::string(argv[1]) + " " + argv[2]);
    try {
      session_profile_period(argv);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
}

/// Only --trace builds trace rings; --metrics-out alone writes no
/// trace, so it attaches none.
TEST(Telemetry, ObsSessionTracesOnlyForTrace) {
  const auto capacity = [](std::vector<const char*> argv) {
    const util::ArgParser args(static_cast<int>(argv.size()), argv.data());
    ObsSession session(args);
    SweepSpec spec;
    session.attach(spec);
    return spec.trace_capacity;
  };
  EXPECT_EQ(capacity({"prog", "--metrics-out", "x"}), 0u);
  EXPECT_EQ(capacity({"prog", "--metrics-out", "x", "--trace-capacity", "8"}),
            0u);
  EXPECT_EQ(capacity({"prog", "--trace", "x"}), std::size_t{1} << 16);
  EXPECT_EQ(capacity({"prog", "--trace", "x", "--trace-capacity", "8"}), 8u);
}

TEST(Telemetry, ObsSessionProfileFlagForms) {
  EXPECT_EQ(session_profile_period({"prog", "--timeseries-out", "x"}), 0u);
  EXPECT_EQ(
      session_profile_period({"prog", "--timeseries-out", "x", "--profile"}),
      64u);
  EXPECT_EQ(session_profile_period(
                {"prog", "--timeseries-out", "x", "--profile", "12"}),
            12u);
  EXPECT_EQ(session_profile_period({"prog", "--timeseries-out", "x",
                                    "--spatial-limiter", "alo",
                                    "--spatial-load", "0"}),
            0u);
}

}  // namespace
}  // namespace wormsim::harness
