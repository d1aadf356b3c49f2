// End-to-end validation of the online statistics engine inside the
// sweep harness: telemetry v2 and the timeseries stream must be
// byte-identical across --jobs counts (histograms and detector verdicts
// included), attaching the engine must never change the sweep CSV, and
// the saturation-onset detector must reproduce the offline knee on the
// FAST fig05 operating point — flagging the unlimited network within
// one sweep step of where accepted throughput visibly falls away from
// offered, and never flagging ALO.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../support/json_parse.hpp"
#include "config/presets.hpp"
#include "harness/sweep.hpp"
#include "harness/telemetry.hpp"

namespace wormsim::harness {
namespace {

config::SimConfig online_base() {
  config::SimConfig cfg = config::small_base();
  cfg.protocol.warmup = 200;
  cfg.protocol.measure = 400;
  cfg.protocol.drain_max = 600;
  cfg.seed = 0x0A11E57A7;
  return cfg;
}

SweepSpec online_spec(unsigned jobs) {
  SweepSpec spec;
  spec.base = online_base();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = {0.1, 0.6, 1.2};
  spec.jobs = jobs;
  spec.online = true;
  spec.online_config.window_cycles = 128;
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

/// Drop the volatile tail ("perf" onward) and the summary's worker-count
/// echo — same quarantine as the telemetry determinism test.
std::string strip_volatile(std::string line) {
  const std::size_t pos = line.find(",\"perf\":");
  if (pos != std::string::npos) line.resize(pos);
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
}

TEST(OnlineSweep, TelemetryAndTimeseriesDeterministicAcrossJobCounts) {
  std::string telemetry[2], timeseries[2];
  const unsigned job_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    SweepSpec spec = online_spec(job_counts[i]);
    const auto points = run_sweep(spec);
    std::ostringstream tel, ts;
    write_sweep_telemetry(tel, spec, points, nullptr);
    write_sweep_timeseries(ts, spec, points);
    telemetry[i] = tel.str();
    timeseries[i] = ts.str();
  }

  // The timeseries stream carries no wall-clock fields at all, so it is
  // byte-identical with nothing stripped.
  EXPECT_EQ(timeseries[0], timeseries[1]);

  const auto serial = lines_of(telemetry[0]);
  const auto parallel = lines_of(telemetry[1]);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(strip_volatile(serial[i]), strip_volatile(parallel[i]))
        << "record " << i;
  }
}

TEST(OnlineSweep, PointRecordsCarryHistogramAndVerdict) {
  SweepSpec spec = online_spec(1);
  const auto points = run_sweep(spec);
  ASSERT_EQ(points.size(), 6u);
  std::ostringstream os;
  write_sweep_telemetry(os, spec, points, nullptr);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), points.size() + 1);

  for (std::size_t i = 0; i < points.size(); ++i) {
    std::string err;
    const auto rec = util::json_parse(lines[i], &err);
    ASSERT_TRUE(rec.has_value()) << "line " << i << ": " << err;
    ASSERT_NE(rec->find("latency_hist"), nullptr) << "line " << i;
    EXPECT_EQ(rec->at_path("latency_hist.count")->number,
              static_cast<double>(points[i].online->latency_hist().count()));
    EXPECT_EQ(rec->at_path("latency_hist.p99")->number,
              static_cast<double>(points[i].online->latency_hist()
                                      .quantile(0.99)));
    ASSERT_NE(rec->find("saturation"), nullptr) << "line " << i;
    EXPECT_EQ(rec->at_path("saturation.saturated")->boolean,
              points[i].online->saturated());
    EXPECT_EQ(rec->at_path("saturation.windows")->number,
              static_cast<double>(points[i].online->windows().size()));
  }

  // Summary gains the per-mechanism onset map (null when never flagged).
  std::string err;
  const auto summary = util::json_parse(lines.back(), &err);
  ASSERT_TRUE(summary.has_value()) << err;
  ASSERT_NE(summary->find("saturation_load"), nullptr);
  EXPECT_NE(summary->at_path("saturation_load.none"), nullptr);
  EXPECT_NE(summary->at_path("saturation_load.alo"), nullptr);
}

TEST(OnlineSweep, SweepCsvUnchangedByOnlineStats) {
  SweepSpec plain = online_spec(2);
  plain.online = false;
  const auto base_points = run_sweep(plain);

  SweepSpec instrumented = online_spec(2);
  instrumented.online_config.profile_period = 64;
  const auto online_points = run_sweep(instrumented);
  ASSERT_NE(online_points[0].online, nullptr);
  EXPECT_FALSE(online_points[0].online->windows().empty());

  std::ostringstream plain_csv, online_csv;
  write_sweep_csv(plain_csv, base_points);
  write_sweep_csv(online_csv, online_points);
  EXPECT_EQ(plain_csv.str(), online_csv.str());
}

TEST(OnlineSweep, TimeseriesWindowRecordsAreSchemaValid) {
  SweepSpec spec = online_spec(1);
  const auto points = run_sweep(spec);
  std::ostringstream os;
  write_sweep_timeseries(os, spec, points);
  const auto lines = lines_of(os.str());
  ASSERT_GT(lines.size(), 1u);

  std::size_t windows = 0;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    std::string err;
    const auto rec = util::json_parse(lines[i], &err);
    ASSERT_TRUE(rec.has_value()) << "line " << i << ": " << err;
    EXPECT_EQ(rec->find("schema")->str, kTimeseriesSchema);
    EXPECT_EQ(rec->find("kind")->str, "window");
    EXPECT_NE(rec->find("mechanism"), nullptr);
    EXPECT_NE(rec->find("start_cycle"), nullptr);
    EXPECT_NE(rec->find("accepted_flits_node_cycle"), nullptr);
    EXPECT_NE(rec->find("free_vc_fraction"), nullptr);
    EXPECT_NE(rec->find("saturating"), nullptr);
    ++windows;
  }
  std::string err;
  const auto summary = util::json_parse(lines.back(), &err);
  ASSERT_TRUE(summary.has_value()) << err;
  EXPECT_EQ(summary->find("kind")->str, "summary");
  EXPECT_EQ(summary->find("windows")->number, static_cast<double>(windows));
}

/// FNV-1a, 64 bits, over the bytes of `text`.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The whole wormsim.timeseries/1 stream of a sweep past saturation,
/// pinned by its hash: moving any window boundary, or any per-window
/// count, by one changes it (the --jobs test above cannot see a shift
/// that every job count makes alike). Wormhole and Credit, at loads
/// where the unlimited network detects deadlocks, so the deadlock and
/// credit-message columns are pinned at nonzero values too.
TEST(OnlineSweep, TimeseriesMatchesGolden) {
  struct Case {
    sim::FlowControl scheme;
    std::uint64_t hash;
  };
  for (const Case& c : {Case{sim::FlowControl::Wormhole, 0x85cea6d702e8c9f4ull},
                        Case{sim::FlowControl::Credit, 0x6cad8c8b2d89ccf7ull}}) {
    SweepSpec spec = online_spec(2);
    spec.base.sim.flow.scheme = c.scheme;
    spec.offered_loads = {0.6, 1.2};
    const auto points = run_sweep(spec);
    std::uint64_t deadlocks = 0, credits = 0;
    for (const auto& p : points) {
      for (const metrics::Window& w : p.online->windows()) {
        deadlocks += w.deadlocks;
        credits += w.credit_messages;
      }
    }
    const std::string name(sim::flow_control_name(c.scheme));
    EXPECT_GT(deadlocks, 0u) << name;
    EXPECT_EQ(credits > 0, c.scheme == sim::FlowControl::Credit) << name;
    std::ostringstream ts;
    write_sweep_timeseries(ts, spec, points);
    EXPECT_EQ(fnv1a64(ts.str()), c.hash)
        << name << ": 0x" << std::hex << fnv1a64(ts.str());
  }
}

/// The detector-vs-offline-knee golden on the FAST fig05 operating
/// point (8-ary 2-cube, uniform, 16-flit messages, bench windows). The
/// offline knee is the first load where the unlimited network's
/// accepted throughput falls below 90% of offered — the criterion a
/// human would read off the printed throughput curve. The online
/// detector, which sees none of the other loads, must land within one
/// sweep step of it, and must never flag ALO (whose whole point is to
/// hold the network out of saturation).
TEST(OnlineSweep, DetectorMatchesOfflineKneeOnFastFig05) {
  SweepSpec spec;
  spec.base = config::paper_base();
  spec.base.n = 2;
  spec.base.protocol.warmup = 3000;
  spec.base.protocol.measure = 8000;
  spec.base.protocol.drain_max = 8000;
  spec.base.workload.pattern = traffic::PatternKind::Uniform;
  spec.base.workload.length.fixed = 16;
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = load_range(0.1, 1.2, 7);
  spec.jobs = 4;
  spec.online = true;
  const auto points = run_sweep(spec);

  const double step = spec.offered_loads[1] - spec.offered_loads[0];
  std::optional<double> offline_knee, detected;
  for (const auto& p : points) {
    if (p.limiter == core::LimiterKind::None) {
      if (!offline_knee &&
          p.result.accepted_flits_per_node_cycle < 0.9 * p.offered) {
        offline_knee = p.offered;
      }
      if (!detected && p.online->saturated()) detected = p.offered;
    } else {
      EXPECT_FALSE(p.online->saturated())
          << "ALO flagged saturated at offered " << p.offered;
    }
  }
  ASSERT_TRUE(offline_knee.has_value())
      << "unlimited network never saturated — operating point too small";
  ASSERT_TRUE(detected.has_value())
      << "detector never latched on the unlimited network";
  EXPECT_NEAR(*detected, *offline_knee, step + 1e-9)
      << "detected onset more than one sweep step from the offline knee";

  // The detector also stamps where in the run saturation began: past
  // warmup ramp but within the simulated horizon.
  for (const auto& p : points) {
    if (p.limiter == core::LimiterKind::None && p.online->saturated()) {
      ASSERT_TRUE(p.online->onset_cycle().has_value());
      EXPECT_LT(*p.online->onset_cycle(), p.result.total_cycles);
    }
  }
}

}  // namespace
}  // namespace wormsim::harness
