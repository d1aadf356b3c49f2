// Config presets, validation and the sweep harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>

#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
#define WORMSIM_HAVE_MALLINFO2 1
#include <malloc.h>  // mallinfo2
#endif

#include "config/presets.hpp"
#include "fault/schedule.hpp"
#include "harness/sweep.hpp"

namespace wormsim {
namespace {

TEST(Presets, PaperBaseMatchesSection41) {
  const auto cfg = config::paper_base();
  EXPECT_EQ(cfg.k, 8u);
  EXPECT_EQ(cfg.n, 3u);
  EXPECT_EQ(topo::KAryNCube(cfg.k, cfg.n).num_nodes(), 512u);
  EXPECT_EQ(cfg.sim.net.num_vcs, 3u);
  EXPECT_EQ(cfg.sim.net.buf_flits, 4u);
  EXPECT_EQ(cfg.sim.net.inj_channels, 4u);
  EXPECT_EQ(cfg.sim.net.eje_channels, 4u);
  EXPECT_EQ(cfg.sim.algorithm, routing::Algorithm::TFAR);
  EXPECT_TRUE(cfg.sim.detection.enabled);
  EXPECT_EQ(cfg.sim.detection.threshold, 32u);
  EXPECT_EQ(cfg.workload.length.fixed, 16u);
  EXPECT_NO_THROW(config::validate(cfg));
}

TEST(Presets, SmallBaseIsValid) {
  EXPECT_NO_THROW(config::validate(config::small_base()));
  EXPECT_EQ(topo::KAryNCube(config::small_base().k, config::small_base().n)
                .num_nodes(),
            64u);
}

TEST(Presets, ValidationCatchesBadConfigs) {
  auto cfg = config::small_base();
  cfg.k = 1;
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);

  cfg = config::small_base();
  cfg.sim.detection.enabled = false;  // TFAR needs recovery
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);

  cfg = config::small_base();
  cfg.sim.algorithm = routing::Algorithm::Duato;
  cfg.sim.detection.enabled = false;  // fine: Duato is deadlock-free
  EXPECT_NO_THROW(config::validate(cfg));

  cfg = config::small_base();
  cfg.sim.net.num_vcs = 2;
  cfg.sim.algorithm = routing::Algorithm::Duato;  // needs >= 3 VCs
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);

  cfg = config::small_base();
  cfg.protocol.measure = 0;
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);

  cfg = config::small_base();
  cfg.workload.length.fixed = 65536;  // per-VC flit counters are 16-bit
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);

  // Offered loads that are negative or not finite; a finite but runaway
  // load passes here and is refused when the workload is built.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-0.1, std::numeric_limits<double>::quiet_NaN(),
                           inf, -inf}) {
    SCOPED_TRACE(bad);
    cfg = config::small_base();
    cfg.workload.offered_flits_per_node_cycle = bad;
    EXPECT_THROW(config::validate(cfg), std::invalid_argument);
  }
  cfg = config::small_base();
  cfg.workload.offered_flits_per_node_cycle = 1e308;
  EXPECT_THROW(config::build_simulator(cfg), std::invalid_argument);

  // Router parameters outside what a Network can hold, each with the
  // Network constructor's own message.
  struct BadNet {
    void (*set)(sim::NetworkParams&);
    const char* message;
  };
  const BadNet bad_nets[] = {
      {[](sim::NetworkParams& p) { p.num_vcs = 0; }, "num_vcs"},
      {[](sim::NetworkParams& p) { p.num_vcs = 9; }, "num_vcs"},
      {[](sim::NetworkParams& p) { p.buf_flits = 0; }, "buf_flits"},
      {[](sim::NetworkParams& p) { p.buf_flits = 256; }, "buf_flits"},
      {[](sim::NetworkParams& p) { p.inj_channels = 0; }, "injection"},
      {[](sim::NetworkParams& p) { p.eje_channels = 0; }, "ejection"},
      {[](sim::NetworkParams& p) { p.link_delay = 0; }, "link_delay"},
      {[](sim::NetworkParams& p) { p.link_delay = 8; }, "link_delay"},
  };
  for (const BadNet& bad : bad_nets) {
    SCOPED_TRACE(bad.message);
    cfg = config::small_base();
    bad.set(cfg.sim.net);
    try {
      config::validate(cfg);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad.message), std::string::npos)
          << e.what();
    }
  }
  cfg = config::small_base();
  cfg.sim.net.link_delay = sim::Network::kMaxLinkDelay;
  cfg.sim.net.buf_flits = 255;
  cfg.sim.net.num_vcs = 8;
  EXPECT_NO_THROW(config::validate(cfg));
}

/// network_bytes from the record sizes: 32-byte VcState plus an 8-byte
/// FC3D progress stamp per VC slot, links, the wire's link_delay + 1
/// arrival buckets of one 4-byte VcRef per network link, ejection ports.
TEST(Presets, MemoryEstimatePinsNetworkBytes) {
  const auto cfg = config::paper_base();  // 512 nodes, 6 channels, 3 VCs
  const std::uint64_t net_links = 512 * 6, inj_links = 512 * 4;
  const std::uint64_t slots = net_links * 3 + inj_links;
  EXPECT_EQ(config::estimate_memory(cfg).network_bytes,
            (net_links + inj_links) * sizeof(sim::Link) + slots * (32 + 8) +
                3 * net_links * 4 + 512 * 4 * sizeof(sim::EjectPort));
  EXPECT_EQ(sizeof(sim::Link), 12u);
}

/// status_bytes: free and admissible masks per network link, the route
/// coder's 16-bit coordinates per (node, dimension), the source and
/// recovery queues' 12-byte list heads per node and the route memo's
/// 8-byte queue-head (dst, code) per node. Nothing scales with VC slots
/// or traffic: blocked headers keep their memo in their own
/// route-pending entry, and queued messages sit in arena slots.
TEST(Presets, MemoryEstimatePinsStatusBytes) {
  auto cfg = config::paper_base();  // 512 nodes, 6 channels, 3 VCs
  const std::uint64_t net_links = 512 * 6;
  EXPECT_EQ(config::estimate_memory(cfg).status_bytes,
            net_links * 2 + 512 * 3 * 2 + 512 * 2 * 12 + 512 * 8);
  cfg.k = 16;  // 4096 nodes: every per-node row, list heads included, x8
  EXPECT_EQ(config::estimate_memory(cfg).status_bytes,
            4096 * 6 * 2 + 4096 * 3 * 2 + 4096 * 2 * 12 + 4096 * 8);
}

/// Healthy networks route in closed form and build no routing table;
/// only a fault schedule brings the O(nodes^2) LUT back (512 nodes:
/// 512 * 512 four-byte codes = 1 MiB).
TEST(Presets, MemoryEstimateCountsLutOnlyWithFaults) {
  auto cfg = config::paper_base();
  EXPECT_EQ(config::estimate_memory(cfg).lut_bytes, 0u);
  cfg.sim.faults = fault::FaultSchedule({
      {1000, fault::FaultKind::LinkKill, 6, 2},
  });
  EXPECT_EQ(config::estimate_memory(cfg).lut_bytes, 1024u * 1024u);
}

#if defined(WORMSIM_HAVE_MALLINFO2)
/// A process that builds simulators one after another (a sweep builds
/// one per point) must not grow its heap per build: each build's large
/// arrays fit the chunks the previous one freed. An aligned VC array
/// (glibc memalign) broke this, growing the heap by one array per build.
TEST(Presets, RepeatedBuildsKeepTheHeapFlat) {
  auto cfg = config::paper_base();
  cfg.k = 16;  // perfbench's single_4096: 4096 nodes, ALO at 0.35
  cfg.sim.limiter.kind = core::LimiterKind::ALO;
  cfg.workload.offered_flits_per_node_cycle = 0.35;
  std::size_t after_second = 0;
  for (int build = 1; build <= 8; ++build) {
    config::build_simulator(cfg).reset();
    const std::size_t arena = mallinfo2().arena;
    if (build == 2) after_second = arena;
    if (build == 8) {
      EXPECT_LE(arena, after_second);
    }
  }
}
#endif

TEST(Presets, BuildSimulatorProducesRunnableInstance) {
  auto cfg = config::small_base();
  cfg.workload.offered_flits_per_node_cycle = 0.1;
  auto sim = config::build_simulator(cfg);
  sim->step_cycles(500);
  EXPECT_GT(sim->totals().messages_generated, 0u);
}

TEST(Sweep, LoadRange) {
  const auto r = harness::load_range(0.1, 0.5, 5);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_DOUBLE_EQ(r.front(), 0.1);
  EXPECT_DOUBLE_EQ(r.back(), 0.5);
  EXPECT_DOUBLE_EQ(r[2], 0.3);
  EXPECT_EQ(harness::load_range(0.1, 0.5, 1).size(), 1u);
  EXPECT_TRUE(harness::load_range(0.1, 0.5, 0).empty());
}

TEST(Sweep, RunsEveryPointAndEmitsCsv) {
  harness::SweepSpec spec;
  spec.base = config::small_base();
  spec.base.protocol.warmup = 500;
  spec.base.protocol.measure = 1500;
  spec.base.protocol.drain_max = 2000;
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = {0.05, 0.15};
  unsigned seen = 0;
  spec.on_point = [&](const harness::SweepPoint&) { ++seen; };

  const auto points = harness::run_sweep(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(seen, 4u);
  for (const auto& p : points) {
    EXPECT_GT(p.result.messages_generated, 0u);
  }

  std::ostringstream os;
  harness::write_sweep_csv(os, points);
  const std::string out = os.str();
  EXPECT_NE(out.find("mechanism,offered"), std::string::npos);
  EXPECT_NE(out.find("none,"), std::string::npos);
  EXPECT_NE(out.find("alo,"), std::string::npos);
  // Header + 4 data rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Sweep, CommonFlagsOverrideConfig) {
  const char* argv[] = {"prog",          "--k=4",        "--n=2",
                        "--vcs=2",       "--msg-len=32", "--pattern=butterfly",
                        "--routing=dor", "--seed=99",    "--measure=1234"};
  util::ArgParser args(9, argv);
  auto cfg = config::paper_base();
  harness::apply_common_flags(cfg, args);
  EXPECT_EQ(cfg.k, 4u);
  EXPECT_EQ(cfg.n, 2u);
  EXPECT_EQ(cfg.sim.net.num_vcs, 2u);
  EXPECT_EQ(cfg.workload.length.fixed, 32u);
  EXPECT_EQ(cfg.workload.pattern, traffic::PatternKind::Butterfly);
  EXPECT_EQ(cfg.sim.algorithm, routing::Algorithm::DOR);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.protocol.measure, 1234u);
}

TEST(Sweep, DescribeMentionsKeyParameters) {
  const auto s = harness::describe(config::paper_base());
  EXPECT_NE(s.find("8-ary 3-cube"), std::string::npos);
  EXPECT_NE(s.find("512 nodes"), std::string::npos);
  EXPECT_NE(s.find("tfar"), std::string::npos);
}

}  // namespace
}  // namespace wormsim
