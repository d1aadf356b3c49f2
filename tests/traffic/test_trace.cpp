#include "traffic/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace wormsim::traffic {
namespace {

TEST(Trace, AddKeepsCycleOrder) {
  Trace t;
  t.add({0, 0, 1, 16});
  t.add({5, 1, 2, 16});
  t.add({5, 2, 3, 16});  // tie OK
  EXPECT_THROW(t.add({4, 0, 1, 16}), std::invalid_argument);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.horizon(), 5u);
}

TEST(Trace, SaveLoadRoundTrip) {
  Trace t;
  t.add({0, 0, 5, 16});
  t.add({3, 2, 7, 64});
  t.add({100, 15, 0, 1});
  std::stringstream ss;
  t.save(ss);
  const Trace loaded = Trace::load(ss);
  ASSERT_EQ(loaded.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(loaded.records()[i], t.records()[i]);
  }
}

TEST(Trace, LoadRejectsMissingHeader) {
  std::stringstream ss("0 0 1 16\n");
  EXPECT_THROW(Trace::load(ss), std::invalid_argument);
}

TEST(Trace, LoadRejectsMalformedLine) {
  std::stringstream ss("#wormsim-trace v1\n0 0 zebra 16\n");
  EXPECT_THROW(Trace::load(ss), std::invalid_argument);
}

/// Fields are unsigned: `istream >> unsigned` used to read a leading
/// '-' and wrap the value. Trailing text is refused too.
TEST(Trace, LoadRejectsSignedFieldsNamingTheLine) {
  for (const char* line : {"-5 0 1 16", "5 -0 1 16", "5 0 -1 16",
                           "5 0 1 -16", "+5 0 1 16", "5 0 1 16 -2"}) {
    std::stringstream ss(std::string("#wormsim-trace v1\n0 0 1 16\n") +
                         line + "\n");
    try {
      Trace::load(ss);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("malformed trace line 3"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Trace, RejectsOversizeLength) {
  std::stringstream ok("#wormsim-trace v1\n0 0 1 65535\n");
  EXPECT_EQ(Trace::load(ok).records()[0].length, 65535u);
  std::stringstream ss("#wormsim-trace v1\n0 0 1 16\n\n3 1 2 65536\n");
  try {
    Trace::load(ss);
    FAIL() << "oversize length accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trace line 4"), std::string::npos)
        << e.what();
  }
}

TEST(Trace, LoadSkipsCommentsAndBlankLines) {
  std::stringstream ss(
      "#wormsim-trace v1\n\n# a comment\n7 1 2 16\n\n9 3 4 8\n");
  const Trace t = Trace::load(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.records()[1].cycle, 9u);
  EXPECT_EQ(t.records()[1].length, 8u);
}

TEST(Trace, ValidateCatchesBadRecords) {
  const topo::KAryNCube topo(4, 2);  // 16 nodes
  {
    Trace t;
    t.add({0, 99, 1, 16});
    EXPECT_THROW(t.validate(topo), std::invalid_argument);
  }
  {
    Trace t;
    t.add({0, 3, 3, 16});
    EXPECT_THROW(t.validate(topo), std::invalid_argument);
  }
  {
    Trace t;
    t.add({0, 3, 4, 0});
    EXPECT_THROW(t.validate(topo), std::invalid_argument);
  }
  {
    Trace t;
    t.add({0, 3, 4, 16});
    t.add({1, 0, 15, 64});
    EXPECT_NO_THROW(t.validate(topo));
  }
}

TEST(Trace, FromWorkloadIsDeterministicAndValid) {
  const topo::KAryNCube topo(4, 2);
  WorkloadConfig cfg;
  cfg.offered_flits_per_node_cycle = 0.4;
  cfg.length.fixed = 16;
  const Trace a = Trace::from_workload(topo, cfg, 42, 2000);
  const Trace b = Trace::from_workload(topo, cfg, 42, 2000);
  EXPECT_GT(a.size(), 100u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.records()[i], b.records()[i]);
  }
  EXPECT_NO_THROW(a.validate(topo));
  // Rate sanity: 16 nodes * 2000 cycles * 0.025 msgs = ~800.
  EXPECT_NEAR(static_cast<double>(a.size()), 800.0, 120.0);
}

}  // namespace
}  // namespace wormsim::traffic
