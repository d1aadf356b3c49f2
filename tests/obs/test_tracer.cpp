#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "../support/json_parse.hpp"

namespace wormsim::obs {
namespace {

TEST(Tracer, RecordsInOrder) {
  Tracer t(16);
  t.record(5, EventKind::QueueEnqueue, 3, 1, 16, 99);
  t.record(6, EventKind::GateAllow, 3);
  t.record(7, EventKind::VcAlloc, 12, 2, 0, 99);
  EXPECT_EQ(t.events_recorded(), 3u);
  EXPECT_EQ(t.events_dropped(), 0u);

  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].cycle, 5u);
  EXPECT_EQ(evs[0].kind, EventKind::QueueEnqueue);
  EXPECT_EQ(evs[0].node, 3u);
  EXPECT_EQ(evs[0].aux8, 1u);
  EXPECT_EQ(evs[0].aux16, 16u);
  EXPECT_EQ(evs[0].aux32, 99u);
  EXPECT_EQ(evs[1].kind, EventKind::GateAllow);
  EXPECT_EQ(evs[2].kind, EventKind::VcAlloc);
}

TEST(Tracer, RingWrapKeepsNewestAndCountsDrops) {
  Tracer t(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    t.record(i, EventKind::GateBlock, i);
  }
  EXPECT_EQ(t.events_recorded(), 10u);
  EXPECT_EQ(t.events_dropped(), 6u);

  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  // Keep-latest policy: the last four records survive, oldest first.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].cycle, 6u + i);
    EXPECT_EQ(evs[i].node, 6u + i);
  }
}

/// Parse a Chrome trace document, failing the test if it is not JSON.
util::JsonValue parse_trace(const std::vector<TraceProcess>& processes) {
  std::ostringstream os;
  write_chrome_trace(os, processes);
  std::string err;
  auto doc = util::json_parse(os.str(), &err);
  EXPECT_TRUE(doc.has_value()) << err;
  return doc ? *std::move(doc) : util::JsonValue{};
}

TEST(Tracer, ChromeTraceLabelsEachProcessAndSpansItsCycles) {
  Tracer a(64);
  a.record(1, EventKind::GateAllow, 0);
  Tracer b(64);
  b.record(2, EventKind::GateBlock, 0);
  const util::JsonValue doc =
      parse_trace({{"none @ 0.1", 100, &a}, {"alo @ 0.2", 200, &b}});
  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_TRUE(events && events->is_array());

  std::vector<std::string> labels(2);
  std::vector<double> spans(2, -1.0);
  std::vector<std::string> instants(2);
  for (const util::JsonValue& e : events->array) {
    const auto pid = static_cast<std::size_t>(e.find("pid")->number);
    ASSERT_LT(pid, 2u);
    const std::string& ph = e.find("ph")->str;
    const std::string& name = e.find("name")->str;
    if (ph == "M" && name == "process_name") {
      labels[pid] = e.at_path("args.name")->str;
    } else if (ph == "X") {
      EXPECT_EQ(name, "simulate");
      EXPECT_EQ(e.find("ts")->number, 0.0);
      spans[pid] = e.find("dur")->number;
    } else if (ph == "i") {
      instants[pid] += name;
    }
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"none @ 0.1", "alo @ 0.2"}));
  EXPECT_EQ(spans, (std::vector<double>{100.0, 200.0}));
  // Each process carries its own ring's events only.
  EXPECT_EQ(instants, (std::vector<std::string>{"gate_allow", "gate_block"}));
}

TEST(Tracer, EventKindNamesAreUnique) {
  const EventKind all[] = {
      EventKind::GateAllow,       EventKind::GateBlock,
      EventKind::AloProbe,        EventKind::VcAlloc,
      EventKind::VcRelease,       EventKind::DeadlockDetect,
      EventKind::RecoveryReinject, EventKind::QueueEnqueue,
      EventKind::QueueDequeue,    EventKind::FaultLinkKill,
      EventKind::FaultLinkRestore, EventKind::FaultNodeKill,
      EventKind::FaultNodeRestore, EventKind::FaultLutRebuild,
  };
  std::vector<std::string> names;
  for (const EventKind k : all) {
    names.emplace_back(event_kind_name(k));
    EXPECT_FALSE(names.back().empty());
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(Tracer, ChromeTraceIsValidJson) {
  Tracer t(64);
  t.record(10, EventKind::GateBlock, 7, 0, 16, 120);
  t.record(11, EventKind::VcAlloc, 21, 1, 0, 5);
  t.record(12, EventKind::DeadlockDetect, 7, 0, 16, 5);
  const util::JsonValue doc = parse_trace({{"none @ 0.4", 500, &t}});

  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_TRUE(events && events->is_array());
  bool saw_process_name = false;
  bool saw_point_span = false;
  bool saw_instant = false;
  for (const util::JsonValue& e : events->array) {
    const util::JsonValue* ph = e.find("ph");
    ASSERT_TRUE(ph && ph->is_string());
    if (ph->str == "M" && e.find("name")->str == "process_name") {
      saw_process_name = true;
      EXPECT_EQ(e.at_path("args.name")->str, "none @ 0.4");
    }
    if (ph->str == "X") saw_point_span = true;
    if (ph->str == "i") saw_instant = true;
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_point_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_EQ(doc.at_path("otherData.schema")->str, "wormsim.trace/2");
}

TEST(Tracer, ChromeTraceReportsDrops) {
  Tracer t(2);
  for (int i = 0; i < 50; ++i) {
    t.record(static_cast<std::uint64_t>(i), EventKind::GateAllow, 0);
  }
  EXPECT_EQ(t.events_dropped(), 48u);

  const util::JsonValue doc = parse_trace({{"p", 50, &t}});
  ASSERT_TRUE(doc.find("traceEvents")->is_array());
  EXPECT_EQ(doc.at_path("otherData.events_recorded")->number, 50.0);
  EXPECT_EQ(doc.at_path("otherData.events_dropped")->number, 48.0);
}

}  // namespace
}  // namespace wormsim::obs
