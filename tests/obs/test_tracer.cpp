#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <thread>
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

  const auto evs = t.snapshot();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].cycle, 5u);
  EXPECT_EQ(evs[0].kind, EventKind::QueueEnqueue);
  EXPECT_EQ(evs[0].node, 3u);
  EXPECT_EQ(evs[0].aux8, 1u);
  EXPECT_EQ(evs[0].aux16, 16u);
  EXPECT_EQ(evs[0].aux32, 99u);
  EXPECT_EQ(evs[1].kind, EventKind::GateAllow);
  EXPECT_EQ(evs[2].kind, EventKind::VcAlloc);
  // Per-thread sequence numbers are strictly increasing.
  EXPECT_LT(evs[0].seq, evs[1].seq);
  EXPECT_LT(evs[1].seq, evs[2].seq);
}

TEST(Tracer, RingWrapKeepsNewestAndCountsDrops) {
  Tracer t(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    t.record(i, EventKind::GateBlock, i);
  }
  EXPECT_EQ(t.events_recorded(), 10u);
  EXPECT_EQ(t.events_dropped(), 6u);

  const auto evs = t.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // Keep-latest policy: the last four records survive, oldest first.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].cycle, 6u + i);
    EXPECT_EQ(evs[i].node, 6u + i);
  }
}

TEST(Tracer, PointBracketingStampsPid) {
  Tracer t(64);
  t.begin_point(0, "none @ 0.1");
  t.record(1, EventKind::GateAllow, 0);
  t.end_point(0, 100);
  t.begin_point(1, "alo @ 0.2");
  t.record(2, EventKind::GateBlock, 0);
  t.end_point(1, 200);

  const auto evs = t.snapshot();
  ASSERT_EQ(evs.size(), 6u);  // 2 events + 2 begin + 2 end markers
  for (const TraceEvent& e : evs) {
    if (e.kind == EventKind::GateAllow) {
      EXPECT_EQ(e.pid, 0u);
    } else if (e.kind == EventKind::GateBlock) {
      EXPECT_EQ(e.pid, 1u);
    }
  }
  // Snapshot is sorted by pid first.
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_LE(evs[i - 1].pid, evs[i].pid);
  }
}

TEST(Tracer, ConcurrentRecordingLosesNothing) {
  Tracer t(std::size_t{1} << 12);
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&t, w] {
      t.begin_point(static_cast<std::uint32_t>(w), "pt");
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        t.record(i, EventKind::QueueDequeue, static_cast<std::uint32_t>(w));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(t.events_recorded(), kThreads * (kPerThread + 1u));
  EXPECT_EQ(t.events_dropped(), 0u);
  const auto evs = t.snapshot();
  ASSERT_EQ(evs.size(), kThreads * (kPerThread + 1u));
  // Within each pid (one recording thread each), order is by seq.
  for (std::size_t i = 1; i < evs.size(); ++i) {
    ASSERT_LE(evs[i - 1].pid, evs[i].pid);
    if (evs[i - 1].pid == evs[i].pid) {
      ASSERT_LT(evs[i - 1].seq, evs[i].seq);
    }
  }
}

TEST(Tracer, EventKindNamesAreUnique) {
  const EventKind all[] = {
      EventKind::GateAllow,       EventKind::GateBlock,
      EventKind::AloProbe,        EventKind::VcAlloc,
      EventKind::VcRelease,       EventKind::DeadlockDetect,
      EventKind::RecoveryReinject, EventKind::QueueEnqueue,
      EventKind::QueueDequeue,    EventKind::PointBegin,
      EventKind::PointEnd,
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
  t.begin_point(0, "none @ 0.4");
  t.record(10, EventKind::GateBlock, 7, 0, 16, 120);
  t.record(11, EventKind::VcAlloc, 21, 1, 0, 5);
  t.record(12, EventKind::DeadlockDetect, 7, 0, 16, 5);
  t.end_point(0, 500);

  std::ostringstream os;
  t.write_chrome_trace(os);
  std::string err;
  const auto doc = util::json_parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;

  const util::JsonValue* events = doc->find("traceEvents");
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
}

TEST(Tracer, ChromeTraceReportsDrops) {
  Tracer t(2);
  t.begin_point(0, "p");
  for (int i = 0; i < 50; ++i) {
    t.record(static_cast<std::uint64_t>(i), EventKind::GateAllow, 0);
  }
  t.end_point(0, 50);
  EXPECT_GT(t.events_dropped(), 0u);

  std::ostringstream os;
  t.write_chrome_trace(os);
  std::string err;
  const auto doc = util::json_parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->find("traceEvents")->is_array());
}

}  // namespace
}  // namespace wormsim::obs
