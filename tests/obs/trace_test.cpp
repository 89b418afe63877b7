#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "obs/trace_export.hpp"
#include "util/thread_pool.hpp"

namespace nocw::obs {
namespace {

#if defined(NOCW_TRACE_DISABLED)

TEST(Trace, DisabledBuildFoldsMacrosAway) {
  // NOCW_TRACING=OFF: the gate is the constant false and emission macros
  // are ((void)0) — this test only has to compile.
  EXPECT_FALSE(NOCW_TRACE_ON(kCatNoc));
  NOCW_TRACE_INSTANT(kCatNoc, "never", kPidNoc, 0, 0);
}

#else  // tracing compiled in

// The tracer is process-global; every test restores the disabled default so
// suites can run in any order.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::set_enabled(true);
    Tracer::set_categories(kCatAll);
    Tracer::set_sample_every(1);
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().clear();
    Tracer::set_categories(kCatAll);
    Tracer::set_sample_every(1);
    Tracer::set_enabled(false);
  }
};

TEST_F(TraceTest, DisabledRecordsNothingThroughMacros) {
  Tracer::set_enabled(false);
  const std::uint64_t before = Tracer::global().recorded();
  NOCW_TRACE_INSTANT(kCatNoc, "gated", kPidNoc, 1, 2);
  NOCW_TRACE_SPAN(kCatMac, "gated", kPidAccel, 1, 2, 3);
  EXPECT_EQ(Tracer::global().recorded(), before);
  EXPECT_FALSE(NOCW_TRACE_ON(kCatNoc));
}

TEST_F(TraceTest, CategoryMaskGates) {
  Tracer::set_categories(kCatMac);
  EXPECT_TRUE(NOCW_TRACE_ON(kCatMac));
  EXPECT_FALSE(NOCW_TRACE_ON(kCatNoc));
  NOCW_TRACE_INSTANT(kCatNoc, "masked-out", kPidNoc, 0, 0);
  NOCW_TRACE_INSTANT(kCatMac, "kept", kPidAccel, 0, 0);
  const auto events = Tracer::global().collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "kept");
}

TEST(TraceStatic, ParseCategories) {
  EXPECT_EQ(parse_categories("all"), kCatAll);
  EXPECT_EQ(parse_categories(""), kCatAll);
  EXPECT_EQ(parse_categories("noc"), kCatNoc);
  EXPECT_EQ(parse_categories("noc,mac"), kCatNoc | kCatMac);
  EXPECT_EQ(parse_categories("decomp,layer,mem,eval"),
            kCatDecomp | kCatLayer | kCatMem | kCatEval);
  EXPECT_EQ(parse_categories("noc,bogus"), kCatNoc);  // unknown ignored
}

TEST(TraceStatic, UnknownCategoriesWarnByName) {
  // A name that selects nothing (a typo, or a family that no longer exists)
  // must not silently trace nothing: one stderr line names every such token.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_categories("serve,noc,bogus"), kCatNoc);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("NOCW_TRACE_CATEGORIES"), std::string::npos)
      << warning;
  EXPECT_NE(warning.find("\"serve\", \"bogus\""), std::string::npos)
      << warning;
  EXPECT_EQ(std::count(warning.begin(), warning.end(), '\n'), 1) << warning;

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_categories("bogus,all"), kCatAll);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("\"bogus\""),
            std::string::npos);

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_categories("noc,mac"), kCatNoc | kCatMac);
  EXPECT_EQ(parse_categories("all"), kCatAll);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(TraceTest, CollectSortsByPidTidTs) {
  Tracer& t = Tracer::global();
  t.record_instant(kCatNoc, "c", kPidNoc, 1, 50);
  t.record_instant(kCatNoc, "a", kPidAccel, 0, 99);
  t.record_instant(kCatNoc, "d", kPidNoc, 1, 10);
  t.record_instant(kCatNoc, "b", kPidNoc, 0, 5);
  const auto events = t.collect();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "a");  // pid 1 before pid 2
  EXPECT_EQ(events[1].name, "b");  // pid 2 tid 0
  EXPECT_EQ(events[2].name, "d");  // pid 2 tid 1 ts 10
  EXPECT_EQ(events[3].name, "c");  // pid 2 tid 1 ts 50
}

TEST_F(TraceTest, ScopedTimeBaseShiftsAndRestores) {
  Tracer& t = Tracer::global();
  EXPECT_EQ(time_base(), 0u);
  {
    ScopedTimeBase outer(100);
    EXPECT_EQ(time_base(), 100u);
    t.record_instant(kCatNoc, "outer", kPidNoc, 0, 5);
    {
      ScopedTimeBase inner(time_base() + 40);
      t.record_instant(kCatNoc, "inner", kPidNoc, 0, 5);
    }
    EXPECT_EQ(time_base(), 100u);
  }
  EXPECT_EQ(time_base(), 0u);
  const auto events = t.collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].ts, 105u);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].ts, 145u);
}

TEST_F(TraceTest, RingDropsOldestAndCountsDrops) {
  Tracer& t = Tracer::global();
  const std::size_t cap = Tracer::buffer_capacity();
  const std::size_t extra = 10;
  for (std::size_t i = 0; i < cap + extra; ++i) {
    t.record_instant(kCatNoc, "e", kPidNoc, 0, i);
  }
  EXPECT_EQ(t.recorded(), cap);
  EXPECT_EQ(t.dropped(), extra);
  const auto events = t.collect();
  ASSERT_EQ(events.size(), cap);
  // Oldest `extra` events were overwritten: the window starts at ts = extra.
  EXPECT_EQ(events.front().ts, extra);
  EXPECT_EQ(events.back().ts, cap + extra - 1);
}

TEST_F(TraceTest, SpanCarriesDurationAndArg) {
  Tracer& t = Tracer::global();
  t.record_span(kCatMac, "busy", kPidAccel, 3, 7, 21, "macs", 64.0);
  const auto events = t.collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_EQ(events[0].dur, 21u);
  ASSERT_NE(events[0].arg_name, nullptr);
  EXPECT_STREQ(events[0].arg_name, "macs");
  EXPECT_DOUBLE_EQ(events[0].arg, 64.0);
}

// Forced-tiny ring capacity (Tracer::set_buffer_capacity): drop-oldest
// stays deterministic, counted, and exportable. Restores the configured
// capacity so suite order never leaks the override.
class TinyRingTest : public TraceTest {
 protected:
  void SetUp() override {
    TraceTest::SetUp();
    old_capacity_ = Tracer::buffer_capacity();
  }
  void TearDown() override {
    Tracer::set_buffer_capacity(old_capacity_);
    set_global_threads(1);
    TraceTest::TearDown();
  }

  static std::size_t event_lines(const std::string& json) {
    std::istringstream in(json);
    std::string line;
    std::size_t events = 0;
    while (std::getline(in, line)) {
      if (line.rfind("{\"name\":", 0) != 0) continue;
      if (line.find("\"ph\":\"M\"") != std::string::npos) continue;  // metadata
      ++events;
      for (const char* key :
           {"\"ph\":", "\"pid\":", "\"tid\":", "\"ts\":"}) {
        EXPECT_NE(line.find(key), std::string::npos)
            << "missing " << key << " in: " << line;
      }
    }
    return events;
  }

  std::size_t old_capacity_ = 0;
};

TEST_F(TinyRingTest, ForcedTinyCapacityDropsOldestDeterministically) {
  Tracer::set_buffer_capacity(8);
  Tracer& t = Tracer::global();
  for (std::size_t i = 0; i < 30; ++i) {
    t.record_instant(kCatNoc, "e", kPidNoc, 0, i);
  }
  EXPECT_EQ(t.recorded(), 8u);
  EXPECT_EQ(t.dropped(), 22u);
  const auto events = t.collect();
  ASSERT_EQ(events.size(), 8u);
  // Drop-oldest: the surviving window is exactly the last 8 events.
  EXPECT_EQ(events.front().ts, 22u);
  EXPECT_EQ(events.back().ts, 29u);
  // The truncated buffer still exports schema-valid Chrome JSON.
  const std::string json = to_chrome_json(events);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(event_lines(json), 8u);
}

TEST_F(TinyRingTest, MultiThreadDropsConserveCountsAtAnyLaneCount) {
  Tracer::set_buffer_capacity(16);
  constexpr std::size_t kTids = 24;
  constexpr std::size_t kPerTid = 8;
  for (const unsigned threads : {1U, 2U, 8U}) {
    set_global_threads(threads);
    Tracer& t = Tracer::global();
    t.clear();
    // Per-thread rings: which lane hosts which tid varies with the lane
    // count, but every recorded-or-dropped event is accounted somewhere.
    global_pool().parallel_for(
        0, kTids, 1, [&t](std::size_t begin, std::size_t end, unsigned) {
          for (std::size_t tid = begin; tid < end; ++tid) {
            for (std::size_t i = 0; i < kPerTid; ++i) {
              t.record_instant(kCatNoc, "mt", kPidNoc,
                               static_cast<std::uint32_t>(tid), i);
            }
          }
        });
    EXPECT_EQ(t.recorded() + t.dropped(), kTids * kPerTid)
        << "lanes " << threads;
    const auto events = t.collect();
    EXPECT_EQ(events.size(), t.recorded()) << "lanes " << threads;
    // collect() orders (pid, tid, ts) regardless of which ring held what,
    // and the export stays schema-valid under drops.
    for (std::size_t i = 1; i < events.size(); ++i) {
      const bool ordered =
          events[i - 1].tid < events[i].tid ||
          (events[i - 1].tid == events[i].tid &&
           events[i - 1].ts <= events[i].ts);
      ASSERT_TRUE(ordered) << "lanes " << threads << " index " << i;
    }
    EXPECT_EQ(event_lines(to_chrome_json(events)), events.size())
        << "lanes " << threads;
  }
}

TEST_F(TraceTest, ChromeJsonShapeAndMetadata) {
  Tracer& t = Tracer::global();
  t.record_instant(kCatNoc, "hop", kPidNoc, 2, 11);
  t.record_span(kCatLayer, "layer:conv1", kPidAccel, 0, 0, 100);
  const std::string json = to_chrome_json(t.collect());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hop\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":100"), std::string::npos);
}

#endif  // NOCW_TRACE_DISABLED

}  // namespace
}  // namespace nocw::obs
