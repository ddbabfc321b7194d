#include "common/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/telemetry.h"

namespace rlccd {
namespace {

// Every trace test owns the global recorder for its duration: enable()
// drops anything a previous test buffered, and the test disables before
// returning so unrelated telemetry tests never record events.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { TraceRecorder::global().disable(); }
};

JsonValue parse_trace(const TraceRecorder& rec) {
  JsonValue doc;
  Status s = JsonValue::parse(rec.to_chrome_json(), doc);
  EXPECT_TRUE(s.ok()) << s.to_string();
  return doc;
}

const JsonValue* find_event(const JsonValue& doc, std::string_view name) {
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) return nullptr;
  for (const JsonValue& e : events->array_items()) {
    if (e.string_or("name", "") == name) return &e;
  }
  return nullptr;
}

TEST_F(TraceTest, ChromeJsonIsStructurallyValid) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.enable();
  {
    RLCCD_SPAN("trace_outer");
    RLCCD_SPAN("trace_inner");
  }
  RLCCD_TRACE_INSTANT("trace_marker");
  rec.disable();

  JsonValue doc = parse_trace(rec);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.string_or("displayTimeUnit", ""), "ms");
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Complete events: the Perfetto-required fields with sane values.
  const JsonValue* outer = find_event(doc, "trace_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->string_or("ph", ""), "X");
  EXPECT_EQ(outer->string_or("cat", ""), "span");
  EXPECT_GE(outer->number_or("ts", -1.0), 0.0);
  EXPECT_GE(outer->number_or("dur", -1.0), 0.0);
  ASSERT_NE(outer->find("pid"), nullptr);
  ASSERT_NE(outer->find("tid"), nullptr);
  EXPECT_NE(find_event(doc, "trace_inner"), nullptr);

  // Instant events: "ph":"i" with thread scope.
  const JsonValue* marker = find_event(doc, "trace_marker");
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(marker->string_or("ph", ""), "i");
  EXPECT_EQ(marker->string_or("cat", ""), "marker");
  EXPECT_EQ(marker->string_or("s", ""), "t");
  EXPECT_EQ(marker->find("dur"), nullptr);

  // The inner span closed first, so it must not start before the outer one.
  EXPECT_GE(find_event(doc, "trace_inner")->number_or("ts", -1.0), 0.0);
}

TEST_F(TraceTest, RingDropsOldestAndCountsTheLoss) {
  TraceRecorder& rec = TraceRecorder::global();
  MetricsCounter& dropped_counter =
      MetricsRegistry::global().counter("trace.events_dropped");
  const std::uint64_t counter_before = dropped_counter.value();

  constexpr std::size_t kCapacity = 16;  // enable() clamps below this
  constexpr int kRecorded = 40;
  rec.enable(kCapacity);
  for (int i = 0; i < kRecorded; ++i) {
    RLCCD_TRACE_INSTANT(i < kRecorded - static_cast<int>(kCapacity)
                            ? "old_event"
                            : "new_event");
  }
  rec.disable();

  EXPECT_EQ(rec.buffered_events(), kCapacity);
  EXPECT_EQ(rec.dropped_events(), kRecorded - kCapacity);
  EXPECT_EQ(dropped_counter.value() - counter_before, kRecorded - kCapacity);

  // Drop-oldest: only the newest events survive the wrap.
  JsonValue doc = parse_trace(rec);
  EXPECT_EQ(find_event(doc, "old_event"), nullptr);
  ASSERT_NE(find_event(doc, "new_event"), nullptr);
  EXPECT_EQ(doc.find("traceEvents")->array_items().size(), kCapacity);
}

TEST_F(TraceTest, EnableClampsTinyCapacities) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.enable(1);
  for (int i = 0; i < 16; ++i) RLCCD_TRACE_INSTANT("tiny");
  rec.disable();
  EXPECT_EQ(rec.buffered_events(), 16u) << "minimum ring capacity is 16";
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST_F(TraceTest, DisabledRecorderBuffersNothing) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.enable();
  rec.disable();
  ASSERT_FALSE(TraceRecorder::enabled());

  RLCCD_TRACE_INSTANT("while_disabled");
  RLCCD_TRACE_COMPLETE("span_while_disabled", 0.0, 1.0);
  {
    RLCCD_SPAN("telemetry_span_while_disabled");
  }
  EXPECT_EQ(rec.buffered_events(), 0u);
  JsonValue doc = parse_trace(rec);
  EXPECT_EQ(find_event(doc, "while_disabled"), nullptr);
}

TEST_F(TraceTest, ReEnableDropsPreviousBuffer) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.enable();
  RLCCD_TRACE_INSTANT("first_session");
  rec.disable();
  rec.enable();
  RLCCD_TRACE_INSTANT("second_session");
  rec.disable();

  JsonValue doc = parse_trace(rec);
  EXPECT_EQ(find_event(doc, "first_session"), nullptr);
  EXPECT_NE(find_event(doc, "second_session"), nullptr);
  EXPECT_EQ(rec.buffered_events(), 1u);
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST_F(TraceTest, LongNamesAreTruncatedNotCorrupted) {
  const std::string long_name(3 * TraceEvent::kMaxName, 'x');
  TraceRecorder& rec = TraceRecorder::global();
  rec.enable();
  RLCCD_TRACE_INSTANT(long_name);
  rec.disable();

  JsonValue doc = parse_trace(rec);
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_EQ(events->array_items().size(), 1u);
  const std::string got = events->array_items()[0].string_or("name", "");
  EXPECT_EQ(got, long_name.substr(0, TraceEvent::kMaxName));
}

TEST_F(TraceTest, WorkerThreadEventsSurviveJoin) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.enable();
  RLCCD_TRACE_INSTANT("main_thread_event");
  std::thread worker([] {
    RLCCD_SPAN("worker_span");
  });
  worker.join();
  rec.disable();

  JsonValue doc = parse_trace(rec);
  const JsonValue* main_ev = find_event(doc, "main_thread_event");
  const JsonValue* worker_ev = find_event(doc, "worker_span");
  ASSERT_NE(main_ev, nullptr);
  ASSERT_NE(worker_ev, nullptr);
  EXPECT_NE(main_ev->number_or("tid", -1.0), worker_ev->number_or("tid", -1.0))
      << "each thread exports its own timeline row";
}

TEST_F(TraceTest, ThreadsOfOneSlotShareARowApartFromThreadRows) {
  // Two short-lived threads take turns at slot 0, as a trainer's worker 0
  // does across iterations; a third records as slot 1 and a fourth as
  // itself.
  TraceRecorder& rec = TraceRecorder::global();
  rec.enable();
  RLCCD_TRACE_INSTANT("main");
  auto run = [](int slot, const char* name) {
    std::thread t([slot, name] {
      if (slot >= 0) TraceRecorder::set_thread_slot(slot);
      RLCCD_TRACE_INSTANT(name);
    });
    t.join();
  };
  run(0, "slot0_first");
  run(0, "slot0_second");
  run(1, "slot1");
  run(-1, "own_row");
  rec.disable();

  JsonValue doc = parse_trace(rec);
  auto row = [&](const char* name) {
    const JsonValue* ev = find_event(doc, name);
    EXPECT_NE(ev, nullptr) << name;
    return ev != nullptr ? ev->number_or("tid", -1.0) : -1.0;
  };
  EXPECT_EQ(row("slot0_first"), row("slot0_second"));
  const std::set<double> rows = {row("main"), row("slot0_first"),
                                 row("slot1"), row("own_row")};
  EXPECT_EQ(rows.size(), 4u) << "slot rows never collide with thread rows";
}

TEST_F(TraceTest, MacrosDoNotEvaluateArgumentsWhenDisabled) {
  // The runtime gate must short-circuit before any work happens; building
  // the name below would be visible as a buffered event if it did not.
  ASSERT_FALSE(TraceRecorder::enabled());
  const std::uint64_t buffered_before =
      TraceRecorder::global().buffered_events();
  int evaluations = 0;
  auto name = [&evaluations]() -> std::string {
    ++evaluations;
    return "expensive_name";
  };
  (void)name;
  RLCCD_TRACE_INSTANT(name());
  EXPECT_EQ(evaluations, 0) << "arguments sit behind the enabled() branch";
  EXPECT_EQ(TraceRecorder::global().buffered_events(), buffered_before);
}

// -- collection cursors -------------------------------------------------------

using Names = std::vector<std::string>;

Names collect_names(TraceCursor& cursor) {
  std::vector<CollectedTraceEvent> events;
  TraceRecorder::global().collect_since(cursor, events);
  Names names;
  for (const CollectedTraceEvent& ev : events) names.push_back(ev.name);
  return names;
}

TEST_F(TraceTest, CursorShipsOnlyEventsSinceItsLastCollect) {
  TraceRecorder::global().enable(64);
  TraceCursor cursor;
  RLCCD_TRACE_INSTANT("a");
  RLCCD_TRACE_INSTANT("b");
  EXPECT_EQ(collect_names(cursor), (Names{"a", "b"}));
  EXPECT_EQ(collect_names(cursor), Names{}) << "nothing new since";
  RLCCD_TRACE_INSTANT("c");
  EXPECT_EQ(collect_names(cursor), Names{"c"});
}

TEST_F(TraceTest, CursorBehindAWrappedRingResumesAtOldestSurvivor) {
  TraceRecorder& rec = TraceRecorder::global();
  MetricsCounter& dropped_counter =
      MetricsRegistry::global().counter("trace.events_dropped");
  const std::uint64_t counter_before = dropped_counter.value();
  rec.enable(16);
  TraceCursor cursor;
  RLCCD_TRACE_INSTANT("shipped");
  ASSERT_EQ(collect_names(cursor), Names{"shipped"});

  for (int i = 0; i < 40; ++i) RLCCD_TRACE_INSTANT(std::to_string(i));
  Names tail;
  for (int i = 24; i < 40; ++i) tail.push_back(std::to_string(i));
  EXPECT_EQ(collect_names(cursor), tail)
      << "the 16 survivors, oldest first and gap-free";
  EXPECT_EQ(rec.dropped_events(), 25u);
  EXPECT_EQ(dropped_counter.value() - counter_before, 25u);
  EXPECT_EQ(collect_names(cursor), Names{});
}

TEST_F(TraceTest, ReEnableResetsAHeldCursor) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.enable(64);
  TraceCursor cursor;
  RLCCD_TRACE_INSTANT("old_collected");
  ASSERT_EQ(collect_names(cursor), Names{"old_collected"});
  RLCCD_TRACE_INSTANT("old_uncollected");

  rec.enable(64);
  RLCCD_TRACE_INSTANT("new");
  EXPECT_EQ(collect_names(cursor), Names{"new"})
      << "a held cursor never re-reads the old generation";
}

TEST_F(TraceTest, SyncCursorSkipsEverythingRecordedBeforeIt) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.enable(64);
  for (int i = 0; i < 5; ++i) RLCCD_TRACE_INSTANT("inherited");
  // A forked rollout child primes its cursor this way, so the parent's
  // events it inherited are never shipped back.
  TraceCursor cursor;
  rec.sync_cursor(cursor);
  RLCCD_TRACE_INSTANT("after_fork");
  EXPECT_EQ(collect_names(cursor), Names{"after_fork"});
}

// Four threads record while a fifth collects (a forked worker's heartbeat
// thread shipping while its rollout runs). The ring is large enough not to
// wrap, so every event must arrive exactly once.
TEST_F(TraceTest, ConcurrentCollectShipsEveryEventExactlyOnce) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  TraceRecorder::global().enable(1 << 14);
  std::atomic<int> running{kThreads};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([t, &running] {
      for (int i = 0; i < kPerThread; ++i) {
        RLCCD_TRACE_INSTANT(std::to_string(t) + "_" + std::to_string(i));
      }
      running.fetch_sub(1);
    });
  }
  TraceCursor cursor;
  std::vector<CollectedTraceEvent> shipped;
  std::thread collector([&] {
    while (running.load() > 0) {
      TraceRecorder::global().collect_since(cursor, shipped);
      std::this_thread::yield();
    }
    TraceRecorder::global().collect_since(cursor, shipped);
  });
  for (std::thread& p : producers) p.join();
  collector.join();

  EXPECT_EQ(TraceRecorder::global().dropped_events(), 0u);
  ASSERT_EQ(shipped.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::set<std::string> names;
  for (const CollectedTraceEvent& ev : shipped) names.insert(ev.name);
  EXPECT_EQ(names.size(), shipped.size()) << "no event shipped twice";
}

}  // namespace
}  // namespace rlccd
