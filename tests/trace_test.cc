/// Tests for the Tracer: span nesting and depth bookkeeping, the event
/// cap and its dropped count, the flight recorder ring buffer, and a
/// JsonValue round-trip of the emitted Chrome trace-event JSON (the
/// contract mbta_trace, Perfetto, and chrome://tracing all consume).

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/json_value.h"

namespace mbta {
namespace {

/// Events of the parsed document with a given "ph" value.
std::vector<const JsonValue*> EventsWithPhase(const JsonValue& doc,
                                              const std::string& ph) {
  std::vector<const JsonValue*> out;
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr) return out;
  for (const JsonValue& event : events->array_items) {
    const JsonValue* p = event.Find("ph");
    if (p != nullptr && std::string(p->StringOr("")) == ph) {
      out.push_back(&event);
    }
  }
  return out;
}

TEST(Tracer, SpansNestByDepth) {
  Tracer tracer;
  auto outer = tracer.BeginSpan("solve", "phase");
  auto inner = tracer.BeginSpan("solve/batch", "solver");
  tracer.EndSpan(inner);
  auto second = tracer.BeginSpan("solve/commit", "solver");
  tracer.EndSpan(second);
  tracer.EndSpan(outer);

  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(tracer.ToJson(), &doc));
  const auto spans = EventsWithPhase(doc, "X");
  ASSERT_EQ(spans.size(), 3u);
  // Emission order is begin order; depth is the open-span count at begin.
  EXPECT_EQ(std::string(spans[0]->Find("name")->StringOr("")), "solve");
  EXPECT_EQ(spans[0]->Find("depth")->NumberOr(-1.0), 0.0);
  EXPECT_EQ(std::string(spans[1]->Find("name")->StringOr("")),
            "solve/batch");
  EXPECT_EQ(spans[1]->Find("depth")->NumberOr(-1.0), 1.0);
  EXPECT_EQ(std::string(spans[2]->Find("name")->StringOr("")),
            "solve/commit");
  EXPECT_EQ(spans[2]->Find("depth")->NumberOr(-1.0), 1.0);
}

TEST(Tracer, EndSpanClosesAbandonedChildren) {
  // Ending an outer span with an inner one still open (mismatched
  // scopes) must pop the inner too, so later spans get depth 0.
  Tracer tracer;
  auto outer = tracer.BeginSpan("outer", "t");
  tracer.BeginSpan("inner", "t");  // never explicitly ended
  tracer.EndSpan(outer);
  auto after = tracer.BeginSpan("after", "t");
  tracer.EndSpan(after);

  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(tracer.ToJson(), &doc));
  const auto spans = EventsWithPhase(doc, "X");
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(std::string(spans[2]->Find("name")->StringOr("")), "after");
  EXPECT_EQ(spans[2]->Find("depth")->NumberOr(-1.0), 0.0);
}

TEST(Tracer, ScopedSpanWithNullTracerIsANoOp) {
  ScopedSpan span(nullptr, "never/emitted", "t");
  span.Arg("key", std::int64_t{1});
  span.Arg("other", "value");
  // Destructor must also be a no-op; nothing to assert beyond no crash.
}

TEST(Tracer, SpanIdsArePerTrackSequence) {
  Tracer tracer;
  auto a = tracer.BeginSpan("a", "t");
  tracer.EndSpan(a);
  tracer.Instant("b", "t");
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(tracer.ToJson(), &doc));
  const auto spans = EventsWithPhase(doc, "X");
  const auto instants = EventsWithPhase(doc, "i");
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_EQ(spans[0]->Find("id")->NumberOr(-1.0), 0.0);
  EXPECT_EQ(instants[0]->Find("id")->NumberOr(-1.0), 1.0);
}

TEST(Tracer, FullTrackDropsAndCounts) {
  Tracer tracer(/*max_events=*/2, /*flight_capacity=*/8);
  for (int i = 0; i < 5; ++i) tracer.Instant("tick", "t");
  EXPECT_EQ(tracer.dropped_events(), 3u);
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(tracer.ToJson(), &doc));
  EXPECT_EQ(EventsWithPhase(doc, "i").size(), 2u);
  const JsonValue* mbta = doc.Find("mbta");
  ASSERT_NE(mbta, nullptr);
  EXPECT_EQ(mbta->Find("dropped_events")->NumberOr(-1.0), 3.0);
}

TEST(Tracer, FlightRingKeepsNewestEventsOldestFirst) {
  Tracer tracer(Tracer::kDefaultMaxEvents, /*flight_capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    tracer.Instant("tick_" + std::to_string(i), "t");
  }
  const TraceSnapshot snapshot = tracer.SnapshotFlight("test");
  EXPECT_EQ(snapshot.trigger, "test");
  EXPECT_EQ(snapshot.total_events, 5u);
  ASSERT_EQ(snapshot.events.size(), 3u);
  EXPECT_EQ(snapshot.events[0].name, "tick_2");
  EXPECT_EQ(snapshot.events[1].name, "tick_3");
  EXPECT_EQ(snapshot.events[2].name, "tick_4");
}

TEST(Tracer, FlightBeforeWraparoundIsOrdered) {
  Tracer tracer(Tracer::kDefaultMaxEvents, /*flight_capacity=*/8);
  tracer.Instant("one", "t");
  tracer.Instant("two", "t");
  const TraceSnapshot snapshot = tracer.SnapshotFlight("early");
  ASSERT_EQ(snapshot.events.size(), 2u);
  EXPECT_EQ(snapshot.events[0].name, "one");
  EXPECT_EQ(snapshot.events[1].name, "two");
  EXPECT_FALSE(snapshot.empty());
  EXPECT_TRUE(TraceSnapshot{}.empty());
}

TEST(Tracer, FlightRecordsSpanEndsWithDepth) {
  Tracer tracer;
  auto outer = tracer.BeginSpan("outer", "t");
  auto inner = tracer.BeginSpan("inner", "t");
  tracer.EndSpan(inner);
  tracer.EndSpan(outer);
  const TraceSnapshot snapshot = tracer.SnapshotFlight("test");
  // Flight order is *end* order: inner closes first.
  ASSERT_EQ(snapshot.events.size(), 2u);
  EXPECT_EQ(snapshot.events[0].name, "inner");
  EXPECT_EQ(snapshot.events[0].depth, 1);
  EXPECT_EQ(snapshot.events[1].name, "outer");
  EXPECT_EQ(snapshot.events[1].depth, 0);
}

TEST(Tracer, JsonCarriesChromeTraceFields) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "solve/batch", "solver");
    span.Arg("edges", std::int64_t{128});
    span.Arg("mode", "lazy");
  }
  tracer.Instant("budget/deadline", "budget");

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(tracer.ToJson(), &doc, &error)) << error;

  // Metadata: process_name + the one thread_name.
  const auto metadata = EventsWithPhase(doc, "M");
  ASSERT_EQ(metadata.size(), 2u);
  EXPECT_EQ(std::string(metadata[0]->Find("name")->StringOr("")),
            "process_name");
  EXPECT_EQ(std::string(metadata[1]->Find("name")->StringOr("")),
            "thread_name");
  EXPECT_EQ(std::string(
                metadata[1]->Find("args")->Find("name")->StringOr("")),
            "main");

  const auto spans = EventsWithPhase(doc, "X");
  ASSERT_EQ(spans.size(), 1u);
  const JsonValue& span = *spans[0];
  EXPECT_EQ(std::string(span.Find("name")->StringOr("")), "solve/batch");
  EXPECT_EQ(std::string(span.Find("cat")->StringOr("")), "solver");
  ASSERT_NE(span.Find("ts"), nullptr);
  ASSERT_NE(span.Find("dur"), nullptr);
  EXPECT_GE(span.Find("dur")->NumberOr(-1.0), 0.0);
  EXPECT_EQ(span.Find("pid")->NumberOr(-1.0), 1.0);
  EXPECT_EQ(span.Find("tid")->NumberOr(-1.0), 1.0);
  EXPECT_EQ(span.Find("args")->Find("edges")->NumberOr(-1.0), 128.0);
  EXPECT_EQ(std::string(span.Find("args")->Find("mode")->StringOr("")),
            "lazy");

  const auto instants = EventsWithPhase(doc, "i");
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_EQ(std::string(instants[0]->Find("s")->StringOr("")), "t");
  // Instants carry no dur field.
  EXPECT_EQ(instants[0]->Find("dur"), nullptr);

  const JsonValue* mbta = doc.Find("mbta");
  ASSERT_NE(mbta, nullptr);
  EXPECT_EQ(mbta->Find("tracks")->NumberOr(-1.0), 1.0);
  EXPECT_EQ(mbta->Find("events")->NumberOr(-1.0), 2.0);
  EXPECT_EQ(mbta->Find("dropped_events")->NumberOr(-1.0), 0.0);
}

TEST(Tracer, WriteFileRoundTrips) {
  Tracer tracer;
  tracer.Instant("tick", "t");
  const std::string path =
      testing::TempDir() + "/mbta_trace_test_roundtrip.json";
  std::string error;
  ASSERT_TRUE(tracer.WriteFile(path, &error)) << error;

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(text, &doc, &error)) << error;
  EXPECT_EQ(EventsWithPhase(doc, "i").size(), 1u);
}

}  // namespace
}  // namespace mbta
