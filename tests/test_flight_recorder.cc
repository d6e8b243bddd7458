// Unit tests for the flight recorder: JSON rendering of spans and
// events, ring wraparound, the Dump byte budget, events surviving a span
// storm, and — most importantly under TSan — concurrent writers racing a
// concurrent Dump through the per-slot seqlock without a data race or a
// torn record escaping.
#include "server/flight_recorder.h"

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace kspin::server {
namespace {

std::vector<std::string> Lines(const std::string& dump) {
  std::vector<std::string> lines;
  std::stringstream in(dump);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(FlightRecorderTest, EventRenderedWithNameAndArgs) {
  FlightRecorder recorder(64);
  recorder.RecordEvent(DiagEvent::kPromote, 7, 1234);
  const std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("\"kind\":\"event\""), std::string::npos);
  EXPECT_NE(dump.find("\"type\":\"PROMOTE\""), std::string::npos);
  EXPECT_NE(dump.find("\"a\":7"), std::string::npos);
  EXPECT_NE(dump.find("\"b\":1234"), std::string::npos);
}

TEST(FlightRecorderTest, ShedBurstRenderedWithCauseName) {
  FlightRecorder recorder(64);
  recorder.RecordEvent(DiagEvent::kShedBurst,
                       static_cast<std::uint64_t>(DiagShedCause::kCodel),
                       42);
  const std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("\"type\":\"SHED_BURST\""), std::string::npos);
  EXPECT_NE(dump.find("\"cause\":\"CODEL\""), std::string::npos);
  EXPECT_NE(dump.find("\"count\":42"), std::string::npos);
}

TEST(FlightRecorderTest, SpanRenderedWithTraceIdsAndTimings) {
  FlightRecorder recorder(64);
  SpanRecord span;
  span.trace_id = 0x00ABCDEF01234567ull;
  span.parent_span_id = 0x1111222233334444ull;
  span.span_id = recorder.NextSpanId();
  span.opcode = 0x10;  // kSearchBoolean.
  span.status = 0;     // kOk.
  span.degraded = 1;
  span.queue_us = 12;
  span.execute_us = 345;
  span.reply_us = 6;
  span.results = 10;
  span.heap_pops = 99;
  recorder.RecordSpan(span);
  const std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("\"kind\":\"span\""), std::string::npos);
  EXPECT_NE(dump.find("\"trace_id\":\"00abcdef01234567\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"parent_span_id\":\"1111222233334444\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"degraded\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"queue_us\":12"), std::string::npos);
  EXPECT_NE(dump.find("\"execute_us\":345"), std::string::npos);
  EXPECT_NE(dump.find("\"reply_us\":6"), std::string::npos);
  EXPECT_NE(dump.find("\"results\":10"), std::string::npos);
  EXPECT_NE(dump.find("\"heap_pops\":99"), std::string::npos);
}

TEST(FlightRecorderTest, NextSpanIdNeverZeroAndDistinct) {
  FlightRecorder recorder(64);
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t id = recorder.NextSpanId();
    EXPECT_NE(id, 0u);
    EXPECT_GT(id, last);
    last = id;
  }
}

SpanRecord NumberedSpan(std::uint64_t i) {
  SpanRecord span;
  span.trace_id = i;
  span.span_id = i;
  span.opcode = 0x10;  // kSearchBoolean.
  span.results = static_cast<std::uint32_t>(i);
  return span;
}

TEST(FlightRecorderTest, WraparoundKeepsOnlyNewestRecords) {
  FlightRecorder recorder(64);
  ASSERT_EQ(recorder.capacity(), 64u);
  for (std::uint64_t i = 1; i <= 200; ++i) {
    recorder.RecordSpan(NumberedSpan(i));
  }
  EXPECT_EQ(recorder.written(), 200u);
  const auto lines = Lines(recorder.Dump());
  ASSERT_LE(lines.size(), 64u);
  ASSERT_FALSE(lines.empty());
  // Oldest-first, and the survivors are the newest writes: the last line
  // must be the final span, the first no older than written - capacity.
  EXPECT_NE(lines.back().find("\"results\":200"), std::string::npos);
  EXPECT_NE(lines.front().find("\"seq\":137"), std::string::npos);
}

TEST(FlightRecorderTest, ByteBudgetKeepsNewestLines) {
  FlightRecorder recorder(64);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    recorder.RecordSpan(NumberedSpan(i));
  }
  const auto full = Lines(recorder.Dump());
  ASSERT_EQ(full.size(), 50u);
  const std::string trimmed = recorder.Dump(1024);
  EXPECT_LE(trimmed.size(), 1024u);
  const auto kept = Lines(trimmed);
  ASSERT_FALSE(kept.empty());
  EXPECT_LT(kept.size(), full.size());
  // The newest line survives the trim; the oldest ones are dropped.
  EXPECT_EQ(kept.back(), full.back());
}

// Events live in their own ring, so a span storm many times the span
// capacity cannot evict them, and a byte-limited dump keeps them before
// it spends the rest of the budget on the newest spans.
TEST(FlightRecorderTest, SpanStormKeepsEarlierEvent) {
  FlightRecorder recorder(64);
  recorder.RecordEvent(DiagEvent::kBrownoutEnter, 3);
  for (std::uint64_t i = 1; i <= 10 * recorder.capacity(); ++i) {
    recorder.RecordSpan(NumberedSpan(i));
  }
  const std::string event = "\"type\":\"BROWNOUT_ENTER\"";
  const auto full = Lines(recorder.Dump());
  ASSERT_EQ(full.size(), recorder.capacity() + 1);
  EXPECT_NE(full.front().find(event), std::string::npos);

  const std::string trimmed = recorder.Dump(512);
  EXPECT_LE(trimmed.size(), 512u);
  const auto kept = Lines(trimmed);
  ASSERT_EQ(kept.size(), 2u);  // The event plus the newest span.
  EXPECT_NE(kept.front().find(event), std::string::npos);
  EXPECT_EQ(kept.back(), full.back());
}

// The TSan-load-bearing test: writers on several threads race each other
// and a dumping reader. Correctness bar: no data race (TSan), every
// dumped line is a complete JSON object (no torn records), and the ring
// still accounts for every write.
TEST(FlightRecorderTest, ConcurrentWritersAndDumperProduceSaneRecords) {
  FlightRecorder recorder(128);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  std::atomic<bool> stop{false};

  std::thread dumper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string dump = recorder.Dump();
      for (const std::string& line : Lines(dump)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        if ((i & 1) == 0) {
          SpanRecord span;
          span.trace_id = static_cast<std::uint64_t>(w) << 32 |
                          static_cast<std::uint64_t>(i);
          span.span_id = recorder.NextSpanId();
          span.opcode = 0x10;
          recorder.RecordSpan(span);
        } else {
          recorder.RecordEvent(DiagEvent::kShedBurst,
                               static_cast<std::uint64_t>(
                                   DiagShedCause::kQueueFull),
                               static_cast<std::uint64_t>(i));
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  dumper.join();

  EXPECT_EQ(recorder.written(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  // Quiescent now: every slot of both rings has a stable record, so the
  // dump holds exactly one complete line per slot.
  EXPECT_EQ(Lines(recorder.Dump()).size(),
            recorder.capacity() + FlightRecorder::kEventCapacity);
}

}  // namespace
}  // namespace kspin::server
