#include "server/flight_recorder.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>

#include "server/wire.h"

namespace kspin::server {
namespace {

// Word layout shared by writer and dump. Word 0 is the record kind, word
// 1 the timestamp; the rest is kind-specific (see Encode* below).
constexpr std::uint64_t kKindSpan = 1;
constexpr std::uint64_t kKindEvent = 2;

// Span opcode as dumped: the table name upper-cased ("SEARCH_BOOLEAN").
std::string OpcodeName(std::uint8_t opcode) {
  const OpcodeInfo* const row = FindOpcode(static_cast<Opcode>(opcode));
  if (row == nullptr) return "UNKNOWN";
  std::string name(row->name);
  for (char& c : name) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return name;
}

}  // namespace

std::string_view DiagEventName(DiagEvent event) {
  switch (event) {
    case DiagEvent::kPromote: return "PROMOTE";
    case DiagEvent::kStaleEpochFence: return "STALE_EPOCH_FENCE";
    case DiagEvent::kBrownoutEnter: return "BROWNOUT_ENTER";
    case DiagEvent::kBrownoutExit: return "BROWNOUT_EXIT";
    case DiagEvent::kReplicationSourceOplog:
      return "REPLICATION_SOURCE_OPLOG";
    case DiagEvent::kReplicationSourceSnapshot:
      return "REPLICATION_SOURCE_SNAPSHOT";
    case DiagEvent::kShedBurst: return "SHED_BURST";
    case DiagEvent::kSnapshotWritten: return "SNAPSHOT_WRITTEN";
    case DiagEvent::kSnapshotRestored: return "SNAPSHOT_RESTORED";
    case DiagEvent::kOplogRotated: return "OPLOG_ROTATED";
  }
  return "UNKNOWN";
}

std::string_view DiagShedCauseName(DiagShedCause cause) {
  switch (cause) {
    case DiagShedCause::kQueueFull: return "QUEUE_FULL";
    case DiagShedCause::kLimited: return "LIMITED";
    case DiagShedCause::kDeadline: return "DEADLINE";
    case DiagShedCause::kCodel: return "CODEL";
    case DiagShedCause::kRateLimited: return "RATE_LIMITED";
  }
  return "UNKNOWN";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 64)),
      slots_(new Slot[capacity_]),
      start_(std::chrono::steady_clock::now()) {}

std::uint64_t FlightRecorder::NowMicros() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

std::uint64_t FlightRecorder::NextSpanId() {
  return span_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void FlightRecorder::WriteSlot(
    const std::uint64_t (&words)[kWordsPerSlot]) {
  const std::uint64_t seq =
      cursor_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[seq % capacity_];
  // Invalidate first so a dump racing this overwrite sees a stamp
  // mismatch instead of a half-new record with the old stamp.
  slot.stamp.store(0, std::memory_order_release);
  for (std::size_t i = 0; i < kWordsPerSlot; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.stamp.store(seq, std::memory_order_release);
}

void FlightRecorder::RecordSpan(const SpanRecord& span) {
  std::uint64_t words[kWordsPerSlot] = {};
  words[0] = kKindSpan;
  words[1] = NowMicros();
  words[2] = span.trace_id;
  words[3] = span.parent_span_id;
  words[4] = span.span_id;
  words[5] = static_cast<std::uint64_t>(span.opcode) |
             static_cast<std::uint64_t>(span.status) << 8 |
             static_cast<std::uint64_t>(span.degraded) << 16;
  words[6] = static_cast<std::uint64_t>(span.queue_us) |
             static_cast<std::uint64_t>(span.execute_us) << 32;
  words[7] = static_cast<std::uint64_t>(span.reply_us) |
             static_cast<std::uint64_t>(span.results) << 32;
  words[8] = span.heap_build_ns;
  words[9] = span.search_ns;
  words[10] = static_cast<std::uint64_t>(span.heap_pops) |
              static_cast<std::uint64_t>(span.lower_bounds) << 32;
  words[11] = static_cast<std::uint64_t>(span.distance_computations) |
              static_cast<std::uint64_t>(span.false_positive_distances)
                  << 32;
  WriteSlot(words);
}

void FlightRecorder::RecordEvent(DiagEvent event, std::uint64_t a,
                                 std::uint64_t b) {
  std::uint64_t words[kWordsPerSlot] = {};
  words[0] = kKindEvent;
  words[1] = NowMicros();
  words[2] = static_cast<std::uint64_t>(event);
  words[3] = a;
  words[4] = b;
  WriteSlot(words);
}

std::string FlightRecorder::Dump(std::size_t max_bytes) const {
  const std::uint64_t end = cursor_.load(std::memory_order_acquire);
  const std::uint64_t begin =
      end > capacity_ ? end - capacity_ + 1 : std::uint64_t{1};

  std::vector<std::string> lines;
  lines.reserve(end >= begin ? static_cast<std::size_t>(end - begin + 1)
                             : 0);
  char buf[512];
  for (std::uint64_t seq = begin; seq <= end; ++seq) {
    const Slot& slot = slots_[seq % capacity_];
    std::uint64_t words[kWordsPerSlot];
    const std::uint64_t s1 = slot.stamp.load(std::memory_order_acquire);
    if (s1 != seq) continue;  // Already overwritten (or mid-write).
    for (std::size_t i = 0; i < kWordsPerSlot; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    // Acquire re-check: the copy is only kept if no writer touched the
    // slot in between (WriteSlot zeroes the stamp before the words).
    if (slot.stamp.load(std::memory_order_acquire) != s1) continue;

    int n = 0;
    if (words[0] == kKindSpan) {
      n = std::snprintf(
          buf, sizeof buf,
          "{\"kind\":\"span\",\"seq\":%" PRIu64 ",\"t_us\":%" PRIu64
          ",\"trace_id\":\"%016" PRIx64 "\",\"parent_span_id\":\"%016"
          PRIx64 "\",\"span_id\":\"%016" PRIx64
          "\",\"opcode\":\"%s\",\"status\":\"%s\",\"degraded\":%u,"
          "\"queue_us\":%u,\"execute_us\":%u,\"reply_us\":%u,"
          "\"results\":%u,\"heap_build_ns\":%" PRIu64 ",\"search_ns\":%"
          PRIu64 ",\"heap_pops\":%u,\"lower_bounds\":%u,"
          "\"distance_computations\":%u,\"false_positive_distances\":%u}",
          seq, words[1], words[2], words[3], words[4],
          OpcodeName(static_cast<std::uint8_t>(words[5])).c_str(),
          std::string(
              StatusName(static_cast<StatusCode>(words[5] >> 8 & 0xFF)))
              .c_str(),
          static_cast<unsigned>(words[5] >> 16 & 0xFF),
          static_cast<unsigned>(words[6] & 0xFFFFFFFF),
          static_cast<unsigned>(words[6] >> 32),
          static_cast<unsigned>(words[7] & 0xFFFFFFFF),
          static_cast<unsigned>(words[7] >> 32), words[8], words[9],
          static_cast<unsigned>(words[10] & 0xFFFFFFFF),
          static_cast<unsigned>(words[10] >> 32),
          static_cast<unsigned>(words[11] & 0xFFFFFFFF),
          static_cast<unsigned>(words[11] >> 32));
    } else if (words[0] == kKindEvent) {
      const auto event = static_cast<DiagEvent>(words[2]);
      if (event == DiagEvent::kShedBurst) {
        n = std::snprintf(
            buf, sizeof buf,
            "{\"kind\":\"event\",\"seq\":%" PRIu64 ",\"t_us\":%" PRIu64
            ",\"type\":\"SHED_BURST\",\"cause\":\"%s\",\"count\":%" PRIu64
            "}",
            seq, words[1],
            std::string(
                DiagShedCauseName(static_cast<DiagShedCause>(words[3])))
                .c_str(),
            words[4]);
      } else {
        n = std::snprintf(
            buf, sizeof buf,
            "{\"kind\":\"event\",\"seq\":%" PRIu64 ",\"t_us\":%" PRIu64
            ",\"type\":\"%s\",\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}",
            seq, words[1],
            std::string(DiagEventName(event)).c_str(), words[3],
            words[4]);
      }
    } else {
      continue;  // Unknown kind (future revision); skip.
    }
    if (n > 0) lines.emplace_back(buf, static_cast<std::size_t>(n));
  }

  // Keep the newest lines that fit the byte budget (0 = unlimited).
  std::size_t first = 0;
  if (max_bytes > 0) {
    std::size_t total = 0;
    first = lines.size();
    while (first > 0 && total + lines[first - 1].size() + 1 <= max_bytes) {
      total += lines[first - 1].size() + 1;
      --first;
    }
  }
  std::string out;
  for (std::size_t i = first; i < lines.size(); ++i) {
    out += lines[i];
    out += '\n';
  }
  return out;
}

}  // namespace kspin::server
