// Always-on flight recorder: two fixed-size lock-free rings that retain
// the last N request spans and, in a ring of their own, the last
// kEventCapacity typed control-plane events (promotions, fencing,
// brownout transitions, replication source switches, shed bursts,
// snapshot/restore, op-log rotation), so a span storm cannot evict the
// events that explain it. Writers are wait-free (two fetch_adds plus
// relaxed word stores); a concurrent Dump() copies each slot through a
// per-slot sequence stamp and drops slots that were being overwritten
// mid-copy, so a post-incident DUMP_DIAG scrape reconstructs what the
// node did without any pre-enabled tracing. See docs/observability.md.
#ifndef KSPIN_SERVER_FLIGHT_RECORDER_H_
#define KSPIN_SERVER_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kspin::server {

/// Control-plane event types journaled by the recorder.
enum class DiagEvent : std::uint8_t {
  kPromote = 1,            ///< a = new primary epoch, b = applied sequence.
  kStaleEpochFence = 2,    ///< a = observed epoch, b = own epoch.
  kBrownoutEnter = 3,      ///< a = admission limit at entry.
  kBrownoutExit = 4,       ///< a = admission limit at exit.
  kReplicationSourceOplog = 5,     ///< Tailing the primary's op log.
  kReplicationSourceSnapshot = 6,  ///< Fell back to snapshot transfer.
  kShedBurst = 7,          ///< a = shed cause (DiagShedCause), b = count.
  kSnapshotWritten = 8,    ///< a = snapshot sequence.
  kSnapshotRestored = 9,   ///< a = snapshot sequence.
  kOplogRotated = 10,      ///< a = truncate-through sequence.
};

/// DiagEvent::kShedBurst `a` argument.
enum class DiagShedCause : std::uint8_t {
  kQueueFull = 1,
  kLimited = 2,
  kDeadline = 3,
  kCodel = 4,
  kRateLimited = 5,
};

std::string_view DiagEventName(DiagEvent event);
std::string_view DiagShedCauseName(DiagShedCause cause);

/// One request span as recorded in the ring (and, when the file sink is
/// enabled, mirrored as a JSON line). Stage timings reuse the engine's
/// QueryStats; counters are the per-query deltas PR 5 already computes.
struct SpanRecord {
  std::uint64_t trace_id = 0;        ///< 0 = request carried no context.
  std::uint64_t parent_span_id = 0;
  std::uint64_t span_id = 0;         ///< Minted by this server.
  std::uint8_t opcode = 0;
  std::uint8_t status = 0;           ///< StatusCode.
  std::uint8_t degraded = 0;         ///< Served under brownout.
  std::uint32_t queue_us = 0;        ///< Admission sojourn (EDF queue wait).
  std::uint32_t execute_us = 0;      ///< Worker execution.
  std::uint32_t reply_us = 0;        ///< Reply encode + write.
  std::uint64_t heap_build_ns = 0;   ///< QueryStats stage timing.
  std::uint64_t search_ns = 0;       ///< QueryStats stage timing.
  std::uint32_t heap_pops = 0;
  std::uint32_t lower_bounds = 0;
  std::uint32_t distance_computations = 0;
  std::uint32_t false_positive_distances = 0;
  std::uint32_t results = 0;
};

class FlightRecorder {
 public:
  /// Slots of the event ring (each slot is a fixed 144-byte record).
  static constexpr std::size_t kEventCapacity = 256;

  /// `capacity` sizes the span ring and is rounded up to at least 64
  /// slots, so the default 2048-slot ring costs ~288 KiB (plus ~36 KiB
  /// for the event ring).
  explicit FlightRecorder(std::size_t capacity = 2048);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Wait-free; callable from any thread.
  void RecordSpan(const SpanRecord& span);
  void RecordEvent(DiagEvent event, std::uint64_t a = 0,
                   std::uint64_t b = 0);

  /// Mints a server-local span id (never 0).
  std::uint64_t NextSpanId();

  /// Renders the retained records of both rings oldest-to-newest (by
  /// sequence) as JSON lines, one record per line. When the text would
  /// exceed `max_bytes`, every retained event is kept first and the rest
  /// of the budget goes to the NEWEST spans. Records overwritten while
  /// being copied are skipped (their sequence numbers do not appear).
  std::string Dump(std::size_t max_bytes = 0) const;

  /// Slots of the span ring.
  std::size_t capacity() const { return spans_.capacity; }
  /// Total records (spans and events) ever written.
  std::uint64_t written() const {
    return sequence_.load(std::memory_order_relaxed);
  }

 private:
  // A slot is a seqlock-stamped array of relaxed atomic words: writers
  // fill the words then publish the stamp (the record's sequence) with
  // release; readers copy the words between two acquire loads of the
  // stamp and keep the copy only if both match. Torn reads are detected,
  // never returned, and no bytewise data race exists for TSan to flag.
  static constexpr std::size_t kWordsPerSlot = 17;

  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  ///< 0 = never written.
    std::atomic<std::uint64_t> words[kWordsPerSlot];
  };

  struct Ring {
    explicit Ring(std::size_t size) : capacity(size), slots(new Slot[size]) {}
    std::size_t capacity;
    std::unique_ptr<Slot[]> slots;
    std::atomic<std::uint64_t> cursor{0};  ///< Slots ever claimed.
  };

  using Line = std::pair<std::uint64_t, std::string>;  // (seq, JSON).

  void WriteSlot(Ring& ring, const std::uint64_t (&words)[kWordsPerSlot]);
  /// The ring's stably copied records, rendered, in sequence order.
  std::vector<Line> StableLines(const Ring& ring) const;
  std::uint64_t NowMicros() const;

  Ring spans_;
  Ring events_;
  /// Last sequence handed out; sequences are shared by both rings.
  std::atomic<std::uint64_t> sequence_{0};
  std::atomic<std::uint64_t> span_ids_{0};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace kspin::server

#endif  // KSPIN_SERVER_FLIGHT_RECORDER_H_
