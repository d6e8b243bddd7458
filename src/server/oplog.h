// Durable append-only operation log for live mutations (docs/persistence.md,
// "The operation log").
//
// The log is a directory of segment files named oplog-<first-seq>.log. Each
// segment starts with a fixed header and holds consecutive records:
//
//   segment header : magic "KSOPLOG1" (8) | u64 first_sequence
//   record         : u32 payload_size | u32 crc32c(sequence_le || payload)
//                    | u64 sequence | payload bytes
//
// Integers are little-endian. Sequences are dense and monotonic across
// segments: record N+1 always carries sequence(record N) + 1, and a
// segment's first record carries the header's first_sequence. Replay
// validates size bounds, CRC, and sequence continuity for every record and
// stops cleanly at the first violation — a torn tail from a crash (or bit
// rot anywhere) truncates the log to its longest valid prefix instead of
// surfacing garbage.
//
// Durability discipline:
//  - Append writes one record with a single write(2); Sync() fsyncs the
//    segment. Sync is group-committed: concurrent writers that appended
//    before an in-flight fsync are covered by it and do not issue another
//    (the fsync_batches counter over the appends counter is the batching
//    ratio).
//  - Rotation seals the active segment (final fsync) and creates the next
//    one with the same temp-write/fsync/rename/dir-fsync discipline as
//    io::WriteFileAtomically, so a crash mid-rotation leaves either the old
//    tail or the old tail plus one complete empty successor.
//  - TruncateThrough deletes sealed segments whose records are all covered
//    by a snapshot; the active segment is never deleted, so recent history
//    stays available for replica tailing.
#ifndef KSPIN_SERVER_OPLOG_H_
#define KSPIN_SERVER_OPLOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace kspin::server {

/// Phases of the append/sync/rotate cycle where tests can simulate a
/// crash. The hook returns false to "crash": the call stops immediately,
/// leaving the files exactly as a real kill -9 at that instant would.
enum class OplogPhase {
  kAfterRecordWrite,   ///< Record written to the segment, not yet synced.
  kAfterSync,          ///< fsync completed.
  kBeforeRotate,       ///< Active segment full; rotation about to start.
  kAfterRotateTemp,    ///< Successor temp file written + synced, not renamed.
  kAfterRotateRename,  ///< Successor renamed into place, dir not yet synced.
};

struct OplogHooks {
  /// Crash simulation; return false to stop at that phase.
  std::function<bool(OplogPhase)> on_phase;
};

struct OplogOptions {
  /// Directory holding the segment files. Empty disables the log: Append
  /// assigns sequences in memory and Sync is a no-op (no durability).
  std::string dir;
  /// Rotate the active segment once it exceeds this many bytes.
  std::uint64_t segment_bytes = 4u << 20;
  /// Fault injection (tests only).
  OplogHooks hooks;
};

/// One decoded log record.
struct OplogRecord {
  std::uint64_t sequence = 0;
  std::vector<std::uint8_t> payload;
};

/// Outcome of replaying a log directory.
struct OplogReplayResult {
  /// Records delivered to the callback (sequence > from_sequence).
  std::uint64_t records_applied = 0;
  /// Highest valid sequence seen (0 when the log is empty).
  std::uint64_t last_sequence = 0;
  /// True when replay stopped at a torn or corrupt record rather than the
  /// genuine end of the log; everything before it was still delivered.
  bool stopped_at_corruption = false;
  /// Human-readable reason when stopped_at_corruption is set.
  std::string corruption_detail;
};

/// Scans every segment of `dir` in sequence order and invokes `apply` for
/// each valid record with sequence > from_sequence. Records at or below
/// from_sequence are validated but skipped (they are covered by the
/// snapshot being replayed on top of). Stops at the first invalid record.
/// A missing directory is an empty log.
OplogReplayResult ReplayOplog(
    const std::string& dir, std::uint64_t from_sequence,
    const std::function<void(const OplogRecord&)>& apply);

/// Segment files in `dir` with their parsed first sequences, oldest first.
/// Temp files and foreign names are ignored; missing directory = empty.
std::vector<std::pair<std::uint64_t, std::string>> FindOplogSegments(
    const std::string& dir);

/// Segment file name for a first sequence: "oplog-000042.log".
std::string OplogSegmentFileName(std::uint64_t first_sequence);

/// The writer side of the log. Thread-safe: Append and Sync may be called
/// from any worker; a mutex serializes appends and Sync group-commits.
class Oplog {
 public:
  explicit Oplog(OplogOptions options);
  ~Oplog();

  Oplog(const Oplog&) = delete;
  Oplog& operator=(const Oplog&) = delete;

  /// Opens the log for appending: scans existing segments, seats the
  /// writer after the last valid record (a torn tail is truncated away),
  /// and seeds the sequence counter at last_sequence + 1 unless
  /// `next_sequence` is larger (a restored snapshot may be ahead of a
  /// truncated log). Returns false on I/O failure or simulated crash.
  bool Open(std::uint64_t next_sequence = 1);

  /// Appends one record and returns its assigned sequence (0 on failure
  /// or simulated crash). The record is written but NOT yet durable —
  /// call Sync() before acknowledging. With an explicit `sequence` (a
  /// replica applying records shipped from its primary) the counter jumps
  /// to it; the sequence must exceed LastSequence().
  std::uint64_t Append(std::span<const std::uint8_t> payload,
                       std::uint64_t sequence = 0);

  /// Makes every record appended so far durable. Group-committed: if a
  /// concurrent Sync already covered this caller's appends, it returns
  /// without issuing another fsync. Returns false on failure/crash.
  bool Sync();

  /// Discards every segment and restarts the log at `next_sequence` — a
  /// replica that just installed a snapshot jumps its applied position
  /// past a gap, which a dense log cannot represent. Returns false on
  /// I/O failure.
  bool Reset(std::uint64_t next_sequence);

  /// Deletes sealed segments whose records all have sequence <= through.
  /// The active segment always survives. Returns segments deleted.
  std::size_t TruncateThrough(std::uint64_t sequence);

  /// Copies every record with sequence >= first_quarantined into
  /// `<dir>/quarantine/divergent-<first_quarantined>.log` (standard
  /// segment format, readable by ReplayOplog / any oplog tooling) so a
  /// demoted ex-primary's divergent tail survives for operators after the
  /// snapshot-install Reset() discards the live log. Idempotent: an
  /// existing quarantine file for the same boundary is left untouched.
  /// Returns the number of records preserved (0 when none exist past the
  /// boundary or the log is disabled); sets `*out_path` (if non-null) to
  /// the quarantine file when records were preserved. Returns
  /// std::size_t(-1) on I/O failure.
  std::size_t QuarantineTail(std::uint64_t first_quarantined,
                             std::string* out_path = nullptr);

  /// Reads records with sequence > from_sequence into `out` (appended).
  /// `max_bytes` budgets payload bytes plus a fixed per-record overhead
  /// matching the FETCH_OPLOG wire envelope, so a caller that passes a
  /// frame-sized budget gets a chunk that encodes within one frame; at
  /// least one record is always returned when any is available. Sets
  /// `*truncated` when from_sequence predates the oldest retained record
  /// (the caller must fall back to a snapshot transfer). Safe
  /// concurrently with appends: a partially visible tail record fails
  /// validation and simply ends the batch.
  void ReadRange(std::uint64_t from_sequence, std::uint64_t max_bytes,
                 std::vector<OplogRecord>* out, bool* truncated) const;

  /// Highest sequence ever assigned (durable or not); 0 = none.
  std::uint64_t LastSequence() const;
  /// Smallest sequence still retained on disk; 0 when the log is empty.
  std::uint64_t OldestSequence() const;
  /// Highest sequence covered by a completed fsync.
  std::uint64_t DurableSequence() const;

  bool Enabled() const { return !options_.dir.empty(); }
  const std::string& Dir() const { return options_.dir; }

  /// Counters for ServerMetrics (monotonic; readable from any thread).
  std::uint64_t Appends() const {
    return appends_.load(std::memory_order_relaxed);
  }
  std::uint64_t FsyncBatches() const {
    return fsync_batches_.load(std::memory_order_relaxed);
  }

  void Close();

 private:
  bool Crash(OplogPhase phase);
  bool CreateSegmentLocked(std::uint64_t first_sequence);
  bool OpenSegmentForAppend(const std::string& path, std::uint64_t size);
  bool RotateLocked();

  OplogOptions options_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  std::string active_path_;
  std::uint64_t active_first_sequence_ = 0;
  std::uint64_t active_bytes_ = 0;
  std::uint64_t last_sequence_ = 0;
  std::uint64_t oldest_sequence_ = 0;
  std::uint64_t durable_sequence_ = 0;   ///< Covered by a finished fsync.
  std::uint64_t appended_sequence_ = 0;  ///< Written, possibly unsynced.
  bool crashed_ = false;  ///< A simulated crash latches the writer dead.
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> fsync_batches_{0};
};

}  // namespace kspin::server

#endif  // KSPIN_SERVER_OPLOG_H_
