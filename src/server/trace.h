// Opt-in per-query tracing (docs/observability.md): one JSON line per
// executed search with a stable query fingerprint, stage timings, and the
// engine's QueryStats counter deltas. Enabled with kspin_server --trace=F;
// the same formatting backs the slow-query log (--slow-query-ms=T).
#ifndef KSPIN_SERVER_TRACE_H_
#define KSPIN_SERVER_TRACE_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>

#include "kspin/query_processor.h"

namespace kspin::server {

/// FNV-1a 64-bit fingerprint over (query text, vertex, k). Stable across
/// runs and processes, so trace lines of the same logical query correlate
/// and a dashboard can group by it.
std::uint64_t QueryFingerprint(std::string_view query, std::uint64_t vertex,
                               std::uint32_t k);

/// Everything one trace line carries; formatted by FormatQueryTrace.
/// A line is also a span: it carries the wire trace context (when the
/// request had one), the server-minted span id, and the stage breakdown
/// (queue wait vs execution) next to the engine's QueryStats counter
/// deltas.
struct QueryTraceEvent {
  std::uint64_t fingerprint = 0;
  std::string_view opcode;  ///< kOpcodeTable name ("search_boolean").
  std::string_view query;
  std::uint64_t vertex = 0;
  std::uint32_t k = 0;
  std::string_view status;  ///< StatusName() of the outcome.
  std::uint64_t latency_us = 0;  ///< Admission to response encoded.
  std::uint64_t trace_id = 0;        ///< 0 = request carried no context.
  std::uint64_t parent_span_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t queue_us = 0;   ///< Admission sojourn (EDF queue wait).
  bool degraded = false;        ///< Served under brownout.
  QueryStats stats;
};

/// Renders one trace event as a single JSON object (no trailing newline).
std::string FormatQueryTrace(const QueryTraceEvent& event);

/// Thread-safe JSON-lines writer. Append-mode; one mutex-guarded write +
/// flush per line so concurrent workers never interleave and a killed
/// server keeps every completed line. An unopenable path disables the
/// sink (the server logs and keeps serving) rather than failing startup.
///
/// With `max_bytes` > 0 the sink rotates by size: when the file reaches
/// the limit it is renamed to `<path>.1` (existing `<path>.1` shifts to
/// `<path>.2` and so on, the oldest beyond `keep` is deleted) and a
/// fresh file is opened — bounded disk use on long-running servers.
class TraceSink {
 public:
  explicit TraceSink(const std::string& path, std::uint64_t max_bytes = 0,
                     std::uint32_t keep = 3);

  bool enabled() const { return enabled_; }

  /// Appends `json_line` + '\n'. No-op when the sink is disabled.
  void Write(const std::string& json_line);

  /// Completed rotations so far (tests / METRICS). Atomic so scrapers
  /// read it without taking the write mutex.
  std::uint64_t rotations() const {
    return rotations_.load(std::memory_order_relaxed);
  }

 private:
  void RotateLocked();

  std::mutex mutex_;
  std::ofstream out_;
  std::string path_;
  std::uint64_t max_bytes_ = 0;  ///< 0 = never rotate.
  std::uint32_t keep_ = 3;
  std::uint64_t bytes_ = 0;      ///< Size of the current file.
  std::atomic<std::uint64_t> rotations_{0};
  bool enabled_ = false;
};

}  // namespace kspin::server

#endif  // KSPIN_SERVER_TRACE_H_
