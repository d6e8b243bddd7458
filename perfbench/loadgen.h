// Loopback load generator for the serving benchmark, at most two client
// threads and two connections:
//   - open loop: one connection, pipelined. A sender thread writes each
//     request at its scheduled instant whether or not earlier replies have
//     arrived; a receiver thread matches replies by request id. Latency is
//     timed from the scheduled send, so a server stall is charged to every
//     request due during it.
//   - closed loop: two connections, one thread each, each keeping a fixed
//     number of requests in flight; a reply releases the next request, so
//     a slower server receives less load.
// Every request yields one Sample; percentiles are exact order statistics
// over those samples.
#ifndef KSPIN_PERFBENCH_LOADGEN_H_
#define KSPIN_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace kspin::perfbench {

enum class OpKind : std::uint8_t { kBoolean, kRanked, kInsert, kUpdate, kDelete };

/// One request, generated before the run from the workload seed.
struct Op {
  OpKind kind = OpKind::kBoolean;
  std::string query;                  ///< Searches.
  VertexId vertex = 0;                ///< Search origin / insert vertex.
  std::uint32_t k = 10;
  ObjectId object = kInvalidObject;   ///< Update / delete target.
  std::string name;                   ///< Insert.
  std::vector<std::string> add;       ///< Insert keywords / update adds.
  std::vector<std::string> remove;    ///< Update removes.

  bool IsWrite() const { return kind >= OpKind::kInsert; }
};

/// What happened to one request. Times are steady-clock ns.
struct Sample {
  std::uint64_t scheduled_ns = 0;  ///< Open loop: when it was due.
  std::uint64_t send_ns = 0;
  std::uint64_t done_ns = 0;
  std::uint64_t trace_id = 0;      ///< 0 when the run is untraced.
  bool write = false;
  bool ok = false;
  int status = -1;                 ///< Reply status byte; -1 when none came.

  /// Latency as the client sees it: from the scheduled send (open loop)
  /// or the actual send (closed loop) to the reply.
  double LatencyUs() const {
    return static_cast<double>(done_ns - scheduled_ns) / 1e3;
  }
};

/// Closed-loop shape: enough requests in flight to keep both server
/// workers busy, so the loop measures serving capacity rather than the
/// wake-up latency of one request at a time.
inline constexpr std::size_t kClosedConnections = 2;
inline constexpr std::size_t kClosedDepth = 4;

struct PhaseResult {
  std::vector<Sample> samples;
  double elapsed_s = 0.0;
  /// Open loop: how far the sender trailed its schedule when it sent the
  /// last request. A backlog means the offered rate was not delivered.
  double final_lag_ms = 0.0;

  std::size_t Ok() const;
  std::size_t Failed() const { return samples.size() - Ok(); }
  /// Failed requests by cause, e.g. "OVERLOADED=3 no_reply=1"; empty
  /// when none failed.
  std::string FailureCauses() const;
};

/// Connection settings shared by every phase.
struct LoadTarget {
  std::uint16_t port = 0;
  /// Stamp a per-request trace context (trace_id = `trace_base` + request
  /// index) so server spans can be joined to client samples.
  bool traced = false;
  std::uint64_t trace_base = 0;
};

/// Sends ops[i] at start + i / rate on one pipelined connection.
PhaseResult RunOpenLoop(const LoadTarget& target, const std::vector<Op>& ops,
                        double rate_per_s);

/// Closed loop over kClosedConnections connections, each keeping
/// kClosedDepth requests in flight: a reply releases the next request.
/// Connection j sends ops j, j + 2, ... cyclically until `seconds` pass,
/// then drains.
PhaseResult RunClosedLoop(const LoadTarget& target,
                          const std::vector<Op>& ops, double seconds);

/// Exact percentile over `values` (nearest rank), or nullopt unless at
/// least `min_beyond` samples lie above it.
std::optional<double> Percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond = 10);

}  // namespace kspin::perfbench

#endif  // KSPIN_PERFBENCH_LOADGEN_H_
