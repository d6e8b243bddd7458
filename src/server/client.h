// Blocking client for the kspin wire protocol (server/wire.h).
//
// One Client owns one TCP connection and is NOT thread-safe: requests are
// issued strictly one at a time (send frame, read matching response).
// Transport problems (connect/read/write failures, protocol violations)
// throw ClientError; server-side rejections are returned in-band as the
// StatusCode of each reply so callers can distinguish OVERLOADED from
// DEADLINE_EXCEEDED from BAD_QUERY without exception plumbing.
#ifndef KSPIN_SERVER_CLIENT_H_
#define KSPIN_SERVER_CLIENT_H_

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "server/wire.h"

namespace kspin::server {

/// Thrown on transport / protocol failures (not server-side rejections).
class ClientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to `host:port`. Throws ClientError on failure.
  void Connect(const std::string& host, std::uint16_t port);
  void Close();
  bool Connected() const { return fd_ >= 0; }

  /// Common reply envelope: server status + error message (empty on kOk).
  struct Reply {
    StatusCode status = StatusCode::kInternal;
    std::string error;
    /// RETRY_AFTER hint from an OVERLOADED reply's optional trailer
    /// (docs/protocol.md "Overload control & degradation"); 0 when the
    /// server sent none. RetryingClient honors it for backoff.
    std::uint32_t retry_after_ms = 0;
    bool ok() const { return status == StatusCode::kOk; }
  };

  struct SearchReply : Reply {
    std::vector<WireResult> results;
    /// True when the server answered in brownout mode: k may have been
    /// clamped and ranking is by lower bound, not exact distance.
    bool degraded = false;
  };

  struct MetricsReply : Reply {
    std::string text;  ///< Prometheus 0.0.4 exposition.
  };

  struct SnapshotReply : Reply {
    std::uint64_t sequence = 0;
    std::string path;
  };

  struct HealthReply : Reply {
    HealthInfo health;
  };

  struct FetchSnapshotReply : Reply {
    SnapshotChunk chunk;
  };

  struct FetchOplogReply : Reply {
    OplogChunk chunk;
  };

  struct MutateReply : Reply {
    std::uint64_t sequence = 0;     ///< Op-log sequence of the mutation.
    ObjectId id = kInvalidObject;   ///< Affected object (new id on insert).
    /// The acking primary's epoch. Failover clients track the max they
    /// have seen and fence stale primaries with it.
    std::uint64_t primary_epoch = 0;
  };

  struct PromoteAck : Reply {
    std::uint64_t epoch = 0;             ///< Primary epoch after the flip.
    std::uint64_t applied_sequence = 0;  ///< Applied sequence at the flip.
    std::uint8_t role = 0;               ///< Role after the call.
  };

  /// Liveness probe.
  Reply Ping();

  /// Prometheus text exposition (METRICS opcode) — answered inline by the
  /// I/O thread, so scrapes work on a saturated server.
  MetricsReply Metrics();

  /// Role, newest snapshot sequence, uptime, and queue depth — answered
  /// inline by the I/O thread, so it works on a saturated server.
  HealthReply Health();

  /// One chunk of a snapshot file (FETCH_SNAPSHOT opcode). sequence 0
  /// with offset 0 asks for the newest valid snapshot; the reply pins the
  /// concrete sequence to echo on subsequent chunks. max_bytes 0 accepts
  /// the server's default chunk size.
  FetchSnapshotReply FetchSnapshotChunk(std::uint64_t sequence,
                                        std::uint64_t offset,
                                        std::uint32_t max_bytes = 0);

  /// Boolean (nearest-first) or ranked search. `deadline_ms` of 0 means
  /// no deadline; otherwise the server drops or aborts the request once
  /// the budget expires.
  SearchReply Search(std::string_view query, VertexId from, std::uint32_t k,
                     bool ranked = false, std::uint32_t deadline_ms = 0);

  /// Durable write path. `idempotency_key` is a client-chosen retry
  /// token: resending with the same key returns the original result
  /// instead of applying twice, so these are safe to retry (0 = no token,
  /// every send is a distinct operation).
  MutateReply InsertDoc(std::uint64_t idempotency_key, VertexId vertex,
                        std::string_view name,
                        std::span<const std::string> keywords);
  MutateReply DeleteDoc(std::uint64_t idempotency_key, ObjectId id);
  MutateReply UpdateDoc(std::uint64_t idempotency_key, ObjectId id,
                        std::span<const std::string> add_keywords,
                        std::span<const std::string> remove_keywords);

  /// One batch of op-log records after `from_sequence` (FETCH_OPLOG
  /// opcode) — the replica tailing path. max_bytes 0 accepts the server's
  /// default batch size. `requester_epoch` is the caller's primary epoch:
  /// a primary seeing a higher one knows it has been superseded and
  /// fences itself.
  FetchOplogReply FetchOplog(std::uint64_t from_sequence,
                             std::uint32_t max_bytes = 0,
                             std::uint64_t requester_epoch = 0);

  /// Admin: flip a replica to primary (PROMOTE opcode), bumping the
  /// primary epoch. Rejected with kBadQuery when the replica's applied
  /// sequence is below `min_applied_sequence` (0 = no guard). Idempotent
  /// on an already-primary server (reports the standing epoch).
  PromoteAck Promote(std::uint64_t min_applied_sequence = 0);

  /// Epoch stamped into every mutation request (InsertDoc/DeleteDoc/
  /// UpdateDoc). A primary that sees a fence epoch above its own rejects
  /// the write with STALE_EPOCH and stays fenced. 0 = no fencing.
  void SetFenceEpoch(std::uint64_t epoch) { fence_epoch_ = epoch; }
  std::uint64_t FenceEpoch() const { return fence_epoch_; }

  /// Trace context stamped onto every subsequent request (trace trailer +
  /// kFrameFlagTraceContext). A default (trace_id 0) context clears
  /// stamping. RetryingClient reuses this Client across attempts, so one
  /// SetTraceContext covers every retry of an operation.
  void SetTraceContext(const TraceContext& context) { trace_ = context; }
  const TraceContext& GetTraceContext() const { return trace_; }

  /// Flight-recorder dump (DUMP_DIAG opcode) — answered inline by the
  /// I/O thread, so it works on a saturated server.
  MetricsReply DumpDiag();

  /// Asks the server to write a snapshot now (SNAPSHOT opcode). On kOk
  /// the reply carries the new snapshot's sequence number and path.
  SnapshotReply Snapshot();
  /// Asks the server to replace its serving state with the newest valid
  /// snapshot on disk (RELOAD opcode).
  SnapshotReply Reload();

 private:
  /// Sends one frame and reads the response frame for it. Returns the
  /// response payload; throws ClientError on transport errors, a
  /// mismatched request id, or a server kError frame.
  std::vector<std::uint8_t> RoundTrip(Opcode opcode,
                                      std::span<const std::uint8_t> payload,
                                      std::uint32_t deadline_ms = 0);
  /// RoundTrip for the three mutation opcodes, decoding the ack.
  MutateReply Mutate(Opcode opcode, std::span<const std::uint8_t> payload);
  void WriteAll(std::span<const std::uint8_t> bytes);
  void ReadExactly(std::uint8_t* out, std::size_t count);

  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t fence_epoch_ = 0;
  TraceContext trace_;
};

}  // namespace kspin::server

#endif  // KSPIN_SERVER_CLIENT_H_
