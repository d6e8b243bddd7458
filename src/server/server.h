// kspin_server core: a poll()-based TCP event loop speaking the framed
// wire protocol (server/wire.h) in front of a PoiService.
//
// Threading model:
//
//   - One I/O thread owns every socket: it accepts connections, decodes
//     frames, answers the Lane::kInline opcodes (PING, HEALTH, METRICS,
//     DUMP_DIAG) itself, and flushes response bytes.
//   - Every other frame is copied into a bounded AdmissionQueue;
//     when it is full the I/O thread replies OVERLOADED immediately —
//     explicit load shedding, never silent drops or unbounded buffering.
//   - A worker pool drains the queue and runs each request by the lane of
//     its opcode (wire.h kOpcodeTable). Each worker owns one QueryProcessor
//     (per-thread oracle + query workspaces, PR 1's design) refreshed
//     whenever KSpin::StructureGeneration() changes. Queries enter an
//     EpochGate read section (wait-free unless a mutation's in-memory
//     apply window is open); all state-changers — mutations, snapshot,
//     reload, replica install — serialize on one mutation mutex and wrap
//     only their in-memory apply in the gate's write window, so readers
//     never wait on a writer's durability work (op-log append + fsync).
//     This replaces the earlier coarse shared/exclusive update lock.
//   - Mutations (INSERT_DOC / DELETE_DOC / UPDATE_DOC) are appended to a
//     durable op log before being applied; the acknowledgement is sent
//     only after a group-committed fsync covers the record
//     (docs/persistence.md, "The operation log").
//   - Deadlines (frame header deadline_ms, relative to admission) are
//     enforced twice: expired requests are dropped at dequeue with
//     DEADLINE_EXCEEDED, and running queries poll a QueryControl
//     cooperatively inside the kNN search loops.
//   - Every reply, answered or refused on either thread, leaves through
//     Finish once any guard or mutex is released: it counts the reply
//     under its status, records the latency sample, the span and the
//     trace line.
//
// Stop() is graceful: stop accepting, close the queue, let workers drain
// every admitted request, flush responses, then tear sockets down.
#ifndef KSPIN_SERVER_SERVER_H_
#define KSPIN_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/admission_queue.h"
#include "server/flight_recorder.h"
#include "server/metrics.h"
#include "server/mutation.h"
#include "server/oplog.h"
#include "server/overload.h"
#include "server/replication.h"
#include "server/trace.h"
#include "server/wire.h"
#include "service/poi_service.h"

namespace kspin {
class ContractionHierarchy;
struct RestoredServiceState;
}  // namespace kspin

namespace kspin::server {

/// Crash-safe persistence configuration (docs/persistence.md). Snapshots
/// cover the whole serving state and are written under the mutation
/// mutex, so every file is a consistent point-in-time image.
struct SnapshotOptions {
  /// Directory for snapshot-<seq>.snap files; empty disables the
  /// SNAPSHOT / RELOAD opcodes and background snapshotting.
  std::string dir;
  /// Background snapshot period; 0 = only on explicit SNAPSHOT requests.
  std::uint32_t period_ms = 0;
  /// Newest snapshots retained by pruning after each write.
  std::size_t keep = 4;
  /// Contraction hierarchy to include so a restart can skip its
  /// (expensive) reconstruction. Optional; must outlive the server.
  const ContractionHierarchy* ch = nullptr;
};

/// Searches asking for more than this many results get BAD_QUERY.
inline constexpr std::uint32_t kMaxSearchK = 1000;

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (see
  /// Server::Port()).
  std::uint16_t port = 0;
  /// Worker pool size; 0 = hardware concurrency.
  unsigned num_workers = 0;
  /// Admission queue bound; 0 admits nothing (every request OVERLOADED).
  std::size_t queue_capacity = 256;

  /// Persistence (SNAPSHOT / RELOAD opcodes + periodic snapshots).
  SnapshotOptions snapshot;

  /// Durable op log for live mutations (docs/persistence.md, "The
  /// operation log"). An empty dir disables durability: mutations still
  /// apply and get in-memory sequences, but nothing survives a crash.
  OplogOptions oplog;
  /// Mutation sequence already reflected in the serving state when
  /// Start() runs (the restored snapshot's kOplogPosition section);
  /// op-log replay at boot begins after it.
  std::uint64_t restored_mutation_sequence = 0;

  /// Capacity of the idempotency cache (recently applied mutation keys
  /// answered from memory on retry). Sized for the retry window — a key
  /// only needs to survive seconds, not the log's lifetime. 0 disables
  /// retry deduplication entirely.
  std::size_t idempotency_cache_size = 4096;

  /// Replication (docs/protocol.md "Replication"). With role kReplica the
  /// server rejects writes with NOT_PRIMARY and polls
  /// replication.primary for new snapshots; fetched snapshots are
  /// persisted into snapshot.dir (when configured) and installed through
  /// the RELOAD path.
  ReplicationOptions replication;

  // Connection hardening — all enforced by the I/O thread each poll tick.
  /// Close connections with no traffic in either direction for this long.
  /// 0 disables idle reaping.
  std::uint32_t idle_timeout_ms = 300000;
  /// Close connections that leave a frame *partially* sent for this long
  /// (slow-loris defence: a trickle of header bytes must not pin a socket
  /// forever). 0 disables.
  std::uint32_t read_deadline_ms = 30000;
  /// Close connections whose un-flushed response backlog exceeds this
  /// (peer stopped reading; refuse unbounded buffering). 0 = unlimited.
  std::size_t max_write_queue_bytes = 32u << 20;

  // Observability (docs/observability.md).
  /// JSON-lines trace file: one line per executed search query (query
  /// fingerprint, stage timings, engine counter deltas). Empty disables
  /// tracing; counters are collected either way.
  std::string trace_path;
  /// Size-based rotation for the trace file: once it exceeds this many
  /// bytes it is shifted to trace.log.1 (keeping trace_keep old files)
  /// and a fresh file is started. 0 = never rotate.
  std::uint64_t trace_max_bytes = 0;
  /// Rotated trace files kept (trace.log.1 .. trace.log.N).
  std::uint32_t trace_keep = 3;
  /// Searches slower than this (end-to-end, admission to response) are
  /// logged to stderr with their trace line. 0 disables the slow-query
  /// log.
  std::uint32_t slow_query_threshold_ms = 0;
  /// Spans + control-plane events retained by the always-on flight
  /// recorder (DUMP_DIAG); clamped up to a small minimum. The recorder
  /// cannot be disabled — it is the post-hoc record that exists when no
  /// trace file was configured.
  std::size_t flight_recorder_capacity = 2048;

  /// Overload resilience (docs/protocol.md "Overload control &
  /// degradation"): deadline-aware EDF admission, AIMD concurrency
  /// limiting, CoDel sojourn shedding, per-connection rate limits, and
  /// brownout. Defaults disable every mechanism.
  OverloadOptions overload;

  // Test hooks — leave at defaults in production.
  /// When false, the dequeue-time deadline check is skipped so expiry is
  /// only caught by the cooperative in-query check.
  bool enforce_deadline_at_dequeue = true;
  /// Artificial delay before each worker dequeue check, to make
  /// deadline expiry deterministic in tests.
  std::uint32_t test_dequeue_delay_ms = 0;
  /// Artificial delay between frame receipt and admission, to make the
  /// enqueue-time expiry rejection deterministic in tests.
  std::uint32_t test_admission_delay_ms = 0;
};

/// A serving instance. Construct, Start(), connect clients to Port().
/// The PoiService must outlive the server; while the server runs, all
/// access to it (including updates) must go through the server.
class Server {
 public:
  explicit Server(PoiService& service, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the I/O thread + workers. Throws
  /// std::runtime_error on socket failures.
  void Start();

  /// Graceful shutdown: stop accepting, drain admitted requests, flush
  /// responses, join all threads. Idempotent; also run by ~Server.
  void Stop();

  /// The bound port (valid after Start()).
  std::uint16_t Port() const { return port_; }

  const ServerMetrics& Metrics() const { return metrics_; }

  /// The always-on flight recorder (spans + control-plane events). Public
  /// for tests; clients read it via DUMP_DIAG.
  FlightRecorder& Recorder() { return recorder_; }

  /// Sequence of the newest local snapshot (written, restored, or
  /// installed from a primary); 0 = none. This is what HEALTH reports.
  std::uint64_t SnapshotSequence() const {
    return snapshot_sequence_.load(std::memory_order_relaxed);
  }

  /// Highest op-log sequence applied to the serving state (restored +
  /// replayed at boot, then advanced by every mutation).
  std::uint64_t AppliedSequence() const {
    return applied_sequence_.load(std::memory_order_relaxed);
  }

  /// Current role. Boots from options.replication.role; PROMOTE flips a
  /// replica to primary at runtime.
  ServerRole Role() const {
    return role_.load(std::memory_order_acquire);
  }

  /// Highest primary epoch this server knows of (its own when primary;
  /// its primary's when a replica that has observed one). Epochs are
  /// bumped by PROMOTE and persisted in a `primary-epoch` sidecar plus an
  /// epoch-transition op-log record.
  std::uint64_t PrimaryEpoch() const {
    return primary_epoch_.load(std::memory_order_acquire);
  }

  /// Op-log sequence of the newest epoch-transition record (the first
  /// sequence of the current epoch); 0 = the epoch never changed.
  std::uint64_t EpochBoundarySequence() const {
    return epoch_boundary_.load(std::memory_order_acquire);
  }

  /// Replica-side install of a snapshot image fetched from the primary:
  /// validate + load it off the serving lock (reads keep flowing), write
  /// it into snapshot.dir crash-safely, then swap the serving catalog
  /// under the mutation mutex + epoch gate. Returns false with `*error`
  /// set on rejection (corrupt image, graph mismatch, ...) — serving
  /// state is untouched. Public for tests; normally driven by the
  /// Replicator.
  bool InstallReplicaSnapshot(std::uint64_t sequence,
                              const std::string& bytes, std::string* error);

  /// Replica-side apply of op-log records tailed from the primary: each
  /// record is validated, appended to the local log under its shipped
  /// sequence, and applied through the epoch gate. Records at or below
  /// the applied sequence are skipped (idempotent retries). Returns false
  /// with `*error` set on the first rejected record; everything before it
  /// stays applied. Public for tests; normally driven by the Replicator.
  bool ApplyReplicatedMutations(const std::vector<OplogWireRecord>& records,
                                std::string* error);

  /// Writes a snapshot now, taking the mutation mutex itself (the boot /
  /// test entry point; the SNAPSHOT opcode reaches SnapshotLocked through
  /// a worker that already holds it). Returns the new snapshot's
  /// (sequence, path). Throws io::SerializationError on failure. Requires
  /// options.snapshot.dir to be configured.
  std::pair<std::uint64_t, std::string> SnapshotNow();

 private:
  struct Connection;
  struct Request;
  /// A reply on its way from Execute (or a refusal) to Finish.
  struct Outcome;
  /// Why an OVERLOADED or DEADLINE_EXCEEDED reply refused its request.
  enum class Refusal : std::uint8_t;

  void IoLoop();
  /// One overload-controller tick (I/O thread, every
  /// overload.tick_interval_ms): diffs the query-latency histogram,
  /// moves the AIMD admission limit, updates brownout state and the
  /// overload gauges, and refreshes the RETRY_AFTER hint.
  void OverloadTick(std::chrono::steady_clock::time_point now);
  void WorkerLoop(std::size_t worker_index);
  void SnapshotLoop();
  /// Caller must hold mutation_mutex_ (or run pre-Start).
  std::pair<std::uint64_t, std::string> SnapshotLocked();
  /// Handles the RELOAD opcode; caller holds mutation_mutex_.
  std::vector<std::uint8_t> HandleReloadLocked();
  /// Swaps a loaded snapshot in as the serving state (RELOAD and replica
  /// installs): the catalogue inside an apply window, then the snapshot
  /// and applied sequences, an op-log Reset past the snapshot and a
  /// kSnapshotRestored event. Caller holds mutation_mutex_.
  void InstallSnapshotLocked(RestoredServiceState& state,
                             std::uint64_t sequence);
  /// Runs one request: a single switch over the opcode that returns the
  /// reply payload and, for searches, the engine counters and trace
  /// fields. The I/O thread calls it for the inline lane and for bytes
  /// without an opcode row; a worker calls it under its lane's read
  /// guard or mutex. Writes take mutation_mutex_ inside and fsync
  /// outside it; PROMOTE stops the replicator before taking it.
  /// `processor` is the worker's QueryProcessor; only searches use it.
  Outcome Execute(Request& request, QueryProcessor* processor);
  /// The one place a reply leaves, with no guard or mutex held: reads its
  /// status byte, bumps the requests_* counter it maps to (OVERLOADED and
  /// DEADLINE_EXCEEDED by the refusal's cause), records the latency
  /// histogram on OK, responds, records the span (every reply but an
  /// inline probe's), then writes the trace or slow-query line.
  void Finish(const Request& request, Outcome outcome);
  /// SEARCH_BOOLEAN / SEARCH_RANKED on the worker's processor; fills the
  /// reply and the trace fields of `*out`.
  void HandleSearch(const Request& request, QueryProcessor& processor,
                    Outcome* out);
  /// The durable write path of the Lane::kWrite opcodes: fence check,
  /// idempotency check, validate, append to the op log, apply through the
  /// epoch gate, group-commit fsync. Returns the reply.
  std::vector<std::uint8_t> HandleMutation(const MutationRecord& record,
                                           std::uint64_t fence_epoch);
  /// PROMOTE: flip this replica to primary, bump the epoch, log the
  /// transition. Runs WITHOUT mutation_mutex_ pre-taken — it must stop
  /// the replicator (whose poll thread takes that mutex) before locking,
  /// or the two would deadlock. Returns the reply.
  std::vector<std::uint8_t> HandlePromote(const Request& request);
  /// Latches the highest epoch ever observed in a request; once it
  /// exceeds our own primary epoch this server is fenced and rejects all
  /// writes with STALE_EPOCH.
  void ObserveFencedEpoch(std::uint64_t epoch);
  /// Adopts a higher primary epoch learned from this replica's primary
  /// (health poll or in-stream epoch record). boundary 0 = unknown, keep
  /// the current one. The *Locked variant requires mutation_mutex_.
  void AdoptEpoch(std::uint64_t epoch, std::uint64_t boundary);
  void AdoptEpochLocked(std::uint64_t epoch, std::uint64_t boundary);
  /// Preserves op-log records at/past `boundary` into quarantine/ (a
  /// demoted ex-primary's divergent tail) before a snapshot install
  /// discards them. Returns records preserved.
  std::size_t QuarantineDivergentOplog(std::uint64_t boundary);
  /// Writes the `primary-epoch` sidecar (epoch + boundary) so the epoch
  /// survives restarts even after log truncation. Caller must hold
  /// mutation_mutex_ (or run pre-Start).
  void PersistEpochStateLocked();
  /// Reads the sidecar at boot; missing file = epoch 0.
  void LoadEpochState();
  /// Directory holding the sidecar: the op-log dir when enabled, else the
  /// snapshot dir, else empty (epoch not persisted).
  std::string EpochStateDir() const;
  /// FETCH_OPLOG handler (query-class; the Oplog serializes internally).
  std::vector<std::uint8_t> HandleFetchOplog(const FetchOplogRequest& fetch);
  /// Copies the Oplog's internal counters into ServerMetrics.
  void MirrorOplogMetrics();
  /// Counts one shed of `cause` toward the next kShedBurst event.
  void RecordShed(DiagShedCause cause);
  /// Flushes accumulated shed counts into kShedBurst recorder events once
  /// per window (I/O thread, called from IoLoop).
  void FlushShedBursts(std::chrono::steady_clock::time_point now);
  /// Closes connections that tripped a hardening limit.
  void SweepConnections(std::chrono::steady_clock::time_point now);
  void AcceptNew();
  /// False when the connection hit a fatal error and must close.
  bool ReadFromConnection(const std::shared_ptr<Connection>& conn);
  bool FlushConnection(const std::shared_ptr<Connection>& conn);
  void CloseConnection(int fd);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const FrameHeader& header,
                   std::vector<std::uint8_t> payload);
  void Respond(const std::shared_ptr<Connection>& conn,
               const FrameHeader& request_header,
               std::vector<std::uint8_t> response_payload);
  void Wake();
  /// HEALTH response body (answered inline by the I/O thread).
  std::vector<std::uint8_t> BuildHealthResponse();
  /// FETCH_SNAPSHOT handler (runs on a worker as an epoch-gate reader —
  /// snapshot files are immutable once renamed into place).
  std::vector<std::uint8_t> HandleFetchSnapshot(
      const FetchSnapshotRequest& fetch);

  PoiService& service_;
  const ServerOptions options_;
  ServerMetrics metrics_;
  std::unique_ptr<TraceSink> trace_;  // Null unless options_.trace_path.
  FlightRecorder recorder_;  // Always on; sized in the ctor.

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;

  std::unique_ptr<AdmissionQueue<Request>> queue_;
  std::thread io_thread_;
  std::vector<std::thread> workers_;

  // Overload control (owned by the I/O thread except the atomics).
  std::unique_ptr<OverloadController> overload_;  ///< Null when disabled.
  /// Brownout state, read by workers per search request.
  std::atomic<bool> brownout_active_{false};
  /// Current RETRY_AFTER hint for OVERLOADED replies (ms; 0 = none).
  std::atomic<std::uint32_t> retry_after_hint_ms_{0};
  /// I/O-thread only: last controller tick and brownout entry instant
  /// (for the brownout_seconds counter).
  std::chrono::steady_clock::time_point last_overload_tick_{};
  std::chrono::steady_clock::time_point brownout_since_{};
  /// Whole seconds of the current brownout episode already counted into
  /// metrics_.brownout_seconds.
  std::uint64_t brownout_seconds_credited_ = 0;
  /// Per-cause shed counts (indexed by DiagShedCause) accumulated since
  /// the last kShedBurst flush; bumped by the I/O thread and workers,
  /// flushed once per second by FlushShedBursts so a shed storm becomes
  /// a handful of journal events instead of thousands.
  std::atomic<std::uint64_t> shed_counts_[6] = {};
  /// I/O-thread only: start of the current shed-burst window.
  std::chrono::steady_clock::time_point shed_window_start_{};

  // Background snapshotting (runs only when dir + period are configured).
  std::thread snapshot_thread_;
  std::mutex snapshot_cv_mutex_;
  std::condition_variable snapshot_cv_;
  bool snapshot_stop_ = false;  // Guarded by snapshot_cv_mutex_.

  // Replication (replica role only).
  std::unique_ptr<Replicator> replicator_;
  /// Newest local snapshot sequence; see SnapshotSequence().
  std::atomic<std::uint64_t> snapshot_sequence_{0};
  std::chrono::steady_clock::time_point start_time_{};

  // Epoch-fenced failover state (docs/protocol.md "Replication").
  /// Runtime role; seeded from options, flipped by PROMOTE.
  std::atomic<ServerRole> role_{ServerRole::kPrimary};
  /// Highest primary epoch this server knows of (see PrimaryEpoch()).
  std::atomic<std::uint64_t> primary_epoch_{0};
  /// Highest epoch ever observed in any request (fence latch): when it
  /// exceeds primary_epoch_ on a primary, every write is rejected with
  /// STALE_EPOCH until the server rejoins as a replica.
  std::atomic<std::uint64_t> fenced_epoch_{0};
  /// Sequence of the newest epoch-transition record; 0 = none.
  std::atomic<std::uint64_t> epoch_boundary_{0};

  /// I/O-thread only: accepting is suspended until this instant after an
  /// fd-exhaustion accept() failure.
  std::chrono::steady_clock::time_point accept_pause_until_{};

  // Mutation subsystem (see the threading model above). mutation_mutex_
  // serializes every state-changer; gate_ excludes queries only during
  // the in-memory apply window; oplog_ makes acknowledged mutations
  // durable; idempotency_ absorbs client retries.
  std::mutex mutation_mutex_;
  EpochGate gate_;
  Oplog oplog_;
  IdempotencyCache idempotency_;  // Capacity set from options_ in the ctor.
  /// Highest mutation sequence applied to the serving state.
  std::atomic<std::uint64_t> applied_sequence_{0};

  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> io_exit_{false};
};

}  // namespace kspin::server

#endif  // KSPIN_SERVER_SERVER_H_
