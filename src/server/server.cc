#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "io/binary_format.h"
#include "io/snapshot.h"
#include "kspin/query_control.h"
#include "service/query_parser.h"
#include "service/service_snapshot.h"

namespace kspin::server {
namespace {

using Clock = std::chrono::steady_clock;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

}  // namespace

// One TCP connection. The I/O thread owns fd / read state / the
// close_after_flush flag; the write queue is shared with workers under
// write_mutex. After the I/O thread closes the socket it sets `closed`,
// turning late worker responses into no-ops.
struct Server::Connection {
  int fd = -1;
  std::vector<std::uint8_t> read_buffer;
  std::size_t read_offset = 0;

  std::mutex write_mutex;
  std::deque<std::vector<std::uint8_t>> write_queue;
  std::size_t write_offset = 0;   // Into write_queue.front().
  std::size_t queued_bytes = 0;   // Un-flushed response backlog.
  std::atomic<bool> closed{false};
  bool close_after_flush = false;

  // Hardening state, owned by the I/O thread. `last_activity` tracks
  // bytes moving in either direction; `partial_frame_since` is set while
  // the read buffer ends in an incomplete frame (slow-loris detection).
  std::chrono::steady_clock::time_point last_activity{};
  std::chrono::steady_clock::time_point partial_frame_since{};
  /// Latched by QueueWrite when the backlog bound is exceeded; the I/O
  /// thread closes the connection on its next tick.
  std::atomic<bool> overflowed{false};

  /// Per-connection rate limiter (overload.per_client_qps); touched only
  /// by the I/O thread in HandleFrame.
  TokenBucket bucket;

  void QueueWrite(std::vector<std::uint8_t> bytes, std::size_t max_bytes) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (closed.load(std::memory_order_relaxed)) return;
    queued_bytes += bytes.size();
    write_queue.push_back(std::move(bytes));
    if (max_bytes > 0 && queued_bytes > max_bytes) {
      overflowed.store(true, std::memory_order_relaxed);
    }
  }

  bool HasPendingWrites() {
    std::lock_guard<std::mutex> lock(write_mutex);
    return !write_queue.empty();
  }
};

// One admitted request travelling from the I/O thread to a worker.
struct Server::Request {
  std::shared_ptr<Connection> conn;
  FrameHeader header;
  const OpcodeInfo* op = nullptr;  ///< Table row of header.opcode.
  std::vector<std::uint8_t> payload;
  Clock::time_point admitted_at{};
  /// admitted_at + deadline_ms; time_point{} when the request has none.
  Clock::time_point deadline{};
  /// Trace trailer stripped off the frame (trace_id 0 = none carried).
  TraceContext trace;
  /// Admission sojourn (EDF queue wait), filled at dequeue.
  std::uint32_t queue_us = 0;
};

Server::Server(PoiService& service, ServerOptions options)
    : service_(service),
      options_(options),
      recorder_(options_.flight_recorder_capacity),
      oplog_(options_.oplog),
      idempotency_(options_.idempotency_cache_size) {
  role_.store(options_.replication.role, std::memory_order_relaxed);
  queue_ = std::make_unique<AdmissionQueue<Request>>(
      options_.queue_capacity,
      std::chrono::milliseconds(options_.overload.codel_target_ms),
      std::chrono::milliseconds(
          std::max<std::uint32_t>(options_.overload.tick_interval_ms, 1)));
  metrics_.admission_limit.store(options_.queue_capacity,
                                 std::memory_order_relaxed);
  if (options_.overload.latency_slo_ms > 0) {
    const unsigned workers = options_.num_workers > 0
                                 ? options_.num_workers
                                 : std::thread::hardware_concurrency();
    overload_ = std::make_unique<OverloadController>(
        options_.overload, options_.queue_capacity, workers);
  }
  retry_after_hint_ms_.store(options_.overload.retry_after_ms,
                             std::memory_order_relaxed);
  if (!options_.trace_path.empty()) {
    trace_ = std::make_unique<TraceSink>(options_.trace_path,
                                         options_.trace_max_bytes,
                                         options_.trace_keep);
    if (!trace_->enabled()) {
      std::fprintf(stderr, "server: cannot open trace file %s; tracing off\n",
                   options_.trace_path.c_str());
      trace_.reset();
    }
  }
}

Server::~Server() { Stop(); }

void Server::Start() {
  if (started_.exchange(true)) {
    throw std::logic_error("Server::Start called twice");
  }
  start_time_ = Clock::now();
  if (!options_.snapshot.dir.empty()) {
    const auto existing = io::FindSnapshots(options_.snapshot.dir);
    if (!existing.empty()) {
      snapshot_sequence_.store(existing.front().first,
                               std::memory_order_relaxed);
    }
  }

  // Boot = restore-newest-snapshot-then-replay-tail: the caller already
  // restored the snapshot into `service_` and told us the mutation
  // sequence it covers; every valid log record past it is applied before
  // a single request is served (docs/persistence.md).
  applied_sequence_.store(options_.restored_mutation_sequence,
                          std::memory_order_relaxed);
  // The epoch sidecar outlives truncated log segments; replayed epoch
  // records below can only move the epoch forward from here.
  LoadEpochState();
  if (!oplog_.Open(options_.restored_mutation_sequence + 1)) {
    throw std::runtime_error("cannot open op log in " + options_.oplog.dir);
  }
  if (oplog_.Enabled()) {
    const OplogReplayResult replayed = ReplayOplog(
        options_.oplog.dir, options_.restored_mutation_sequence,
        [this](const OplogRecord& rec) {
          MutationRecord record;
          if (!DecodeMutationRecord(rec.payload, &record)) {
            // CRC-valid but undecodable means a format bug, not bit rot;
            // serving a silently divergent state would be worse than
            // failing the boot.
            throw std::runtime_error("op log record " +
                                     std::to_string(rec.sequence) +
                                     " does not decode");
          }
          if (record.op == MutationOp::kEpochTransition) {
            // Epoch records move replication state, not the catalog.
            if (record.epoch >=
                primary_epoch_.load(std::memory_order_relaxed)) {
              primary_epoch_.store(record.epoch, std::memory_order_relaxed);
              epoch_boundary_.store(rec.sequence, std::memory_order_relaxed);
            }
            return;
          }
          ApplyMutationRecord(service_, record);
        });
    if (replayed.last_sequence >
        applied_sequence_.load(std::memory_order_relaxed)) {
      applied_sequence_.store(replayed.last_sequence,
                              std::memory_order_relaxed);
    }
    metrics_.oplog_replay_records.store(replayed.records_applied,
                                        std::memory_order_relaxed);
    metrics_.mutations_applied.fetch_add(replayed.records_applied,
                                         std::memory_order_relaxed);
    if (replayed.records_applied > 0 || replayed.stopped_at_corruption) {
      std::fprintf(
          stderr,
          "oplog: replayed %llu record(s) to sequence %llu%s%s\n",
          static_cast<unsigned long long>(replayed.records_applied),
          static_cast<unsigned long long>(
              applied_sequence_.load(std::memory_order_relaxed)),
          replayed.stopped_at_corruption ? "; stopped at corruption: " : "",
          replayed.corruption_detail.c_str());
    }
  }
  MirrorOplogMetrics();
  metrics_.primary_epoch.store(PrimaryEpoch(), std::memory_order_relaxed);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    ThrowErrno("bind");
  }
  if (::listen(listen_fd_, 128) < 0) ThrowErrno("listen");
  socklen_t addr_len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  int wake[2];
  if (::pipe(wake) < 0) ThrowErrno("pipe");
  wake_read_fd_ = wake[0];
  wake_write_fd_ = wake[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  unsigned workers = options_.num_workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  io_thread_ = std::thread([this] { IoLoop(); });
  if (!options_.snapshot.dir.empty() && options_.snapshot.period_ms > 0) {
    snapshot_thread_ = std::thread([this] { SnapshotLoop(); });
  }
  if (options_.replication.role == ServerRole::kReplica &&
      options_.replication.primary.port != 0) {
    Replicator::Hooks hooks;
    hooks.local_sequence = [this] { return SnapshotSequence(); };
    hooks.install = [this](std::uint64_t sequence, const std::string& bytes,
                           std::string* error) {
      return InstallReplicaSnapshot(sequence, bytes, error);
    };
    hooks.local_mutation_sequence = [this] { return AppliedSequence(); };
    hooks.apply_mutations = [this](const std::vector<OplogWireRecord>& records,
                                   std::string* error) {
      return ApplyReplicatedMutations(records, error);
    };
    hooks.local_epoch = [this] { return PrimaryEpoch(); };
    hooks.observe_epoch = [this](std::uint64_t epoch,
                                 std::uint64_t boundary) {
      AdoptEpoch(epoch, boundary);
    };
    hooks.quarantine_divergent = [this](std::uint64_t boundary) {
      return QuarantineDivergentOplog(boundary);
    };
    hooks.source_switched = [this](bool oplog) {
      recorder_.RecordEvent(oplog ? DiagEvent::kReplicationSourceOplog
                                  : DiagEvent::kReplicationSourceSnapshot);
    };
    replicator_ = std::make_unique<Replicator>(options_.replication,
                                               metrics_, std::move(hooks));
    replicator_->Start();
  }
}

void Server::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // 0. Stop the replicator first — an in-flight install briefly takes the
  // exclusive update lock, which needs nothing from the threads torn down
  // below, but no new fetches should start during shutdown.
  if (replicator_ != nullptr) replicator_->Stop();
  // Then the background snapshotter (it grabs the update lock; let it
  // finish any in-flight write, then exit).
  {
    std::lock_guard<std::mutex> lock(snapshot_cv_mutex_);
    snapshot_stop_ = true;
  }
  snapshot_cv_.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  // 1. Refuse new work; admitted requests keep draining.
  queue_->Close();
  Wake();
  // 2. Workers finish every admitted request and exit; the op log gets a
  // final fsync once nothing can append anymore.
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  oplog_.Close();
  // 3. The I/O thread flushes remaining responses and exits.
  io_exit_.store(true);
  Wake();
  if (io_thread_.joinable()) io_thread_.join();
  // 4. Tear down sockets.
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  for (auto& [fd, conn] : connections_) {
    conn->closed.store(true);
    ::close(fd);
  }
  connections_.clear();
}

void Server::Wake() {
  if (wake_write_fd_ < 0) return;
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

// ----- I/O thread ----------------------------------------------------------

void Server::IoLoop() {
  while (!io_exit_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.push_back({wake_read_fd_, POLLIN, 0});
    // Skip the listen fd while paused after fd exhaustion — otherwise a
    // perpetually-ready listen socket turns poll() into a hot spin.
    const bool accepting = !stopping_.load(std::memory_order_acquire) &&
                           Clock::now() >= accept_pause_until_;
    if (accepting) fds.push_back({listen_fd_, POLLIN, 0});
    std::vector<std::shared_ptr<Connection>> polled;
    polled.reserve(connections_.size());
    for (auto& [fd, conn] : connections_) {
      short events = POLLIN;
      if (conn->HasPendingWrites()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      polled.push_back(conn);
    }

    if (::poll(fds.data(), fds.size(), 100) < 0) {
      if (errno == EINTR) continue;
      break;
    }

    std::size_t index = 0;
    if (fds[index].revents & POLLIN) {
      char drain[256];
      while (::read(wake_read_fd_, drain, sizeof drain) > 0) {
      }
    }
    ++index;
    if (accepting) {
      if (fds[index].revents & POLLIN) AcceptNew();
      ++index;
    }

    for (std::size_t c = 0; c < polled.size(); ++c, ++index) {
      const std::shared_ptr<Connection>& conn = polled[c];
      const short revents = fds[index].revents;
      bool alive = true;
      if (revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (revents & (POLLIN | POLLHUP))) {
        alive = ReadFromConnection(conn);
      }
      if (alive) alive = FlushConnection(conn);
      if (alive && conn->close_after_flush && !conn->HasPendingWrites()) {
        alive = false;
      }
      if (!alive) CloseConnection(conn->fd);
    }

    const Clock::time_point now = Clock::now();
    SweepConnections(now);
    OverloadTick(now);
    FlushShedBursts(now);
  }

  // Final flush: give queued responses a brief window to reach clients
  // before the sockets close.
  const Clock::time_point flush_deadline =
      Clock::now() + std::chrono::seconds(2);
  for (bool pending = true; pending && Clock::now() < flush_deadline;) {
    pending = false;
    for (auto& [fd, conn] : connections_) {
      if (!FlushConnection(conn)) continue;
      if (conn->HasPendingWrites()) pending = true;
    }
    if (pending) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

void Server::OverloadTick(Clock::time_point now) {
  if (!overload_) return;
  const auto interval = std::chrono::milliseconds(
      std::max<std::uint32_t>(options_.overload.tick_interval_ms, 1));
  if (last_overload_tick_ != Clock::time_point{} &&
      now - last_overload_tick_ < interval) {
    return;
  }
  last_overload_tick_ = now;

  const OverloadDecision decision =
      overload_->Tick(metrics_.query_latency.Snapshot(),
                      metrics_.admission_sojourn.Snapshot(), queue_->Size());
  queue_->SetLimit(decision.admission_limit);
  metrics_.admission_limit.store(decision.admission_limit,
                                 std::memory_order_relaxed);
  retry_after_hint_ms_.store(decision.retry_after_ms,
                             std::memory_order_relaxed);

  const bool was_brownout = brownout_active_.load(std::memory_order_relaxed);
  if (decision.brownout_entered) {
    metrics_.brownout_entries.fetch_add(1, std::memory_order_relaxed);
    brownout_since_ = now;
    brownout_seconds_credited_ = 0;
    recorder_.RecordEvent(DiagEvent::kBrownoutEnter,
                          decision.admission_limit);
  }
  if (was_brownout && !decision.brownout) {
    recorder_.RecordEvent(DiagEvent::kBrownoutExit, decision.admission_limit);
  }
  brownout_active_.store(decision.brownout, std::memory_order_relaxed);
  if (decision.brownout) {
    // Credit whole seconds of the running episode as they accrue, so the
    // counter moves while the episode is still open.
    const auto active_s = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(now -
                                                         brownout_since_)
            .count());
    if (active_s > brownout_seconds_credited_) {
      metrics_.brownout_seconds.fetch_add(
          active_s - brownout_seconds_credited_, std::memory_order_relaxed);
      brownout_seconds_credited_ = active_s;
    }
  }
  metrics_.overload_state.store(
      decision.brownout
          ? 2
          : (decision.admission_limit < options_.queue_capacity ? 1 : 0),
      std::memory_order_relaxed);
}

void Server::RecordShed(DiagShedCause cause) {
  const auto index = static_cast<std::size_t>(cause);
  if (index >= std::size(shed_counts_)) return;
  shed_counts_[index].fetch_add(1, std::memory_order_relaxed);
}

void Server::FlushShedBursts(Clock::time_point now) {
  if (shed_window_start_ == Clock::time_point{}) {
    shed_window_start_ = now;
    return;
  }
  if (now - shed_window_start_ < std::chrono::seconds(1)) return;
  shed_window_start_ = now;
  for (std::size_t i = 1; i < std::size(shed_counts_); ++i) {
    const std::uint64_t count =
        shed_counts_[i].exchange(0, std::memory_order_relaxed);
    if (count == 0) continue;
    recorder_.RecordEvent(DiagEvent::kShedBurst, i, count);
  }
}

void Server::RecordEnvelopeSpan(const TraceContext& trace, Opcode opcode,
                                StatusCode status, std::uint32_t queue_us) {
  SpanRecord span;
  span.trace_id = trace.trace_id;
  span.parent_span_id = trace.parent_span_id;
  span.span_id = recorder_.NextSpanId();
  span.opcode = static_cast<std::uint8_t>(opcode);
  span.status = static_cast<std::uint8_t>(status);
  span.queue_us = queue_us;
  recorder_.RecordSpan(span);
}

void Server::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // Resource exhaustion (out of fds / kernel memory) is not transient
      // on the poll timescale: the listen fd stays readable, so returning
      // silently would spin the I/O thread hot. Count it and back off.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        metrics_.accept_errors.fetch_add(1, std::memory_order_relaxed);
        accept_pause_until_ =
            Clock::now() + std::chrono::milliseconds(options_.accept_pause_ms);
      }
      return;  // EAGAIN or transient error; poll again.
    }
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->last_activity = Clock::now();
    connections_.emplace(fd, std::move(conn));
    metrics_.connections_opened.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::SweepConnections(Clock::time_point now) {
  std::vector<std::pair<int, std::atomic<std::uint64_t>*>> doomed;
  for (auto& [fd, conn] : connections_) {
    if (conn->overflowed.load(std::memory_order_relaxed)) {
      doomed.emplace_back(fd, &metrics_.connections_reaped_backpressure);
    } else if (options_.read_deadline_ms > 0 &&
               conn->partial_frame_since != Clock::time_point{} &&
               now - conn->partial_frame_since >=
                   std::chrono::milliseconds(options_.read_deadline_ms)) {
      doomed.emplace_back(fd, &metrics_.connections_reaped_slow);
    } else if (options_.idle_timeout_ms > 0 &&
               now - conn->last_activity >=
                   std::chrono::milliseconds(options_.idle_timeout_ms)) {
      doomed.emplace_back(fd, &metrics_.connections_reaped_idle);
    }
  }
  for (const auto& [fd, counter] : doomed) {
    counter->fetch_add(1, std::memory_order_relaxed);
    CloseConnection(fd);
  }
}

bool Server::ReadFromConnection(const std::shared_ptr<Connection>& conn) {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof chunk);
    if (n > 0) {
      conn->read_buffer.insert(conn->read_buffer.end(), chunk, chunk + n);
      conn->last_activity = Clock::now();
      if (static_cast<std::size_t>(n) < sizeof chunk) break;
      continue;
    }
    if (n == 0) return false;  // Peer closed.
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  // Decode every complete frame in the buffer.
  while (conn->read_offset < conn->read_buffer.size()) {
    const std::span<const std::uint8_t> pending(
        conn->read_buffer.data() + conn->read_offset,
        conn->read_buffer.size() - conn->read_offset);
    FrameHeader header;
    std::size_t frame_size = 0;
    const DecodeResult result = TryDecodeFrame(pending, &header, &frame_size);
    if (result == DecodeResult::kNeedMore) break;
    if (result != DecodeResult::kFrame) {
      // Fatal stream error: report, then close once the report flushes.
      metrics_.frames_malformed.fetch_add(1, std::memory_order_relaxed);
      FrameHeader error_header;
      error_header.opcode = Opcode::kError;
      StatusCode status = StatusCode::kMalformedPayload;
      std::string message = "malformed frame";
      if (result == DecodeResult::kBadVersion) {
        error_header.request_id = header.request_id;
        status = StatusCode::kUnsupported;
        message = "unsupported protocol version";
      } else if (result == DecodeResult::kTooLarge) {
        error_header.request_id = header.request_id;
        message = "frame exceeds maximum payload size";
      }
      conn->QueueWrite(
          EncodeFrame(error_header, EncodeErrorResponse(status, message)),
          options_.max_write_queue_bytes);
      conn->close_after_flush = true;
      conn->read_offset = conn->read_buffer.size();
      break;
    }

    std::vector<std::uint8_t> payload(
        pending.begin() + kHeaderSize, pending.begin() + frame_size);
    conn->read_offset += frame_size;
    HandleFrame(conn, header, std::move(payload));
  }

  // Compact the consumed prefix once it dominates the buffer.
  if (conn->read_offset > 0 &&
      conn->read_offset * 2 >= conn->read_buffer.size()) {
    conn->read_buffer.erase(conn->read_buffer.begin(),
                            conn->read_buffer.begin() + conn->read_offset);
    conn->read_offset = 0;
  }

  // Track how long an unfinished frame has been pending (slow-loris): the
  // clock starts when a partial frame first appears and resets whenever
  // the buffer drains to a frame boundary.
  if (conn->read_offset < conn->read_buffer.size()) {
    if (conn->partial_frame_since == Clock::time_point{}) {
      conn->partial_frame_since = Clock::now();
    }
  } else {
    conn->partial_frame_since = Clock::time_point{};
  }
  return true;
}

bool Server::FlushConnection(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  while (!conn->write_queue.empty()) {
    std::vector<std::uint8_t>& front = conn->write_queue.front();
    // MSG_NOSIGNAL: a peer that vanished between poll() and this send
    // must be an ordinary close, not a process-wide SIGPIPE.
    const ssize_t n = ::send(conn->fd, front.data() + conn->write_offset,
                             front.size() - conn->write_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    conn->write_offset += static_cast<std::size_t>(n);
    conn->queued_bytes -= static_cast<std::size_t>(n);
    conn->last_activity = Clock::now();
    if (conn->write_offset == front.size()) {
      conn->write_queue.pop_front();
      conn->write_offset = 0;
    }
  }
  return true;
}

void Server::CloseConnection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  it->second->closed.store(true, std::memory_order_relaxed);
  ::close(fd);
  connections_.erase(it);
  metrics_.connections_closed.fetch_add(1, std::memory_order_relaxed);
}

void Server::Respond(const std::shared_ptr<Connection>& conn,
                     const FrameHeader& request_header,
                     std::vector<std::uint8_t> response_payload) {
  FrameHeader header;
  header.opcode = request_header.opcode;
  header.request_id = request_header.request_id;
  conn->QueueWrite(EncodeFrame(header, response_payload),
                   options_.max_write_queue_bytes);
  Wake();
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         const FrameHeader& header,
                         std::vector<std::uint8_t> payload) {
  metrics_.frames_received.fetch_add(1, std::memory_order_relaxed);
  const OpcodeInfo* const op = FindOpcode(header.opcode);
  if (op == nullptr) {
    metrics_.requests_unsupported.fetch_add(1, std::memory_order_relaxed);
    Respond(conn, header,
            EncodeErrorResponse(StatusCode::kUnsupported, "unknown opcode"));
    return;
  }
  metrics_.CountOpcode(*op);

  // Strip the trace trailer off the payload before any opcode body
  // decode, so every body codec sees exactly its body bytes.
  TraceContext trace;
  if ((header.flags & kFrameFlagTraceContext) != 0) {
    std::span<const std::uint8_t> body;
    if (!SplitTraceTrailer(payload, header.flags, &body, &trace)) {
      metrics_.requests_malformed_payload.fetch_add(
          1, std::memory_order_relaxed);
      Respond(conn, header,
              EncodeErrorResponse(StatusCode::kMalformedPayload,
                                  "truncated trace trailer"));
      return;
    }
    payload.resize(body.size());
  }

  if (op->lane == Lane::kInline) {
    // Answered here, bypassing admission: probes, scrapes and diag dumps
    // must work on a saturated server (that is when failover and
    // forensics need them most). requests_ok is counted after the body
    // is built, so a METRICS reply never counts itself.
    std::vector<std::uint8_t> reply;
    switch (header.opcode) {
      case Opcode::kMetrics:
        MirrorOplogMetrics();
        reply = EncodeMetricsResponse(
            RenderPrometheusText(metrics_.FullSnapshot(queue_->Size())));
        break;
      case Opcode::kHealth:
        reply = BuildHealthResponse();
        break;
      case Opcode::kDumpDiag:
        // Dump() is lock-free against concurrent writers.
        reply = EncodeDiagResponse(recorder_.Dump(kMaxPayloadSize - 256));
        break;
      default:  // kPing.
        reply = EncodeOkResponse();
        break;
    }
    metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
    Respond(conn, header, std::move(reply));
    return;
  }

  if (op->lane == Lane::kWrite) {
    if (role_.load(std::memory_order_acquire) == ServerRole::kReplica) {
      // Replicas are read-only; tell the client where the primary is
      // (the NOT_PRIMARY message is the redirect address).
      metrics_.requests_not_primary.fetch_add(1, std::memory_order_relaxed);
      RecordEnvelopeSpan(trace, header.opcode, StatusCode::kNotPrimary);
      Respond(conn, header,
              EncodeErrorResponse(StatusCode::kNotPrimary,
                                  options_.replication.primary.ToString()));
      return;
    }
    // Once any request carried a higher epoch this primary is fenced:
    // every write — keyed or not — is refused until it rejoins as a
    // replica of the new primary.
    const std::uint64_t fenced = fenced_epoch_.load(std::memory_order_acquire);
    if (fenced > primary_epoch_.load(std::memory_order_acquire)) {
      metrics_.requests_stale_epoch.fetch_add(1, std::memory_order_relaxed);
      RecordEnvelopeSpan(trace, header.opcode, StatusCode::kStaleEpoch);
      Respond(conn, header,
              EncodeErrorResponse(StatusCode::kStaleEpoch,
                                  "fenced: a newer primary epoch " +
                                      std::to_string(fenced) +
                                      " has been observed"));
      return;
    }
  }

  const Clock::time_point now = Clock::now();
  const std::uint32_t retry_after =
      retry_after_hint_ms_.load(std::memory_order_relaxed);
  // Per-connection token bucket (overload.per_client_qps): one noisy
  // client must not starve the rest of the fleet's admission slots.
  if (options_.overload.per_client_qps > 0 &&
      !conn->bucket.TryAcquire(now, options_.overload.per_client_qps,
                               options_.overload.per_client_burst)) {
    metrics_.requests_rate_limited.fetch_add(1, std::memory_order_relaxed);
    RecordShed(DiagShedCause::kRateLimited);
    RecordEnvelopeSpan(trace, header.opcode, StatusCode::kOverloaded);
    Respond(conn, header,
            EncodeErrorResponse(StatusCode::kOverloaded, "rate limited",
                                retry_after));
    return;
  }
  Request request;
  request.conn = conn;
  request.header = header;
  request.op = op;
  request.payload = std::move(payload);
  request.admitted_at = now;
  request.trace = trace;
  if (header.deadline_ms > 0) {
    request.deadline =
        request.admitted_at + std::chrono::milliseconds(header.deadline_ms);
  }
  const Clock::time_point deadline = request.deadline;
  // Admission uses a fresh clock when the test hook widens the gap
  // between receipt and enqueue; in production the two coincide.
  Clock::time_point admit_now = now;
  if (options_.test_admission_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.test_admission_delay_ms));
    admit_now = Clock::now();
  }
  switch (queue_->TryPush(std::move(request), deadline, admit_now)) {
    case AdmissionResult::kAdmitted:
      metrics_.RecordQueueDepth(queue_->Size());
      return;
    case AdmissionResult::kExpired:
      // Doomed on arrival: refuse at the door instead of queueing work
      // whose deadline already passed. Counted separately from the
      // overload sheds.
      metrics_.requests_deadline_rejected.fetch_add(
          1, std::memory_order_relaxed);
      RecordShed(DiagShedCause::kDeadline);
      RecordEnvelopeSpan(trace, header.opcode, StatusCode::kDeadlineExceeded);
      Respond(conn, header,
              EncodeErrorResponse(StatusCode::kDeadlineExceeded,
                                  "deadline expired before admission"));
      return;
    case AdmissionResult::kLimited:
      metrics_.requests_admission_limited.fetch_add(
          1, std::memory_order_relaxed);
      RecordShed(DiagShedCause::kLimited);
      RecordEnvelopeSpan(trace, header.opcode, StatusCode::kOverloaded);
      Respond(conn, header,
              EncodeErrorResponse(StatusCode::kOverloaded,
                                  "admission limited", retry_after));
      return;
    case AdmissionResult::kQueueFull:
    case AdmissionResult::kClosed:
      metrics_.requests_overloaded.fetch_add(1, std::memory_order_relaxed);
      RecordShed(DiagShedCause::kQueueFull);
      RecordEnvelopeSpan(trace, header.opcode, StatusCode::kOverloaded);
      Respond(conn, header,
              EncodeErrorResponse(StatusCode::kOverloaded,
                                  "admission queue full", retry_after));
      return;
  }
}

// ----- Workers -------------------------------------------------------------

void Server::WorkerLoop(std::size_t worker_index) {
  // Per-thread processor, lazily (re)built when the engine's structure
  // generation moves: a write that grows the keyword universe, or a
  // RELOAD, replaces the components a MakeProcessor() result references.
  std::unique_ptr<QueryProcessor> processor;
  std::uint64_t generation = 0;

  for (;;) {
    std::optional<AdmissionQueue<Request>::Popped> popped = queue_->Pop();
    if (!popped.has_value()) return;  // Closed and drained.
    metrics_.admission_sojourn.Record(
        static_cast<std::uint64_t>(popped->sojourn.count()));
    Request* const request = &popped->item;
    request->queue_us = static_cast<std::uint32_t>(
        std::min<std::int64_t>(popped->sojourn.count(), UINT32_MAX));

    if (options_.test_dequeue_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.test_dequeue_delay_ms));
    }
    if (options_.enforce_deadline_at_dequeue &&
        request->deadline != Clock::time_point{} &&
        Clock::now() >= request->deadline) {
      metrics_.requests_deadline_dropped.fetch_add(
          1, std::memory_order_relaxed);
      RecordShed(DiagShedCause::kDeadline);
      RecordEnvelopeSpan(request->trace, request->header.opcode,
                         StatusCode::kDeadlineExceeded, request->queue_us);
      Respond(request->conn, request->header,
              EncodeErrorResponse(StatusCode::kDeadlineExceeded,
                                  "deadline expired before execution"));
      continue;
    }
    if (popped->shed) {
      // CoDel verdict: the queue stayed congested and this request
      // overstayed the sojourn target — fail fast rather than serve
      // stale work the client has likely given up on.
      metrics_.requests_codel_shed.fetch_add(1, std::memory_order_relaxed);
      RecordShed(DiagShedCause::kCodel);
      RecordEnvelopeSpan(request->trace, request->header.opcode,
                         StatusCode::kOverloaded, request->queue_us);
      Respond(request->conn, request->header,
              EncodeErrorResponse(
                  StatusCode::kOverloaded, "shed: queue sojourn over target",
                  retry_after_hint_ms_.load(std::memory_order_relaxed)));
      continue;
    }

    const Lane lane = request->op->lane;
    switch (lane) {
      case Lane::kSearch:
      case Lane::kFetch: {
        // FETCH_SNAPSHOT only reads immutable snapshot files and
        // FETCH_OPLOG serializes inside the Oplog, so fetches run like
        // queries: they must not quiesce queries (or be blocked by them).
        // Wait-free unless a mutation's in-memory apply window is open.
        const EpochGate::ReadGuard guard = gate_.Reader(worker_index);
        const std::uint64_t current =
            service_.Engine().StructureGeneration();
        if (processor == nullptr || generation != current) {
          processor = service_.Engine().MakeProcessor();
          generation = current;
        }
        ProcessRequest(*request,
                       lane == Lane::kSearch ? processor.get() : nullptr);
        break;
      }
      case Lane::kWrite:
        ProcessMutation(*request);  // Takes mutation_mutex_ itself.
        break;
      case Lane::kPromote:
        // PROMOTE stops the replicator before locking; it must NOT run
        // under mutation_mutex_ like kExclusive (the replicator's poll
        // thread takes that mutex, so Stop-under-lock would deadlock).
        ProcessPromote(*request);
        break;
      case Lane::kExclusive: {
        // SNAPSHOT / RELOAD: exclude other state-changers; queries keep
        // flowing (RELOAD additionally opens an apply window for its
        // swap).
        std::lock_guard<std::mutex> guard(mutation_mutex_);
        ProcessRequest(*request, nullptr);
        break;
      }
      case Lane::kInline:
        break;  // Answered by the I/O thread; never admitted.
    }
  }
}

void Server::ProcessRequest(Request& request, QueryProcessor* processor) {
  const FrameHeader& header = request.header;
  const Opcode opcode = header.opcode;
  const bool is_query = request.op->lane == Lane::kSearch;
  const Clock::time_point exec_start = Clock::now();

  QueryControl control;
  control.deadline = request.deadline;
  const QueryControl* control_ptr =
      request.deadline != Clock::time_point{} ? &control : nullptr;

  std::vector<std::uint8_t> response;
  bool ok = false;
  // Engine counters for this query: plain stack integers on the hot path,
  // folded into the atomic aggregates exactly once below.
  QueryStats qstats;
  std::string traced_query;  // Retained for trace / slow-query lines.
  VertexId traced_vertex = 0;
  std::uint32_t traced_k = 0;
  bool traced_degraded = false;
  std::uint32_t traced_results = 0;
  try {
    switch (opcode) {
      case Opcode::kSearchBoolean:
      case Opcode::kSearchRanked: {
        SearchRequest search;
        if (!DecodeSearchRequest(request.payload, &search)) {
          metrics_.requests_malformed_payload.fetch_add(
              1, std::memory_order_relaxed);
          response = EncodeErrorResponse(StatusCode::kMalformedPayload,
                                         "bad search payload");
          break;
        }
        const Graph& graph = service_.Engine().NetworkGraph();
        if (search.vertex >= graph.NumVertices()) {
          metrics_.requests_bad_query.fetch_add(1,
                                                std::memory_order_relaxed);
          response = EncodeErrorResponse(StatusCode::kBadQuery,
                                         "vertex out of range");
          break;
        }
        if (search.k > options_.max_k) {
          metrics_.requests_bad_query.fetch_add(1,
                                                std::memory_order_relaxed);
          response =
              EncodeErrorResponse(StatusCode::kBadQuery, "k too large");
          break;
        }
        traced_query = search.query;
        traced_vertex = search.vertex;
        traced_k = search.k;
        // Brownout (docs/protocol.md "Overload control & degradation"):
        // clamp k and answer from lower bounds only — cheap index work
        // instead of exact distance refinement — and stamp the reply
        // DEGRADED so clients can tell.
        const bool degraded =
            brownout_active_.load(std::memory_order_relaxed);
        if (degraded && options_.overload.brownout_max_k > 0) {
          search.k = std::min(search.k, options_.overload.brownout_max_k);
        }
        if (degraded) processor->SetApproximateMode(true);
        std::vector<PoiResult> hits;
        try {
          hits = opcode == Opcode::kSearchBoolean
                     ? service_.SearchOn(*processor, search.query,
                                         search.vertex, search.k,
                                         control_ptr, &qstats)
                     : service_.SearchRankedOn(*processor, search.query,
                                               search.vertex, search.k,
                                               control_ptr, &qstats);
        } catch (...) {
          if (degraded) processor->SetApproximateMode(false);
          throw;
        }
        if (degraded) {
          processor->SetApproximateMode(false);
          metrics_.requests_degraded.fetch_add(1, std::memory_order_relaxed);
        }
        traced_degraded = degraded;
        traced_results = static_cast<std::uint32_t>(hits.size());
        std::vector<WireResult> results;
        results.reserve(hits.size());
        for (const PoiResult& hit : hits) {
          results.push_back(
              {hit.id, hit.travel_time, hit.score, hit.name});
        }
        response = EncodeSearchResponse(
            results, degraded ? kSearchFlagDegraded : std::uint8_t{0});
        ok = true;
        break;
      }
      case Opcode::kSnapshot: {
        if (options_.snapshot.dir.empty()) {
          metrics_.requests_bad_query.fetch_add(1,
                                                std::memory_order_relaxed);
          response = EncodeErrorResponse(StatusCode::kBadQuery,
                                         "snapshotting disabled");
          break;
        }
        // The worker already holds mutation_mutex_ (SNAPSHOT routes as a
        // state-changer), so the state cannot change underneath.
        const auto [sequence, path] = SnapshotLocked();
        response = EncodeSnapshotResponse(sequence, path);
        ok = true;
        break;
      }
      case Opcode::kReload: {
        if (options_.snapshot.dir.empty()) {
          metrics_.requests_bad_query.fetch_add(1,
                                                std::memory_order_relaxed);
          response = EncodeErrorResponse(StatusCode::kBadQuery,
                                         "snapshotting disabled");
          break;
        }
        response = HandleReloadLocked();
        ok = response.size() > 0 &&
             response[0] == static_cast<std::uint8_t>(StatusCode::kOk);
        break;
      }
      case Opcode::kFetchSnapshot: {
        FetchSnapshotRequest fetch;
        if (!DecodeFetchSnapshotRequest(request.payload, &fetch)) {
          metrics_.requests_malformed_payload.fetch_add(
              1, std::memory_order_relaxed);
          response = EncodeErrorResponse(StatusCode::kMalformedPayload,
                                         "bad fetch-snapshot payload");
          break;
        }
        if (options_.snapshot.dir.empty()) {
          metrics_.requests_bad_query.fetch_add(1,
                                                std::memory_order_relaxed);
          response = EncodeErrorResponse(StatusCode::kBadQuery,
                                         "snapshotting disabled");
          break;
        }
        response = HandleFetchSnapshot(fetch);
        ok = response.size() > 0 &&
             response[0] == static_cast<std::uint8_t>(StatusCode::kOk);
        if (!ok) {
          metrics_.requests_bad_query.fetch_add(1,
                                                std::memory_order_relaxed);
        }
        break;
      }
      case Opcode::kFetchOplog: {
        FetchOplogRequest fetch;
        if (!DecodeFetchOplogRequest(request.payload, &fetch)) {
          metrics_.requests_malformed_payload.fetch_add(
              1, std::memory_order_relaxed);
          response = EncodeErrorResponse(StatusCode::kMalformedPayload,
                                         "bad fetch-oplog payload");
          break;
        }
        response = HandleFetchOplog(fetch);
        ok = response.size() > 0 &&
             response[0] == static_cast<std::uint8_t>(StatusCode::kOk);
        if (!ok) {
          metrics_.requests_unsupported.fetch_add(1,
                                                  std::memory_order_relaxed);
        }
        break;
      }
      default:
        response = EncodeErrorResponse(StatusCode::kUnsupported,
                                       "unknown opcode");
        metrics_.requests_unsupported.fetch_add(1,
                                                std::memory_order_relaxed);
        break;
    }
  } catch (const QueryParseError& e) {
    metrics_.requests_bad_query.fetch_add(1, std::memory_order_relaxed);
    response = EncodeErrorResponse(StatusCode::kBadQuery, e.what());
  } catch (const QueryCancelledError&) {
    metrics_.requests_deadline_cancelled.fetch_add(
        1, std::memory_order_relaxed);
    response = EncodeErrorResponse(StatusCode::kDeadlineExceeded,
                                   "deadline exceeded during execution");
  } catch (const std::invalid_argument& e) {
    metrics_.requests_bad_query.fetch_add(1, std::memory_order_relaxed);
    response = EncodeErrorResponse(StatusCode::kBadQuery, e.what());
  } catch (const std::exception& e) {
    metrics_.requests_internal_error.fetch_add(1,
                                               std::memory_order_relaxed);
    response = EncodeErrorResponse(StatusCode::kInternal, e.what());
  }

  const auto micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - request.admitted_at)
          .count());
  const StatusCode final_status =
      response.empty() ? StatusCode::kInternal
                       : static_cast<StatusCode>(response[0]);
  // One span id shared by the flight-recorder record and the trace-file
  // line, so the two can be joined post hoc.
  const std::uint64_t span_id = recorder_.NextSpanId();
  if (ok) {
    metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
    // The trace id (when present) becomes the histogram bucket's exemplar.
    (is_query ? metrics_.query_latency : metrics_.update_latency)
        .Record(micros, request.trace.trace_id);
  }
  if (is_query) {
    // Fold this query's engine counters into the aggregates (a handful of
    // relaxed adds; AddQueryStats skips zero fields, so a failed query
    // that never reached the engine costs nothing here).
    metrics_.AddQueryStats(qstats);
  }
  const bool slow = is_query && options_.slow_query_threshold_ms > 0 &&
                    micros >= std::uint64_t{1000} *
                                  options_.slow_query_threshold_ms;
  if (slow) metrics_.slow_queries.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point respond_start = Clock::now();
  Respond(request.conn, header, std::move(response));
  // Always record the span into the flight recorder — this is what a
  // post-incident DUMP_DIAG reconstructs when no trace file was on.
  const auto clamp_us = [](std::int64_t us) {
    return static_cast<std::uint32_t>(
        std::min<std::int64_t>(std::max<std::int64_t>(us, 0), UINT32_MAX));
  };
  const auto clamp_u32 = [](std::uint64_t v) {
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(v, UINT32_MAX));
  };
  SpanRecord span;
  span.trace_id = request.trace.trace_id;
  span.parent_span_id = request.trace.parent_span_id;
  span.span_id = span_id;
  span.opcode = static_cast<std::uint8_t>(opcode);
  span.status = static_cast<std::uint8_t>(final_status);
  span.degraded = traced_degraded ? 1 : 0;
  span.queue_us = request.queue_us;
  span.execute_us =
      clamp_us(std::chrono::duration_cast<std::chrono::microseconds>(
                   respond_start - exec_start)
                   .count());
  span.reply_us =
      clamp_us(std::chrono::duration_cast<std::chrono::microseconds>(
                   Clock::now() - respond_start)
                   .count());
  span.heap_build_ns = qstats.heap_build_ns;
  span.search_ns = qstats.search_ns;
  span.heap_pops = clamp_u32(qstats.candidates_extracted);
  span.lower_bounds = clamp_u32(qstats.lower_bounds_computed);
  span.distance_computations =
      clamp_u32(qstats.network_distance_computations);
  span.false_positive_distances =
      clamp_u32(qstats.false_positive_distances);
  span.results = traced_results;
  recorder_.RecordSpan(span);

  // The trace-file line (formatted, then written under the sink's mutex
  // with a flush) and the slow-query log line go out after the reply, so
  // neither delays it; the line carries the span id recorded above.
  if (is_query && (trace_ != nullptr || slow)) {
    QueryTraceEvent event;
    event.fingerprint = QueryFingerprint(traced_query, traced_vertex, traced_k);
    event.trace_id = request.trace.trace_id;
    event.parent_span_id = request.trace.parent_span_id;
    event.span_id = span_id;
    event.opcode = request.op->name;
    event.query = traced_query;
    event.vertex = traced_vertex;
    event.k = traced_k;
    event.status = StatusName(final_status);
    event.latency_us = micros;
    event.queue_us = request.queue_us;
    event.degraded = traced_degraded;
    event.stats = qstats;
    const std::string line = FormatQueryTrace(event);
    if (trace_ != nullptr) {
      trace_->Write(line);
      metrics_.traces_emitted.fetch_add(1, std::memory_order_relaxed);
      metrics_.trace_rotations.store(trace_->rotations(),
                                     std::memory_order_relaxed);
    }
    if (slow) {
      std::fprintf(stderr, "slow query (%llu us): %s\n",
                   static_cast<unsigned long long>(micros), line.c_str());
    }
  }
}

// ----- Mutations -----------------------------------------------------------

namespace {

// Pre-validates a mutation against the current catalog so nothing invalid
// is ever appended to the log. Replay applies logged records
// unconditionally, so the apply of a validated record must succeed — this
// function must anticipate every way ApplyMutationRecord could throw.
bool ValidateMutation(const PoiService& service, const MutationRecord& record,
                      std::string* why) {
  switch (record.op) {
    case MutationOp::kInsert:
      if (record.vertex >= service.Engine().NetworkGraph().NumVertices()) {
        *why = "vertex out of range";
        return false;
      }
      return true;
    case MutationOp::kDelete:
      if (!service.Engine().Store().IsLive(record.object)) {
        *why = "no such poi";
        return false;
      }
      return true;
    case MutationOp::kEpochTransition:
      // Minted by PROMOTE only; never accepted from the client path.
      *why = "not a client mutation";
      return false;
    case MutationOp::kUpdate: {
      if (!service.Engine().Store().IsLive(record.object)) {
        *why = "no such poi";
        return false;
      }
      // Adds apply before removes and never fail on a live object; a
      // remove fails if its keyword is absent at that point. Simulate the
      // per-keyword presence so "add x, remove x" and "remove x twice"
      // validate exactly as they would apply.
      std::unordered_map<std::string, bool> present;
      const auto state = [&](const std::string& keyword) -> bool& {
        const std::string canonical = PoiService::CanonicalKeyword(keyword);
        auto it = present.find(canonical);
        if (it == present.end()) {
          it = present.emplace(canonical,
                               service.HasTag(record.object, canonical))
                   .first;
        }
        return it->second;
      };
      for (const std::string& keyword : record.add_keywords) {
        state(keyword) = true;
      }
      for (const std::string& keyword : record.remove_keywords) {
        bool& tagged = state(keyword);
        if (!tagged) {
          *why = "poi does not have keyword: " + keyword;
          return false;
        }
        tagged = false;
      }
      return true;
    }
  }
  *why = "unknown mutation op";
  return false;
}

}  // namespace

bool Server::DecodeMutationRequest(const Request& request,
                                   MutationRecord* record,
                                   std::uint64_t* fence_epoch,
                                   std::vector<std::uint8_t>* error_response) {
  const auto malformed = [&](const char* what) {
    metrics_.requests_malformed_payload.fetch_add(1,
                                                  std::memory_order_relaxed);
    *error_response =
        EncodeErrorResponse(StatusCode::kMalformedPayload, what);
    return false;
  };
  *fence_epoch = 0;
  switch (request.header.opcode) {
    case Opcode::kInsertDoc: {
      InsertDocRequest req;
      if (!DecodeInsertDocRequest(request.payload, &req)) {
        return malformed("bad insert-doc payload");
      }
      record->op = MutationOp::kInsert;
      record->idempotency_key = req.idempotency_key;
      record->vertex = req.vertex;
      record->name = std::move(req.name);
      record->add_keywords = std::move(req.keywords);
      *fence_epoch = req.fence_epoch;
      return true;
    }
    case Opcode::kDeleteDoc: {
      DeleteDocRequest req;
      if (!DecodeDeleteDocRequest(request.payload, &req)) {
        return malformed("bad delete-doc payload");
      }
      record->op = MutationOp::kDelete;
      record->idempotency_key = req.idempotency_key;
      record->object = req.object;
      *fence_epoch = req.fence_epoch;
      return true;
    }
    case Opcode::kUpdateDoc: {
      UpdateDocRequest req;
      if (!DecodeUpdateDocRequest(request.payload, &req)) {
        return malformed("bad update-doc payload");
      }
      record->op = MutationOp::kUpdate;
      record->idempotency_key = req.idempotency_key;
      record->object = req.object;
      record->add_keywords = std::move(req.add_keywords);
      record->remove_keywords = std::move(req.remove_keywords);
      *fence_epoch = req.fence_epoch;
      return true;
    }
    default:
      break;
  }
  metrics_.requests_unsupported.fetch_add(1, std::memory_order_relaxed);
  *error_response =
      EncodeErrorResponse(StatusCode::kUnsupported, "not a mutation opcode");
  return false;
}

void Server::ProcessMutation(Request& request) {
  const FrameHeader& header = request.header;
  const Opcode opcode = header.opcode;
  const Clock::time_point exec_start = Clock::now();
  std::vector<std::uint8_t> response;
  bool ok = false;
  bool need_sync = false;
  MutationReply result;
  MutationRecord record;
  std::uint64_t fence_epoch = 0;
  try {
    if (DecodeMutationRequest(request, &record, &fence_epoch, &response)) {
      // The logged form is canonical: a record the log codec would reject
      // (oversized name / keyword list) is refused here, so replay never
      // meets a record it cannot decode.
      const std::vector<std::uint8_t> payload = EncodeMutationRecord(record);
      MutationRecord canonical;
      if (fence_epoch > primary_epoch_.load(std::memory_order_acquire)) {
        // The client has seen a newer primary: this server was promoted
        // away from. Latch the fence so every later write (keyed or not)
        // is rejected inline before reaching here.
        ObserveFencedEpoch(fence_epoch);
        metrics_.requests_stale_epoch.fetch_add(1,
                                                std::memory_order_relaxed);
        response = EncodeErrorResponse(
            StatusCode::kStaleEpoch,
            "fenced: a newer primary epoch " +
                std::to_string(fence_epoch) + " has been observed");
      } else if (!DecodeMutationRecord(payload, &canonical)) {
        metrics_.requests_bad_query.fetch_add(1, std::memory_order_relaxed);
        response = EncodeErrorResponse(StatusCode::kBadQuery,
                                       "mutation exceeds size limits");
      } else {
        std::lock_guard<std::mutex> guard(mutation_mutex_);
        const IdempotencyCache::Result* seen =
            idempotency_.Find(record.idempotency_key);
        if (record.idempotency_key != 0) {
          (seen != nullptr ? metrics_.idempotency_cache_hits
                           : metrics_.idempotency_cache_misses)
              .fetch_add(1, std::memory_order_relaxed);
        }
        std::string why;
        if (seen != nullptr) {
          // Retry of an already-applied (and already-durable) mutation:
          // answer with the original result, apply nothing.
          result.sequence = seen->sequence;
          result.object = seen->object;
          ok = true;
        } else if (!ValidateMutation(service_, record, &why)) {
          metrics_.requests_bad_query.fetch_add(1,
                                                std::memory_order_relaxed);
          response = EncodeErrorResponse(StatusCode::kBadQuery, why);
        } else {
          const std::uint64_t sequence = oplog_.Append(payload);
          if (sequence == 0) {
            metrics_.requests_internal_error.fetch_add(
                1, std::memory_order_relaxed);
            response = EncodeErrorResponse(StatusCode::kInternal,
                                           "op log append failed");
          } else {
            ObjectId object = kInvalidObject;
            {
              // The only instant queries wait on a mutation: the
              // in-memory apply. The fsync happens outside the window
              // (and outside mutation_mutex_).
              const EpochGate::ApplyGuard apply(gate_);
              object = ApplyMutationRecord(service_, record);
            }
            applied_sequence_.store(sequence, std::memory_order_release);
            idempotency_.Remember(record.idempotency_key,
                                  {sequence, object});
            metrics_.mutations_applied.fetch_add(1,
                                                 std::memory_order_relaxed);
            result.sequence = sequence;
            result.object = object;
            ok = true;
            need_sync = true;
          }
        }
      }
    }
  } catch (const std::exception& e) {
    // Validation should make the apply infallible; anything that still
    // escapes (allocation failure) is an internal error.
    metrics_.requests_internal_error.fetch_add(1, std::memory_order_relaxed);
    response = EncodeErrorResponse(StatusCode::kInternal, e.what());
    ok = false;
    need_sync = false;
  }
  // Group-committed durability barrier, outside mutation_mutex_ so
  // concurrent mutations append while this one fsyncs (one fsync covers
  // every record appended before it started).
  if (need_sync && !oplog_.Sync()) {
    // Applied in memory but not durable: refuse the acknowledgement.
    metrics_.requests_internal_error.fetch_add(1, std::memory_order_relaxed);
    response =
        EncodeErrorResponse(StatusCode::kInternal, "op log sync failed");
    ok = false;
  }
  if (ok) {
    // The ack carries the primary's epoch, so failover clients learn the
    // newest epoch from every write.
    result.primary_epoch = PrimaryEpoch();
    response = EncodeMutationResponse(result);
    metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
    const auto micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - request.admitted_at)
            .count());
    metrics_.update_latency.Record(micros, request.trace.trace_id);
  }
  MirrorOplogMetrics();
  const StatusCode final_status =
      response.empty() ? StatusCode::kInternal
                       : static_cast<StatusCode>(response[0]);
  const Clock::time_point respond_start = Clock::now();
  Respond(request.conn, header, std::move(response));
  SpanRecord span;
  span.trace_id = request.trace.trace_id;
  span.parent_span_id = request.trace.parent_span_id;
  span.span_id = recorder_.NextSpanId();
  span.opcode = static_cast<std::uint8_t>(opcode);
  span.status = static_cast<std::uint8_t>(final_status);
  span.queue_us = request.queue_us;
  span.execute_us = static_cast<std::uint32_t>(std::min<std::int64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(respond_start -
                                                            exec_start)
          .count(),
      UINT32_MAX));
  span.reply_us = static_cast<std::uint32_t>(std::min<std::int64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            respond_start)
          .count(),
      UINT32_MAX));
  recorder_.RecordSpan(span);
}

void Server::ProcessPromote(Request& request) {
  const FrameHeader& header = request.header;
  PromoteRequest promote;
  if (!DecodePromoteRequest(request.payload, &promote)) {
    metrics_.requests_malformed_payload.fetch_add(1,
                                                  std::memory_order_relaxed);
    Respond(request.conn, header,
            EncodeErrorResponse(StatusCode::kMalformedPayload,
                                "bad promote payload"));
    return;
  }
  if (Role() == ServerRole::kPrimary) {
    // Idempotent: a retried (or misdirected) PROMOTE on a primary reports
    // the standing epoch instead of minting a new one.
    PromoteReply reply;
    reply.epoch = PrimaryEpoch();
    reply.applied_sequence = AppliedSequence();
    reply.role = static_cast<std::uint8_t>(ServerRole::kPrimary);
    metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
    Respond(request.conn, header, EncodePromoteResponse(reply));
    return;
  }
  if (promote.min_applied_sequence > 0 &&
      AppliedSequence() < promote.min_applied_sequence) {
    metrics_.requests_bad_query.fetch_add(1, std::memory_order_relaxed);
    Respond(request.conn, header,
            EncodeErrorResponse(
                StatusCode::kBadQuery,
                "applied sequence " + std::to_string(AppliedSequence()) +
                    " is below required " +
                    std::to_string(promote.min_applied_sequence)));
    return;
  }
  // Stop tailing the old primary BEFORE taking mutation_mutex_: the
  // replicator's poll thread takes that mutex inside
  // ApplyReplicatedMutations, so stopping it under the lock would
  // deadlock. After this point nothing else advances the applied state.
  if (replicator_ != nullptr) replicator_->Stop();

  std::vector<std::uint8_t> response;
  bool need_sync = false;
  PromoteReply reply;
  {
    std::lock_guard<std::mutex> guard(mutation_mutex_);
    // Jump past any epoch ever observed, so the new reign is strictly
    // newer than both our old primary's and any concurrent claimant a
    // client has fenced us with.
    const std::uint64_t new_epoch =
        std::max(primary_epoch_.load(std::memory_order_relaxed),
                 fenced_epoch_.load(std::memory_order_relaxed)) +
        1;
    MutationRecord record;
    record.op = MutationOp::kEpochTransition;
    record.epoch = new_epoch;
    const std::uint64_t sequence = oplog_.Append(EncodeMutationRecord(record));
    if (sequence == 0) {
      metrics_.requests_internal_error.fetch_add(1,
                                                 std::memory_order_relaxed);
      response =
          EncodeErrorResponse(StatusCode::kInternal, "op log append failed");
    } else {
      // The epoch record's sequence IS the boundary: the first sequence
      // of the new reign. A demoted ex-primary whose applied position
      // reaches it has diverged and must truncate (docs/persistence.md).
      applied_sequence_.store(sequence, std::memory_order_release);
      epoch_boundary_.store(sequence, std::memory_order_release);
      primary_epoch_.store(new_epoch, std::memory_order_release);
      role_.store(ServerRole::kPrimary, std::memory_order_release);
      metrics_.promotions.fetch_add(1, std::memory_order_relaxed);
      metrics_.primary_epoch.store(new_epoch, std::memory_order_relaxed);
      recorder_.RecordEvent(DiagEvent::kPromote, new_epoch, sequence);
      PersistEpochStateLocked();
      reply.epoch = new_epoch;
      reply.applied_sequence = sequence;
      reply.role = static_cast<std::uint8_t>(ServerRole::kPrimary);
      need_sync = true;
    }
  }
  if (need_sync) {
    if (!oplog_.Sync()) {
      // The flip happened but the epoch record is not durable; refuse the
      // acknowledgement. A retry lands in the already-primary path and
      // reports the standing epoch.
      metrics_.requests_internal_error.fetch_add(1,
                                                 std::memory_order_relaxed);
      response =
          EncodeErrorResponse(StatusCode::kInternal, "op log sync failed");
    } else {
      metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
      response = EncodePromoteResponse(reply);
    }
  }
  MirrorOplogMetrics();
  Respond(request.conn, header, std::move(response));
}

// ----- Epoch fencing --------------------------------------------------------

void Server::ObserveFencedEpoch(std::uint64_t epoch) {
  std::uint64_t current = fenced_epoch_.load(std::memory_order_relaxed);
  bool raised = false;
  while (epoch > current) {
    if (fenced_epoch_.compare_exchange_weak(current, epoch,
                                            std::memory_order_acq_rel)) {
      raised = true;
      break;
    }
  }
  if (raised) {
    // Journal the fencing: the one-line answer to "why did this primary
    // start rejecting writes?" in a post-incident DUMP_DIAG.
    recorder_.RecordEvent(DiagEvent::kStaleEpochFence, epoch,
                          primary_epoch_.load(std::memory_order_acquire));
  }
}

void Server::AdoptEpoch(std::uint64_t epoch, std::uint64_t boundary) {
  std::lock_guard<std::mutex> guard(mutation_mutex_);
  AdoptEpochLocked(epoch, boundary);
}

void Server::AdoptEpochLocked(std::uint64_t epoch, std::uint64_t boundary) {
  if (epoch <= primary_epoch_.load(std::memory_order_relaxed)) return;
  primary_epoch_.store(epoch, std::memory_order_release);
  if (boundary != 0) {
    epoch_boundary_.store(boundary, std::memory_order_release);
  }
  metrics_.primary_epoch.store(epoch, std::memory_order_relaxed);
  PersistEpochStateLocked();
}

std::size_t Server::QuarantineDivergentOplog(std::uint64_t boundary) {
  std::string path;
  const std::size_t preserved = oplog_.QuarantineTail(boundary, &path);
  if (preserved == static_cast<std::size_t>(-1)) {
    std::fprintf(stderr,
                 "oplog: quarantine of records >= %llu failed; the "
                 "divergent tail will be lost to the snapshot install\n",
                 static_cast<unsigned long long>(boundary));
    return 0;
  }
  if (preserved > 0) {
    metrics_.oplog_quarantined_records.fetch_add(preserved,
                                                 std::memory_order_relaxed);
    std::fprintf(stderr,
                 "oplog: preserved %zu divergent record(s) at sequence >= "
                 "%llu to %s\n",
                 preserved, static_cast<unsigned long long>(boundary),
                 path.c_str());
  }
  // The catalog already has the divergent records applied and there is no
  // in-memory undo, so the positions it advertises are lies. Zero them:
  // the next poll then fetches the new primary's snapshot and the install
  // replaces the catalog wholesale (and Reset()s the log), which is the
  // actual repair.
  {
    std::lock_guard<std::mutex> guard(mutation_mutex_);
    applied_sequence_.store(0, std::memory_order_release);
    snapshot_sequence_.store(0, std::memory_order_relaxed);
  }
  return preserved;
}

std::string Server::EpochStateDir() const {
  if (oplog_.Enabled()) return oplog_.Dir();
  return options_.snapshot.dir;
}

void Server::PersistEpochStateLocked() {
  const std::string dir = EpochStateDir();
  if (dir.empty()) return;
  const std::string path =
      (std::filesystem::path(dir) / "primary-epoch").string();
  try {
    std::filesystem::create_directories(dir);
    io::WriteFileAtomically(path, [&](std::ostream& out) {
      out << primary_epoch_.load(std::memory_order_relaxed) << ' '
          << epoch_boundary_.load(std::memory_order_relaxed) << '\n';
      if (!out) throw io::SerializationError("short epoch sidecar write");
    });
  } catch (const std::exception& e) {
    // Non-fatal: the epoch also lives in the log until truncation.
    std::fprintf(stderr, "epoch: cannot persist %s: %s\n", path.c_str(),
                 e.what());
  }
}

void Server::LoadEpochState() {
  const std::string dir = EpochStateDir();
  if (dir.empty()) return;
  std::ifstream in(std::filesystem::path(dir) / "primary-epoch");
  std::uint64_t epoch = 0;
  std::uint64_t boundary = 0;
  if (!(in >> epoch)) return;  // Missing or unreadable: epoch 0.
  in >> boundary;
  primary_epoch_.store(epoch, std::memory_order_relaxed);
  epoch_boundary_.store(boundary, std::memory_order_relaxed);
}

std::vector<std::uint8_t> Server::HandleFetchOplog(
    const FetchOplogRequest& fetch) {
  // A fetcher that has seen a newer epoch fences us exactly like a
  // write-path client would.
  if (fetch.requester_epoch > primary_epoch_.load(std::memory_order_acquire)) {
    ObserveFencedEpoch(fetch.requester_epoch);
  }
  if (!oplog_.Enabled()) {
    // No durable log (no --oplog-dir): replicas must use snapshots.
    return EncodeErrorResponse(StatusCode::kUnsupported, "op log disabled");
  }
  const std::uint32_t max_bytes =
      fetch.max_bytes == 0
          ? kMaxSnapshotChunkBytes
          : std::min(fetch.max_bytes, kMaxSnapshotChunkBytes);
  std::vector<OplogRecord> records;
  bool truncated = false;
  if (!oplog_.ReadRange(fetch.from_sequence, max_bytes, &records,
                        &truncated)) {
    return EncodeErrorResponse(StatusCode::kInternal, "op log read failed");
  }
  OplogChunk chunk;
  chunk.truncated = truncated ? 1 : 0;
  chunk.last_sequence = oplog_.LastSequence();
  chunk.oldest_sequence = oplog_.OldestSequence();
  chunk.primary_epoch = PrimaryEpoch();
  chunk.epoch_boundary_sequence =
      epoch_boundary_.load(std::memory_order_acquire);
  chunk.records.reserve(records.size());
  for (OplogRecord& record : records) {
    OplogWireRecord wire;
    wire.sequence = record.sequence;
    wire.payload.assign(record.payload.begin(), record.payload.end());
    chunk.records.push_back(std::move(wire));
  }
  return EncodeOplogChunkResponse(chunk);
}

void Server::MirrorOplogMetrics() {
  metrics_.oplog_appends.store(oplog_.Appends(), std::memory_order_relaxed);
  metrics_.oplog_fsync_batches.store(oplog_.FsyncBatches(),
                                     std::memory_order_relaxed);
}

bool Server::ApplyReplicatedMutations(
    const std::vector<OplogWireRecord>& records, std::string* error) {
  bool appended = false;
  {
    std::lock_guard<std::mutex> guard(mutation_mutex_);
    for (const OplogWireRecord& wire : records) {
      const std::uint64_t applied =
          applied_sequence_.load(std::memory_order_relaxed);
      if (wire.sequence <= applied) continue;  // Duplicate from a retry.
      if (wire.sequence != applied + 1) {
        *error = "sequence gap: applied " + std::to_string(applied) +
                 ", got " + std::to_string(wire.sequence);
        return false;
      }
      const auto* data =
          reinterpret_cast<const std::uint8_t*>(wire.payload.data());
      const std::span<const std::uint8_t> payload{data, wire.payload.size()};
      MutationRecord record;
      if (!DecodeMutationRecord(payload, &record)) {
        *error = "undecodable mutation record at sequence " +
                 std::to_string(wire.sequence);
        return false;
      }
      // Mirror into the local log first (the explicit sequence keeps the
      // replica's log byte-identical to the primary's), then apply.
      if (oplog_.Append(payload, wire.sequence) == 0) {
        *error = "op log append failed at sequence " +
                 std::to_string(wire.sequence);
        return false;
      }
      appended = true;
      if (record.op == MutationOp::kEpochTransition) {
        // The primary's reign change, streamed in-band: adopt the epoch
        // (and its boundary — this very sequence) without touching the
        // catalog.
        applied_sequence_.store(wire.sequence, std::memory_order_release);
        AdoptEpochLocked(record.epoch, wire.sequence);
        continue;
      }
      try {
        const EpochGate::ApplyGuard apply(gate_);
        ApplyMutationRecord(service_, record);
      } catch (const std::exception& e) {
        // The primary validated this record against the same state, so
        // this indicates divergence; the replicator falls back to a
        // snapshot transfer, which resets the log past this record.
        *error = "apply failed at sequence " +
                 std::to_string(wire.sequence) + ": " + e.what();
        return false;
      }
      applied_sequence_.store(wire.sequence, std::memory_order_release);
      metrics_.mutations_applied.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (appended && !oplog_.Sync()) {
    *error = "op log sync failed";
    return false;
  }
  MirrorOplogMetrics();
  return true;
}

// ----- Replication ---------------------------------------------------------

std::vector<std::uint8_t> Server::BuildHealthResponse() {
  HealthInfo info;
  const ServerRole role = Role();  // Dynamic: PROMOTE flips it at runtime.
  info.role = static_cast<std::uint8_t>(role);
  info.snapshot_sequence = SnapshotSequence();
  info.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start_time_)
          .count());
  info.queue_depth = queue_->Size();
  info.applied_sequence = AppliedSequence();
  info.primary_epoch = PrimaryEpoch();
  if (role == ServerRole::kReplica) {
    info.primary_address = options_.replication.primary.ToString();
  }
  return EncodeHealthResponse(info);
}

std::vector<std::uint8_t> Server::HandleFetchSnapshot(
    const FetchSnapshotRequest& fetch) {
  const std::string& dir = options_.snapshot.dir;
  std::uint64_t sequence = fetch.sequence;
  std::string path;
  std::uint64_t total = 0;
  try {
    if (fetch.offset == 0 && sequence == 0) {
      // Start of a "newest valid" transfer: walk newest-first and pin the
      // first snapshot that passes full validation, so a corrupt newest
      // file is skipped rather than shipped.
      for (const auto& [seq, candidate] : io::FindSnapshots(dir)) {
        try {
          total = io::ValidateSnapshotFile(candidate);
          sequence = seq;
          path = candidate;
          break;
        } catch (const io::SerializationError&) {
          // Damaged; try the next-newest.
        }
      }
      if (path.empty()) {
        return EncodeErrorResponse(StatusCode::kBadQuery,
                                   "no valid snapshot available");
      }
    } else if (sequence == 0) {
      return EncodeErrorResponse(
          StatusCode::kBadQuery,
          "nonzero offset requires an explicit sequence");
    } else {
      path = (std::filesystem::path(dir) / io::SnapshotFileName(sequence))
                 .string();
      if (fetch.offset == 0) {
        // Explicit-sequence transfers validate once up front too.
        total = io::ValidateSnapshotFile(path);
      } else {
        // Later chunks are plain range reads; the fetcher verifies the
        // assembled image end-to-end. A pruned file surfaces here as a
        // clean BAD_QUERY and the fetcher restarts from the newest.
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (ec) {
          return EncodeErrorResponse(
              StatusCode::kBadQuery,
              "snapshot " + std::to_string(sequence) + " no longer exists");
        }
        total = size;
      }
    }
    if (fetch.offset > total) {
      return EncodeErrorResponse(StatusCode::kBadQuery,
                                 "offset beyond snapshot end");
    }
    const std::uint32_t max_bytes =
        fetch.max_bytes == 0
            ? kMaxSnapshotChunkBytes
            : std::min(fetch.max_bytes, kMaxSnapshotChunkBytes);
    SnapshotChunk chunk;
    chunk.sequence = sequence;
    chunk.total_size = total;
    chunk.offset = fetch.offset;
    chunk.bytes = io::ReadFileRange(path, fetch.offset, max_bytes);
    metrics_.snapshot_chunks_served.fetch_add(1, std::memory_order_relaxed);
    return EncodeSnapshotChunkResponse(chunk);
  } catch (const io::SerializationError& e) {
    return EncodeErrorResponse(StatusCode::kBadQuery, e.what());
  }
}

bool Server::InstallReplicaSnapshot(std::uint64_t sequence,
                                    const std::string& bytes,
                                    std::string* error) {
  try {
    // 1. Validate and load the image OFF the serving path — full container
    // checks plus the graph-identity check against the serving graph (the
    // graph reference never changes across RestoreCatalog, so reading it
    // needs no lock). Reads keep being served from the old state.
    const Graph* serving_graph = &service_.Engine().NetworkGraph();
    RestoredServiceState state =
        ReadServiceSnapshotBytes(bytes, serving_graph);

    // 2. Persist the verified image locally (crash-safe), so a replica
    // restart restores from disk instead of re-fetching.
    if (!options_.snapshot.dir.empty()) {
      std::filesystem::create_directories(options_.snapshot.dir);
      const std::string path = (std::filesystem::path(options_.snapshot.dir) /
                                io::SnapshotFileName(sequence))
                                   .string();
      io::WriteFileAtomically(path, [&](std::ostream& out) {
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out) throw io::SerializationError("short snapshot write");
      });
    }

    // 3. Swap the serving catalog inside an apply window — the same path
    // RELOAD takes: queries drain for the swap itself, nothing else.
    {
      std::lock_guard<std::mutex> guard(mutation_mutex_);
      {
        const EpochGate::ApplyGuard apply(gate_);
        service_.RestoreCatalog(std::move(state.catalog.vocabulary),
                                std::move(state.catalog.names),
                                std::move(state.store), std::move(state.alt),
                                std::move(state.keyword_index),
                                options_.snapshot.engine_options);
      }
      snapshot_sequence_.store(sequence, std::memory_order_relaxed);
      // The snapshot carries its applied mutation position; jump there and
      // restart the local log (a dense log cannot represent the gap).
      applied_sequence_.store(state.applied_mutation_sequence,
                              std::memory_order_release);
      if (!oplog_.Reset(state.applied_mutation_sequence + 1)) {
        std::fprintf(stderr,
                     "oplog: reset after snapshot install failed; "
                     "log tailing disabled until restart\n");
      }
    }
    if (!options_.snapshot.dir.empty()) {
      io::PruneSnapshots(options_.snapshot.dir, options_.snapshot.keep);
    }
    recorder_.RecordEvent(DiagEvent::kSnapshotRestored, sequence);
    return true;
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
}

// ----- Persistence ---------------------------------------------------------

std::pair<std::uint64_t, std::string> Server::SnapshotNow() {
  std::lock_guard<std::mutex> guard(mutation_mutex_);
  return SnapshotLocked();
}

std::pair<std::uint64_t, std::string> Server::SnapshotLocked() {
  const std::string& dir = options_.snapshot.dir;
  if (dir.empty()) {
    throw std::logic_error("SnapshotLocked: no snapshot directory");
  }
  try {
    std::filesystem::create_directories(dir);
    const auto existing = io::FindSnapshots(dir);
    const std::uint64_t sequence =
        existing.empty() ? 1 : existing.front().first + 1;
    const std::string path =
        (std::filesystem::path(dir) / io::SnapshotFileName(sequence))
            .string();
    // mutation_mutex_ (held by the caller) excludes writers, so the state
    // and its applied position are mutually consistent for the whole
    // write; queries keep flowing (they never change state).
    const std::uint64_t applied =
        applied_sequence_.load(std::memory_order_relaxed);
    WriteServiceSnapshotFile(
        path, service_,
        {options_.snapshot.ch, options_.snapshot.hl, applied});
    io::PruneSnapshots(dir, options_.snapshot.keep);
    metrics_.snapshots_written.fetch_add(1, std::memory_order_relaxed);
    snapshot_sequence_.store(sequence, std::memory_order_relaxed);
    recorder_.RecordEvent(DiagEvent::kSnapshotWritten, sequence, applied);
    // Everything up to `applied` is now in the snapshot; sealed log
    // segments it covers can go (the active segment stays for tailing).
    oplog_.TruncateThrough(applied);
    if (oplog_.Enabled()) {
      recorder_.RecordEvent(DiagEvent::kOplogRotated, applied);
    }
    return {sequence, path};
  } catch (...) {
    metrics_.snapshots_failed.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

std::vector<std::uint8_t> Server::HandleReloadLocked() {
  std::vector<std::string> errors;
  std::optional<LoadedServiceSnapshot> loaded = LoadNewestValidServiceSnapshot(
      options_.snapshot.dir, &service_.Engine().NetworkGraph(), &errors);
  if (!loaded.has_value()) {
    metrics_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
    std::string message = "no valid snapshot";
    for (const std::string& error : errors) {
      message += "; ";
      message += error;
    }
    return EncodeErrorResponse(StatusCode::kBadQuery, message);
  }
  try {
    const EpochGate::ApplyGuard apply(gate_);
    service_.RestoreCatalog(std::move(loaded->state.catalog.vocabulary),
                            std::move(loaded->state.catalog.names),
                            std::move(loaded->state.store),
                            std::move(loaded->state.alt),
                            std::move(loaded->state.keyword_index),
                            options_.snapshot.engine_options);
  } catch (...) {
    metrics_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
  metrics_.reloads_ok.fetch_add(1, std::memory_order_relaxed);
  snapshot_sequence_.store(loaded->sequence, std::memory_order_relaxed);
  recorder_.RecordEvent(DiagEvent::kSnapshotRestored, loaded->sequence);
  // RELOAD is an explicit rewind to the snapshot's state: the applied
  // position jumps back with it and the log restarts there — any records
  // past the snapshot are deliberately discarded.
  applied_sequence_.store(loaded->state.applied_mutation_sequence,
                          std::memory_order_release);
  if (!oplog_.Reset(loaded->state.applied_mutation_sequence + 1)) {
    std::fprintf(stderr, "oplog: reset after reload failed\n");
  }
  return EncodeSnapshotResponse(loaded->sequence, loaded->path);
}

void Server::SnapshotLoop() {
  std::unique_lock<std::mutex> lock(snapshot_cv_mutex_);
  for (;;) {
    const bool stop = snapshot_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.snapshot.period_ms),
        [this] { return snapshot_stop_; });
    if (stop) return;
    lock.unlock();
    {
      std::lock_guard<std::mutex> guard(mutation_mutex_);
      try {
        SnapshotLocked();
      } catch (const std::exception&) {
        // Counted by SnapshotLocked; keep serving, retry next period.
      }
    }
    lock.lock();
  }
}

}  // namespace kspin::server
