// Server-side observability: lock-free counters and a latency histogram,
// rendered as Prometheus 0.0.4 text by the METRICS opcode and read back by
// ParseMetricsText (docs/observability.md). Everything here is safe to
// update from the I/O thread and every worker concurrently.
#ifndef KSPIN_SERVER_METRICS_H_
#define KSPIN_SERVER_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kspin/query_processor.h"
#include "server/wire.h"

namespace kspin::server {

/// The nearest rank ⌈p·n⌉ of the p-quantile among n > 0 samples, clamped
/// into [1, n]. p is read to six decimal places and the rank computed in
/// integers, so 0.99 × 100 is rank 99, not 100. Every percentile here
/// (server histograms and parsed scrapes) goes through this one function.
std::uint64_t NearestRank(double p, std::uint64_t n);

/// A point-in-time copy of one histogram: every bucket, the count, and the
/// sum loaded exactly once (relaxed), so derived values (percentiles,
/// cumulative buckets) are all computed from the same self-consistent data
/// instead of re-reading live atomics per statistic.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 40;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_micros = 0;
  /// Per-bucket exemplars: the trace id (0 = none) and recorded value of
  /// a recent sample that landed in the bucket, so a p999 spike on a
  /// dashboard links straight to a flight-recorder span. Best-effort:
  /// the pair is written with two relaxed stores, so a torn read may mix
  /// two samples' fields — both still name real recent samples.
  std::array<std::uint64_t, kBuckets> exemplar_trace{};
  std::array<std::uint64_t, kBuckets> exemplar_value{};

  /// p in (0, 1]; upper bound of the bucket holding the sample of
  /// NearestRank(p, n), n the bucket total (0 when empty).
  std::uint64_t PercentileMicros(double p) const;
  /// Upper bound of bucket i in microseconds (2^(i+1)).
  static std::uint64_t BucketUpperMicros(std::size_t i) {
    return std::uint64_t{1} << (i + 1);
  }
};

/// Log2-bucketed latency histogram over microseconds: bucket i counts
/// samples in [2^i, 2^(i+1)) us (bucket 0 also takes 0; values past the
/// last bucket saturate into it). Percentiles are reported as the upper
/// bound of the containing bucket — at most 2x off, plenty for load
/// shedding and dashboards.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  void Record(std::uint64_t micros) { Record(micros, 0); }
  /// Records the sample and, when `trace_id` != 0, stamps it as the
  /// bucket's exemplar (last-writer-wins).
  void Record(std::uint64_t micros, std::uint64_t trace_id);

  std::uint64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// One consistent relaxed-load pass over all fields.
  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_micros_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> exemplar_trace_{};
  std::array<std::atomic<std::uint64_t>, kBuckets> exemplar_value_{};
};

/// One consistent view of all server metrics: the flat counter list (each
/// key rendered as the series `kspin_<key>`) plus raw histogram buckets,
/// taken in a single pass so one METRICS reply agrees with itself.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  HistogramSnapshot query_latency;
  HistogramSnapshot update_latency;
  HistogramSnapshot admission_sojourn;
};

/// All server counters. Field names are the METRICS series names without
/// their `kspin_` prefix.
class ServerMetrics {
 public:
  // Connection lifecycle.
  std::atomic<std::uint64_t> connections_opened{0};
  std::atomic<std::uint64_t> connections_closed{0};
  /// accept() failures from resource exhaustion (EMFILE/ENFILE/ENOBUFS/
  /// ENOMEM); each one also pauses accepting briefly.
  std::atomic<std::uint64_t> accept_errors{0};

  // Frame decoding.
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> frames_malformed{0};

  // Request outcomes.
  std::atomic<std::uint64_t> requests_ok{0};
  std::atomic<std::uint64_t> requests_bad_query{0};
  std::atomic<std::uint64_t> requests_malformed_payload{0};
  std::atomic<std::uint64_t> requests_unsupported{0};
  std::atomic<std::uint64_t> requests_internal_error{0};
  /// Shed at admission (queue full).
  std::atomic<std::uint64_t> requests_overloaded{0};
  /// Dropped at dequeue: deadline already passed before work started.
  std::atomic<std::uint64_t> requests_deadline_dropped{0};
  /// Aborted mid-query by the cooperative cancellation check.
  std::atomic<std::uint64_t> requests_deadline_cancelled{0};

  // Overload control (docs/protocol.md "Overload control & degradation").
  /// Rejected at admission: the deadline had already elapsed on arrival
  /// (never queued; distinct from requests_deadline_dropped).
  std::atomic<std::uint64_t> requests_deadline_rejected{0};
  /// Rejected by the adaptive (AIMD) admission limit — the soft bound
  /// below the hard queue capacity; requests_overloaded counts only the
  /// hard-capacity sheds.
  std::atomic<std::uint64_t> requests_admission_limited{0};
  /// Shed at dequeue by the CoDel sojourn check (queued too long while
  /// the queue stayed congested; failed fast instead of served stale).
  std::atomic<std::uint64_t> requests_codel_shed{0};
  /// Rejected by the per-connection token bucket.
  std::atomic<std::uint64_t> requests_rate_limited{0};
  /// Searches answered in brownout (degraded) mode.
  std::atomic<std::uint64_t> requests_degraded{0};
  /// Times brownout engaged.
  std::atomic<std::uint64_t> brownout_entries{0};
  /// Cumulative whole seconds spent browned out (counter).
  std::atomic<std::uint64_t> brownout_seconds{0};
  /// Gauge: 0 = normal, 1 = limited (AIMD limit below capacity),
  /// 2 = brownout.
  std::atomic<std::uint64_t> overload_state{0};
  /// Gauge: the admission queue's current adaptive limit.
  std::atomic<std::uint64_t> admission_limit{0};

  // Persistence.
  std::atomic<std::uint64_t> snapshots_written{0};
  std::atomic<std::uint64_t> snapshots_failed{0};
  std::atomic<std::uint64_t> reloads_ok{0};
  std::atomic<std::uint64_t> reloads_failed{0};

  // Mutation subsystem (docs/persistence.md, "The operation log").
  /// Records appended to the op log (mirrored from the Oplog writer).
  std::atomic<std::uint64_t> oplog_appends{0};
  /// fsync calls issued by group commit; appends / batches is the
  /// batching ratio.
  std::atomic<std::uint64_t> oplog_fsync_batches{0};
  /// Records replayed at boot (restore-snapshot-then-replay-tail).
  std::atomic<std::uint64_t> oplog_replay_records{0};
  /// Mutations applied to the serving state (wire, replay, or tailed from
  /// a primary).
  std::atomic<std::uint64_t> mutations_applied{0};
  /// Keyed-mutation retries answered from the idempotency cache vs fresh
  /// keyed mutations that missed it (key 0 counts neither).
  std::atomic<std::uint64_t> idempotency_cache_hits{0};
  std::atomic<std::uint64_t> idempotency_cache_misses{0};

  // Replication / failover.
  /// Writes rejected because this server is a replica.
  std::atomic<std::uint64_t> requests_not_primary{0};
  /// Writes rejected because this server is fenced (a higher primary
  /// epoch was observed).
  std::atomic<std::uint64_t> requests_stale_epoch{0};
  /// PROMOTE calls that flipped this server to primary.
  std::atomic<std::uint64_t> promotions{0};
  /// Gauge: this server's current primary epoch.
  std::atomic<std::uint64_t> primary_epoch{0};
  /// Divergent op-log records preserved to quarantine/ on rejoin.
  std::atomic<std::uint64_t> oplog_quarantined_records{0};
  /// FETCH_SNAPSHOT chunks served (primary side).
  std::atomic<std::uint64_t> snapshot_chunks_served{0};
  /// Replica-side poll loop (see Replicator): poll cycles started, cycles
  /// that failed before a verdict (connect/health error), whole-snapshot
  /// fetches, and install outcomes.
  std::atomic<std::uint64_t> replication_polls{0};
  std::atomic<std::uint64_t> replication_poll_errors{0};
  std::atomic<std::uint64_t> replication_fetches_ok{0};
  std::atomic<std::uint64_t> replication_fetches_failed{0};
  std::atomic<std::uint64_t> replication_installs_ok{0};
  std::atomic<std::uint64_t> replication_installs_rejected{0};
  /// Gauges: last installed sequence and primary-minus-local sequence gap.
  std::atomic<std::uint64_t> replication_last_sequence{0};
  std::atomic<std::uint64_t> replication_sequence_delta{0};
  /// steady_clock ms timestamp of the last poll that confirmed the replica
  /// in sync (or installed a snapshot / applied tailed records); 0 =
  /// never. FullSnapshot derives replication_lag_ms from it.
  std::atomic<std::uint64_t> replication_last_success_ms{0};
  /// Gauge: how the replica last converged — 0 = snapshot transfer,
  /// 1 = op-log tailing. Stays 0 until the first convergence.
  std::atomic<std::uint64_t> replication_source{0};
  /// Op-log records applied via tailing (replica side).
  std::atomic<std::uint64_t> replication_oplog_records{0};

  // Connection hardening (reasons the I/O thread force-closed a peer).
  /// No bytes in either direction for idle_timeout_ms.
  std::atomic<std::uint64_t> connections_reaped_idle{0};
  /// A partial frame sat unfinished past read_deadline_ms (slow-loris).
  std::atomic<std::uint64_t> connections_reaped_slow{0};
  /// The response backlog exceeded max_write_queue_bytes (peer not
  /// reading; unbounded buffering refused).
  std::atomic<std::uint64_t> connections_reaped_backpressure{0};

  // Engine cost drivers (docs/observability.md): per-query QueryStats
  // folded in once per executed search via AddQueryStats — the query loop
  // itself only bumps plain integers.
  std::atomic<std::uint64_t> engine_heap_pops{0};
  std::atomic<std::uint64_t> engine_lower_bounds{0};
  /// Inverted-heap flushes and candidates priced across them
  /// (docs/performance.md). items / calls = mean frontier per flush.
  std::atomic<std::uint64_t> engine_lb_batch_calls{0};
  std::atomic<std::uint64_t> engine_lb_batch_items{0};
  std::atomic<std::uint64_t> engine_distance_computations{0};
  std::atomic<std::uint64_t> engine_false_positive_distances{0};
  std::atomic<std::uint64_t> engine_candidates_pruned_lb{0};
  std::atomic<std::uint64_t> engine_heaps_created{0};
  std::atomic<std::uint64_t> engine_heap_insertions{0};
  std::atomic<std::uint64_t> engine_results_returned{0};
  std::atomic<std::uint64_t> engine_heap_build_ns{0};
  std::atomic<std::uint64_t> engine_search_ns{0};

  // Tracing / slow-query log (kspin_server --trace / --slow-query-ms).
  std::atomic<std::uint64_t> slow_queries{0};
  std::atomic<std::uint64_t> traces_emitted{0};
  std::atomic<std::uint64_t> trace_rotations{0};

  /// Requests by opcode, one slot per kOpcodeTable row (series
  /// `kspin_opcode_<name>`).
  std::array<std::atomic<std::uint64_t>, kNumOpcodes> requests_by_opcode{};

  /// Queue depth high-watermark (the live depth is sampled per scrape).
  std::atomic<std::uint64_t> queue_depth_peak{0};

  /// End-to-end latency (admission to response encoded) of executed
  /// requests, by class.
  LatencyHistogram query_latency;   ///< kSearchBoolean / kSearchRanked.
  LatencyHistogram update_latency;  ///< Every other admitted opcode.
  /// Time requests spent queued (push to pop), microseconds.
  LatencyHistogram admission_sojourn;

  /// Counts one request of the opcode in table row `row`.
  void CountOpcode(const OpcodeInfo& row) {
    requests_by_opcode[static_cast<std::size_t>(&row - kOpcodeTable)]
        .fetch_add(1, std::memory_order_relaxed);
  }

  void RecordQueueDepth(std::size_t depth);

  /// Folds one query's engine counters into the aggregates (a handful of
  /// relaxed fetch_adds, once per query).
  void AddQueryStats(const QueryStats& stats);

  /// One consistent snapshot of every counter and the histograms, taken
  /// in a single relaxed-load pass, `current_queue_depth` sampled by the
  /// caller. A METRICS reply is rendered entirely from this. Keys are
  /// stable; tests and dashboards may rely on them (docs/protocol.md).
  MetricsSnapshot FullSnapshot(std::size_t current_queue_depth) const;
};

/// Renders a snapshot as Prometheus text exposition format 0.0.4: one
/// `kspin_`-prefixed family per counter, plus native histograms with
/// cumulative `le` buckets for query/update latency (docs/observability.md
/// shows a scrape). Also emits `kspin_build_info` (version / git sha /
/// protocol labels) and process gauges (RSS bytes, open fds, uptime
/// seconds) read from /proc, and OpenMetrics-style `# {trace_id="..."}`
/// exemplars on query-latency buckets that have one.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// One histogram family read back from METRICS text.
struct ParsedHistogram {
  /// Finite `le` bounds in rendered order, each with its cumulative count.
  /// The renderer stops at the first bucket that holds every sample.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  std::uint64_t sum = 0;
  std::uint64_t count = 0;

  /// Samples at or below bound `le`. A bound past the rendered tail holds
  /// every sample, so it reads `count`.
  std::uint64_t CumulativeAt(std::uint64_t le) const;
  /// The samples recorded between `earlier` (a previous scrape of the same
  /// family) and this scrape.
  ParsedHistogram Since(const ParsedHistogram& earlier) const;
  /// p in (0, 1]; the `le` bound of the bucket holding the sample of
  /// NearestRank(p, n), n the lesser of `count` and the last bucket's
  /// cumulative count (0 when empty).
  std::uint64_t Percentile(double p) const;
};

/// METRICS text parsed back: the exact inverse of RenderPrometheusText.
struct ParsedMetrics {
  struct Sample {
    std::string series;  ///< "name" or "name{labels}", as rendered.
    std::string type;    ///< Its family's # TYPE: counter, gauge, histogram.
    std::uint64_t value = 0;
  };
  std::vector<Sample> samples;  ///< Every sample line, in text order.
  /// Each histogram family's buckets, `_sum` and `_count`, by family name.
  std::map<std::string, ParsedHistogram> histograms;

  /// Value of the sample `series`; throws std::out_of_range when absent.
  std::uint64_t Value(std::string_view series) const;
};

/// Parses Prometheus text as RenderPrometheusText writes it: every sample
/// follows the `# TYPE` line of its family, values are u64, and exemplar
/// suffixes (` # {...} v`) are skipped. Throws std::invalid_argument naming
/// the first malformed line; nothing is skipped silently.
ParsedMetrics ParseMetricsText(std::string_view text);

}  // namespace kspin::server

#endif  // KSPIN_SERVER_METRICS_H_
