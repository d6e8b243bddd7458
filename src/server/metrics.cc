#include "server/metrics.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace kspin::server {

std::uint64_t NearestRank(double p, std::uint64_t n) {
  constexpr std::uint64_t kMillion = 1'000'000;
  const auto ppm = static_cast<std::uint64_t>(
      std::llround(std::clamp(p, 0.0, 1.0) * static_cast<double>(kMillion)));
  // ⌈ppm·n / 10^6⌉ with n split at 10^6, so no product overflows.
  const std::uint64_t rank = ppm * (n / kMillion) +
                             (ppm * (n % kMillion) + kMillion - 1) / kMillion;
  return std::min(std::max<std::uint64_t>(rank, 1), n);
}

void LatencyHistogram::Record(std::uint64_t micros,
                              std::uint64_t trace_id) {
  const std::size_t bucket =
      micros == 0
          ? 0
          : std::min<std::size_t>(kBuckets - 1, std::bit_width(micros) - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  if (trace_id != 0) {
    exemplar_trace_[bucket].store(trace_id, std::memory_order_relaxed);
    exemplar_value_[bucket].store(micros, std::memory_order_relaxed);
  }
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.exemplar_trace[i] =
        exemplar_trace_[i].load(std::memory_order_relaxed);
    snap.exemplar_value[i] =
        exemplar_value_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_micros = sum_micros_.load(std::memory_order_relaxed);
  return snap;
}

std::uint64_t HistogramSnapshot::PercentileMicros(double p) const {
  // The rank is taken over the buckets, not `count`: Snapshot loads the
  // buckets before the count, so a Record in flight can leave the two one
  // apart, and a rank past the buckets would read the last bound, 2^40.
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  const std::uint64_t rank = NearestRank(p, total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return BucketUpperMicros(i);
  }
  return BucketUpperMicros(kBuckets - 1);
}

void ServerMetrics::RecordQueueDepth(std::size_t depth) {
  std::uint64_t peak = queue_depth_peak.load(std::memory_order_relaxed);
  while (depth > peak && !queue_depth_peak.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
}

void ServerMetrics::AddQueryStats(const QueryStats& stats) {
  const auto add = [](std::atomic<std::uint64_t>& a, std::uint64_t delta) {
    if (delta != 0) a.fetch_add(delta, std::memory_order_relaxed);
  };
  add(engine_heap_pops, stats.candidates_extracted);
  add(engine_lower_bounds, stats.lower_bounds_computed);
  add(engine_lb_batch_calls, stats.lb_batch_calls);
  add(engine_lb_batch_items, stats.lb_batch_items);
  add(engine_distance_computations, stats.network_distance_computations);
  add(engine_false_positive_distances, stats.false_positive_distances);
  add(engine_candidates_pruned_lb, stats.candidates_pruned_lb);
  add(engine_heaps_created, stats.heaps_created);
  add(engine_heap_insertions, stats.heap_insertions);
  add(engine_results_returned, stats.results_returned);
  add(engine_heap_build_ns, stats.heap_build_ns);
  add(engine_search_ns, stats.search_ns);
}

MetricsSnapshot ServerMetrics::FullSnapshot(
    std::size_t current_queue_depth) const {
  auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  MetricsSnapshot snap;
  snap.counters = {
      {"connections_opened", load(connections_opened)},
      {"connections_closed", load(connections_closed)},
      {"accept_errors", load(accept_errors)},
      {"frames_received", load(frames_received)},
      {"frames_malformed", load(frames_malformed)},
      {"requests_ok", load(requests_ok)},
      {"requests_bad_query", load(requests_bad_query)},
      {"requests_malformed_payload", load(requests_malformed_payload)},
      {"requests_unsupported", load(requests_unsupported)},
      {"requests_internal_error", load(requests_internal_error)},
      {"requests_overloaded", load(requests_overloaded)},
      {"requests_deadline_dropped", load(requests_deadline_dropped)},
      {"requests_deadline_cancelled", load(requests_deadline_cancelled)},
      {"requests_deadline_rejected", load(requests_deadline_rejected)},
      {"requests_admission_limited", load(requests_admission_limited)},
      {"requests_codel_shed", load(requests_codel_shed)},
      {"requests_rate_limited", load(requests_rate_limited)},
      {"requests_degraded", load(requests_degraded)},
      {"brownout_entries", load(brownout_entries)},
      {"brownout_seconds", load(brownout_seconds)},
      {"overload_state", load(overload_state)},
      {"admission_limit", load(admission_limit)},
      {"snapshots_written", load(snapshots_written)},
      {"snapshots_failed", load(snapshots_failed)},
      {"reloads_ok", load(reloads_ok)},
      {"reloads_failed", load(reloads_failed)},
      {"oplog_appends", load(oplog_appends)},
      {"oplog_fsync_batches", load(oplog_fsync_batches)},
      {"oplog_replay_records", load(oplog_replay_records)},
      {"mutations_applied", load(mutations_applied)},
      {"idempotency_cache_hits", load(idempotency_cache_hits)},
      {"idempotency_cache_misses", load(idempotency_cache_misses)},
      {"requests_not_primary", load(requests_not_primary)},
      {"requests_stale_epoch", load(requests_stale_epoch)},
      {"promotions", load(promotions)},
      {"primary_epoch", load(primary_epoch)},
      {"oplog_quarantined_records", load(oplog_quarantined_records)},
      {"snapshot_chunks_served", load(snapshot_chunks_served)},
      {"replication_polls", load(replication_polls)},
      {"replication_poll_errors", load(replication_poll_errors)},
      {"replication_fetches_ok", load(replication_fetches_ok)},
      {"replication_fetches_failed", load(replication_fetches_failed)},
      {"replication_installs_ok", load(replication_installs_ok)},
      {"replication_installs_rejected", load(replication_installs_rejected)},
      {"replication_last_sequence", load(replication_last_sequence)},
      {"replication_sequence_delta", load(replication_sequence_delta)},
      {"replication_source", load(replication_source)},
      {"replication_oplog_records", load(replication_oplog_records)},
      {"connections_reaped_idle", load(connections_reaped_idle)},
      {"connections_reaped_slow", load(connections_reaped_slow)},
      {"connections_reaped_backpressure",
       load(connections_reaped_backpressure)},
      {"engine_heap_pops", load(engine_heap_pops)},
      {"engine_lower_bounds", load(engine_lower_bounds)},
      {"engine_lb_batch_calls", load(engine_lb_batch_calls)},
      {"engine_lb_batch_items", load(engine_lb_batch_items)},
      {"engine_distance_computations", load(engine_distance_computations)},
      {"engine_false_positive_distances",
       load(engine_false_positive_distances)},
      {"engine_candidates_pruned_lb", load(engine_candidates_pruned_lb)},
      {"engine_heaps_created", load(engine_heaps_created)},
      {"engine_heap_insertions", load(engine_heap_insertions)},
      {"engine_results_returned", load(engine_results_returned)},
      {"engine_heap_build_ns", load(engine_heap_build_ns)},
      {"engine_search_ns", load(engine_search_ns)},
      {"slow_queries", load(slow_queries)},
      {"traces_emitted", load(traces_emitted)},
      {"trace_rotations", load(trace_rotations)},
      {"queue_depth", current_queue_depth},
      {"queue_depth_peak", load(queue_depth_peak)},
  };
  for (std::size_t slot = 0; slot < kNumOpcodes; ++slot) {
    snap.counters.emplace_back(
        "opcode_" + std::string(kOpcodeTable[slot].name),
        load(requests_by_opcode[slot]));
  }
  // Replication lag: ms since the last poll that confirmed the replica in
  // sync with (or installed a snapshot from) its primary. 0 until the
  // first success — read it together with replication_polls.
  const std::uint64_t last_success = load(replication_last_success_ms);
  std::uint64_t lag_ms = 0;
  if (last_success != 0) {
    const auto now_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    lag_ms = now_ms > last_success ? now_ms - last_success : 0;
  }
  snap.counters.emplace_back("replication_lag_ms", lag_ms);
  snap.query_latency = query_latency.Snapshot();
  snap.update_latency = update_latency.Snapshot();
  snap.admission_sojourn = admission_sojourn.Snapshot();
  return snap;
}

namespace {

bool IsGaugeMetric(const std::string& key) {
  return key == "queue_depth" || key == "queue_depth_peak" ||
         key == "replication_last_sequence" ||
         key == "replication_sequence_delta" ||
         key == "replication_source" ||
         key == "replication_lag_ms" ||
         key == "primary_epoch" ||
         key == "overload_state" ||
         key == "admission_limit";
}

void AppendHistogram(std::string& out, const char* name,
                     const HistogramSnapshot& h,
                     bool with_exemplars = false) {
  char line[240];
  std::snprintf(line, sizeof(line), "# TYPE %s histogram\n", name);
  out += line;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    cumulative += h.buckets[i];
    // Empty tail buckets add nothing a dashboard needs; keep the output
    // small by only emitting buckets up to the last non-empty one...
    if (with_exemplars && h.buckets[i] > 0 && h.exemplar_trace[i] != 0) {
      // OpenMetrics-style exemplar: a recent sample's trace id, linking
      // the bucket to its flight-recorder span (docs/observability.md).
      std::snprintf(line, sizeof(line),
                    "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64
                    " # {trace_id=\"%016" PRIx64 "\"} %" PRIu64 "\n",
                    name, HistogramSnapshot::BucketUpperMicros(i),
                    cumulative, h.exemplar_trace[i], h.exemplar_value[i]);
    } else {
      std::snprintf(line, sizeof(line),
                    "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", name,
                    HistogramSnapshot::BucketUpperMicros(i), cumulative);
    }
    out += line;
    if (cumulative == h.count) break;  // ...which this detects.
  }
  std::snprintf(line, sizeof(line),
                "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name, h.count);
  out += line;
  std::snprintf(line, sizeof(line), "%s_sum %" PRIu64 "\n", name,
                h.sum_micros);
  out += line;
  std::snprintf(line, sizeof(line), "%s_count %" PRIu64 "\n", name,
                h.count);
  out += line;
}

// Build identity, stamped by CMake (-DKSPIN_GIT_SHA=...); the fallbacks
// keep out-of-tree builds compiling.
#ifndef KSPIN_VERSION_STRING
#define KSPIN_VERSION_STRING "dev"
#endif
#ifndef KSPIN_GIT_SHA
#define KSPIN_GIT_SHA "unknown"
#endif

/// Resident set size in bytes from /proc/self/statm, 0 when unreadable.
std::uint64_t ProcessRssBytes() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t total_pages = 0, rss_pages = 0;
  if (!(in >> total_pages >> rss_pages)) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return rss_pages * static_cast<std::uint64_t>(page > 0 ? page : 4096);
}

/// Open file descriptors counted via /proc/self/fd, 0 when unreadable.
std::uint64_t ProcessOpenFds() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/fd", ec);
  if (ec) return 0;
  std::uint64_t count = 0;
  for (const auto& entry : it) {
    (void)entry;
    ++count;
  }
  return count;
}

/// Seconds since this process started: system uptime (/proc/uptime)
/// minus the process start time (/proc/self/stat field 22, in clock
/// ticks since boot). 0 when either file is unreadable.
std::uint64_t ProcessUptimeSeconds() {
  double sys_uptime = 0.0;
  {
    std::ifstream in("/proc/uptime");
    if (!(in >> sys_uptime)) return 0;
  }
  std::ifstream in("/proc/self/stat");
  std::string stat;
  if (!std::getline(in, stat)) return 0;
  // The comm field (2) is parenthesized and may contain spaces; field 3
  // starts after the LAST ')'. starttime is field 22, i.e. 20 fields on.
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0;
  std::uint64_t starttime_ticks = 0;
  {
    std::istringstream rest(stat.substr(paren + 1));
    std::string field;
    for (int i = 3; i <= 21 && rest >> field; ++i) {
    }
    if (!(rest >> starttime_ticks)) return 0;
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  const double start_seconds =
      static_cast<double>(starttime_ticks) /
      static_cast<double>(ticks > 0 ? ticks : 100);
  return sys_uptime > start_seconds
             ? static_cast<std::uint64_t>(sys_uptime - start_seconds)
             : 0;
}

}  // namespace

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  char line[240];
  // Build identity first: dashboards join on it to correlate counter
  // resets with restarts and deploys.
  std::snprintf(line, sizeof(line),
                "# TYPE kspin_build_info gauge\n"
                "kspin_build_info{version=\"%s\",git_sha=\"%s\","
                "protocol=\"%u\"} 1\n",
                KSPIN_VERSION_STRING, KSPIN_GIT_SHA,
                static_cast<unsigned>(kProtocolVersion));
  out += line;
  const struct {
    const char* name;
    std::uint64_t value;
  } process_gauges[] = {
      {"kspin_process_resident_memory_bytes", ProcessRssBytes()},
      {"kspin_process_open_fds", ProcessOpenFds()},
      {"kspin_process_uptime_seconds", ProcessUptimeSeconds()},
  };
  for (const auto& gauge : process_gauges) {
    std::snprintf(line, sizeof(line), "# TYPE %s gauge\n%s %" PRIu64 "\n",
                  gauge.name, gauge.name, gauge.value);
    out += line;
  }
  for (const auto& [key, value] : snapshot.counters) {
    const std::string name = "kspin_" + key;
    std::snprintf(line, sizeof(line), "# TYPE %s %s\n%s %" PRIu64 "\n",
                  name.c_str(), IsGaugeMetric(key) ? "gauge" : "counter",
                  name.c_str(), value);
    out += line;
  }
  AppendHistogram(out, "kspin_query_latency_us", snapshot.query_latency,
                  /*with_exemplars=*/true);
  AppendHistogram(out, "kspin_update_latency_us", snapshot.update_latency);
  AppendHistogram(out, "kspin_admission_queue_sojourn_us",
                  snapshot.admission_sojourn);
  return out;
}

std::uint64_t ParsedHistogram::CumulativeAt(std::uint64_t le) const {
  if (buckets.empty() || le > buckets.back().first) return count;
  std::uint64_t cumulative = 0;
  for (const auto& [bound, at_bound] : buckets) {
    if (bound > le) break;
    cumulative = at_bound;
  }
  return cumulative;
}

ParsedHistogram ParsedHistogram::Since(const ParsedHistogram& earlier) const {
  ParsedHistogram delta;
  for (const auto& [bound, cumulative] : buckets) {
    delta.buckets.emplace_back(bound, cumulative - earlier.CumulativeAt(bound));
  }
  delta.sum = sum - earlier.sum;
  delta.count = count - earlier.count;
  return delta;
}

std::uint64_t ParsedHistogram::Percentile(double p) const {
  // A scrape whose count ran ahead of its buckets renders every bucket
  // without reaching `count`, so the rank is taken over what they hold.
  const std::uint64_t total =
      buckets.empty() ? 0 : std::min(count, buckets.back().second);
  if (total == 0) return 0;
  const std::uint64_t rank = NearestRank(p, total);
  for (const auto& [bound, cumulative] : buckets) {
    if (cumulative >= rank) return bound;
  }
  return buckets.back().first;
}

std::uint64_t ParsedMetrics::Value(std::string_view series) const {
  for (const Sample& sample : samples) {
    if (sample.series == series) return sample.value;
  }
  throw std::out_of_range("no metrics series " + std::string(series));
}

namespace {

bool ParseU64(std::string_view text, std::uint64_t* value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

ParsedMetrics ParseMetricsText(std::string_view text) {
  ParsedMetrics parsed;
  std::string family;  // Named by the last # TYPE line.
  std::string type;
  std::size_t line_number = 0;
  while (!text.empty()) {
    const std::size_t eol = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(std::min(eol + 1, text.size()));
    ++line_number;
    const auto fail = [&](const char* why) {
      throw std::invalid_argument("metrics line " +
                                  std::to_string(line_number) + ": " + why +
                                  ": " + std::string(line));
    };
    if (line.empty()) continue;
    if (line.starts_with("# TYPE ")) {
      const std::string_view declared = line.substr(7);
      const std::size_t space = declared.find(' ');
      if (space == std::string_view::npos) fail("TYPE without a type");
      family = declared.substr(0, space);
      type = declared.substr(space + 1);
      if (type == "histogram") parsed.histograms[family] = {};
      continue;
    }
    if (line.front() == '#') continue;  // A comment carries no sample.

    // "<series> <value>", then an optional exemplar " # {...} <value>".
    const std::string_view sample = line.substr(0, line.find(" # "));
    const std::size_t space = sample.rfind(' ');
    if (space == std::string_view::npos) fail("no value");
    const std::string_view series = sample.substr(0, space);
    std::uint64_t value = 0;
    if (!ParseU64(sample.substr(space + 1), &value)) {
      fail("value is not a u64");
    }
    const std::string_view name = series.substr(0, series.find('{'));
    if (family.empty() || !name.starts_with(family)) {
      fail("sample outside the family of the last TYPE line");
    }
    const std::string_view suffix = name.substr(family.size());
    if (type == "histogram") {
      ParsedHistogram& histogram = parsed.histograms[family];
      const std::string_view labels = series.substr(name.size());
      if (suffix == "_bucket" && labels.starts_with("{le=\"") &&
          labels.ends_with("\"}")) {
        const std::string_view le = labels.substr(5, labels.size() - 7);
        std::uint64_t bound = 0;
        if (ParseU64(le, &bound)) {
          histogram.buckets.emplace_back(bound, value);
        } else if (le != "+Inf") {
          fail("le is neither a u64 nor +Inf");
        }
      } else if (suffix == "_sum" && labels.empty()) {
        histogram.sum = value;
      } else if (suffix == "_count" && labels.empty()) {
        histogram.count = value;
      } else {
        fail("not a _bucket{le=...}, _sum or _count series");
      }
    } else if (!suffix.empty()) {
      fail("sample outside the family of the last TYPE line");
    }
    parsed.samples.push_back({std::string(series), type, value});
  }
  return parsed;
}

}  // namespace kspin::server
