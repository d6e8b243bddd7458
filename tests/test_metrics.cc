// Unit tests for the observability layer: LatencyHistogram bucketing and
// edge cases, nearest-rank percentiles, engine counter aggregation
// (AddQueryStats), the METRICS snapshot keys, and the Prometheus text
// rendering and its parser (docs/observability.md).
#include "server/metrics.h"

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/trace.h"

namespace kspin::server {
namespace {

std::uint64_t BucketTotal(const HistogramSnapshot& snap) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : snap.buckets) total += b;
  return total;
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.PercentileMicros(0.5), 0u);
  EXPECT_EQ(snap.PercentileMicros(1.0), 0u);
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum_micros, 0u);
  EXPECT_EQ(BucketTotal(snap), 0u);
}

TEST(LatencyHistogramTest, ZeroMicrosLandsInFirstBucket) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(1);  // [1, 2) is also bucket 0.
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum_micros, 1u);
}

TEST(LatencyHistogramTest, BucketBoundariesAreLog2) {
  LatencyHistogram h;
  h.Record(2);     // [2, 4)  -> bucket 1.
  h.Record(3);     // [2, 4)  -> bucket 1.
  h.Record(4);     // [4, 8)  -> bucket 2.
  h.Record(1023);  // [512, 1024) -> bucket 9.
  h.Record(1024);  // [1024, 2048) -> bucket 10.
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[9], 1u);
  EXPECT_EQ(snap.buckets[10], 1u);
  EXPECT_EQ(BucketTotal(snap), snap.count);
}

TEST(LatencyHistogramTest, HugeValuesSaturateIntoLastBucket) {
  LatencyHistogram h;
  h.Record(~std::uint64_t{0});  // Way past 2^40 us.
  h.Record(std::uint64_t{1} << 60);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.buckets[HistogramSnapshot::kBuckets - 1], 2u);
  EXPECT_EQ(snap.count, 2u);
  // The percentile can only report the last bucket's (finite) upper bound.
  EXPECT_EQ(snap.PercentileMicros(1.0),
            HistogramSnapshot::BucketUpperMicros(
                HistogramSnapshot::kBuckets - 1));
}

TEST(LatencyHistogramTest, PercentileIsBucketUpperBound) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.Record(100);   // [64, 128) -> bucket 6.
  for (int i = 0; i < 10; ++i) h.Record(5000);  // [4096, 8192) -> bucket 12.
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.PercentileMicros(0.5), 128u);
  EXPECT_EQ(snap.PercentileMicros(0.9), 128u);
  EXPECT_EQ(snap.PercentileMicros(0.99), 8192u);
  EXPECT_EQ(snap.PercentileMicros(1.0), 8192u);
  EXPECT_EQ(snap.sum_micros, 90u * 100 + 10u * 5000);
}

TEST(LatencyHistogramTest, PercentileUsesTheNearestRank) {
  // p50 of {1, 1000, 1000}: rank ⌈1.5⌉ = 2 is a 1000 us sample.
  LatencyHistogram small;
  small.Record(1);
  small.Record(1000);
  small.Record(1000);
  EXPECT_EQ(small.Snapshot().PercentileMicros(0.5), 1024u);
  // p99 of ten samples is rank ⌈9.9⌉ = 10: the slowest one.
  LatencyHistogram tail;
  for (int i = 0; i < 9; ++i) tail.Record(100);
  tail.Record(5000);
  EXPECT_EQ(tail.Snapshot().PercentileMicros(0.99), 8192u);
}

TEST(LatencyHistogramTest, PercentileStaysInTheBucketsWhenCountRunsAhead) {
  // Snapshot loads the buckets before the count, so a Record in flight
  // can leave the count one above the bucket total. Such a tick's p99
  // must name a filled bucket, not the last bound (2^40 us), on the
  // server and in a parsed scrape alike.
  MetricsSnapshot snapshot;
  HistogramSnapshot& snap = snapshot.query_latency;
  snap.buckets[6] = 50;  // 50 samples in [64, 128).
  snap.count = 51;
  snap.sum_micros = 50 * 100;
  EXPECT_EQ(snap.PercentileMicros(0.99), 128u);
  EXPECT_EQ(snap.PercentileMicros(1.0), 128u);
  const ParsedHistogram parsed =
      ParseMetricsText(RenderPrometheusText(snapshot))
          .histograms.at("kspin_query_latency_us");
  EXPECT_EQ(parsed.count, 51u);
  EXPECT_EQ(parsed.Percentile(0.99), 128u);
  EXPECT_EQ(parsed.Percentile(1.0), 128u);
}

TEST(NearestRankTest, IsTheCeilingWithoutFloatError) {
  EXPECT_EQ(NearestRank(0.99, 100), 99u);  // Not 100 from 99.00000000000001.
  EXPECT_EQ(NearestRank(0.999, 1000), 999u);
  EXPECT_EQ(NearestRank(0.07, 100), 7u);
  EXPECT_EQ(NearestRank(0.5, 3), 2u);
  EXPECT_EQ(NearestRank(0.99, 10), 10u);
  EXPECT_EQ(NearestRank(1.0, 7), 7u);
  EXPECT_EQ(NearestRank(0.0, 7), 1u);  // Clamped into [1, n].
  const std::uint64_t huge = std::uint64_t{1} << 63;
  EXPECT_EQ(NearestRank(0.5, huge), huge / 2);
  EXPECT_EQ(NearestRank(1.0, ~std::uint64_t{0}), ~std::uint64_t{0});
}

TEST(LatencyHistogramTest, SnapshotIsInternallyConsistentUnderWriters) {
  // Writers hammer the histogram while a reader snapshots it. Relaxed
  // loads mean a snapshot may be mid-update, but bucket totals must never
  // exceed the count *recorded afterwards* — and with writers stopped,
  // everything must line up exactly.
  LatencyHistogram h;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&h, t] {
      for (int i = 0; i < 20000; ++i) {
        h.Record(static_cast<std::uint64_t>(t * 1000 + i % 997));
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    const HistogramSnapshot snap = h.Snapshot();
    EXPECT_LE(snap.count, 80000u);
  }
  for (auto& w : writers) w.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 80000u);
  EXPECT_EQ(BucketTotal(snap), 80000u);
  EXPECT_GT(snap.sum_micros, 0u);
}

TEST(QueryStatsTest, PlusEqualsSumsEveryField) {
  QueryStats a;
  a.network_distance_computations = 1;
  a.candidates_extracted = 2;
  a.lower_bounds_computed = 3;
  a.heaps_created = 4;
  a.heap_insertions = 5;
  a.false_positive_distances = 6;
  a.candidates_pruned_lb = 7;
  a.results_returned = 8;
  a.heap_build_ns = 9;
  a.search_ns = 10;
  a.lb_batch_calls = 11;
  a.lb_batch_items = 12;
  QueryStats b = a;
  b += a;
  EXPECT_EQ(b.network_distance_computations, 2u);
  EXPECT_EQ(b.candidates_extracted, 4u);
  EXPECT_EQ(b.lower_bounds_computed, 6u);
  EXPECT_EQ(b.heaps_created, 8u);
  EXPECT_EQ(b.heap_insertions, 10u);
  EXPECT_EQ(b.false_positive_distances, 12u);
  EXPECT_EQ(b.candidates_pruned_lb, 14u);
  EXPECT_EQ(b.results_returned, 16u);
  EXPECT_EQ(b.heap_build_ns, 18u);
  EXPECT_EQ(b.search_ns, 20u);
  EXPECT_EQ(b.lb_batch_calls, 22u);
  EXPECT_EQ(b.lb_batch_items, 24u);
}

TEST(ServerMetricsTest, AddQueryStatsFoldsIntoEngineCounters) {
  ServerMetrics metrics;
  QueryStats stats;
  stats.network_distance_computations = 10;
  stats.candidates_extracted = 20;
  stats.lower_bounds_computed = 30;
  stats.false_positive_distances = 4;
  stats.results_returned = 6;
  stats.heaps_created = 2;
  stats.heap_insertions = 50;
  stats.candidates_pruned_lb = 3;
  stats.heap_build_ns = 1000;
  stats.search_ns = 2000;
  stats.lb_batch_calls = 5;
  stats.lb_batch_items = 25;
  metrics.AddQueryStats(stats);
  metrics.AddQueryStats(stats);
  EXPECT_EQ(metrics.engine_distance_computations.load(), 20u);
  EXPECT_EQ(metrics.engine_heap_pops.load(), 40u);
  EXPECT_EQ(metrics.engine_lower_bounds.load(), 60u);
  EXPECT_EQ(metrics.engine_false_positive_distances.load(), 8u);
  EXPECT_EQ(metrics.engine_results_returned.load(), 12u);
  EXPECT_EQ(metrics.engine_heaps_created.load(), 4u);
  EXPECT_EQ(metrics.engine_heap_insertions.load(), 100u);
  EXPECT_EQ(metrics.engine_candidates_pruned_lb.load(), 6u);
  EXPECT_EQ(metrics.engine_heap_build_ns.load(), 2000u);
  EXPECT_EQ(metrics.engine_search_ns.load(), 4000u);
  EXPECT_EQ(metrics.engine_lb_batch_calls.load(), 10u);
  EXPECT_EQ(metrics.engine_lb_batch_items.load(), 50u);
}

TEST(ServerMetricsTest, SnapshotCarriesEngineAndLatencyKeys) {
  ServerMetrics metrics;
  metrics.requests_ok.store(5);
  QueryStats stats;
  stats.network_distance_computations = 7;
  stats.false_positive_distances = 2;
  stats.lb_batch_calls = 3;
  stats.lb_batch_items = 9;
  metrics.AddQueryStats(stats);
  metrics.query_latency.Record(300);

  const ParsedMetrics scrape =
      ParseMetricsText(RenderPrometheusText(metrics.FullSnapshot(3)));
  EXPECT_EQ(scrape.Value("kspin_requests_ok"), 5u);
  EXPECT_EQ(scrape.Value("kspin_queue_depth"), 3u);
  EXPECT_EQ(scrape.Value("kspin_engine_distance_computations"), 7u);
  EXPECT_EQ(scrape.Value("kspin_engine_false_positive_distances"), 2u);
  EXPECT_EQ(scrape.Value("kspin_engine_lb_batch_calls"), 3u);
  EXPECT_EQ(scrape.Value("kspin_engine_lb_batch_items"), 9u);
  EXPECT_EQ(scrape.Value("kspin_query_latency_us_count"), 1u);
  EXPECT_EQ(scrape.Value("kspin_query_latency_us_sum"), 300u);
  // [256, 512) upper bound.
  EXPECT_EQ(scrape.histograms.at("kspin_query_latency_us").Percentile(0.99),
            512u);
  EXPECT_EQ(scrape.Value("kspin_update_latency_us_count"), 0u);
  EXPECT_EQ(scrape.Value("kspin_update_latency_us_sum"), 0u);
  // Never succeeded: no lag.
  EXPECT_EQ(scrape.Value("kspin_replication_lag_ms"), 0u);
  EXPECT_EQ(scrape.Value("kspin_slow_queries"), 0u);
  EXPECT_EQ(scrape.Value("kspin_opcode_metrics"), 0u);
}

TEST(ServerMetricsTest, FullSnapshotHistogramsMatchCounterView) {
  ServerMetrics metrics;
  metrics.query_latency.Record(10);
  metrics.query_latency.Record(20);
  metrics.update_latency.Record(1);
  const MetricsSnapshot snap = metrics.FullSnapshot(0);
  EXPECT_EQ(snap.query_latency.count, 2u);
  EXPECT_EQ(snap.query_latency.sum_micros, 30u);
  EXPECT_EQ(snap.update_latency.count, 1u);
  EXPECT_EQ(BucketTotal(snap.query_latency), 2u);
}

TEST(PrometheusTextTest, RendersCountersGaugesAndHistograms) {
  ServerMetrics metrics;
  metrics.requests_ok.store(17);
  metrics.RecordQueueDepth(9);
  QueryStats stats;
  stats.network_distance_computations = 11;
  metrics.AddQueryStats(stats);
  metrics.query_latency.Record(100);  // Bucket [64, 128).
  metrics.query_latency.Record(100);
  metrics.query_latency.Record(5000);  // Bucket [4096, 8192).

  const std::string text = RenderPrometheusText(metrics.FullSnapshot(4));
  // Counters with TYPE lines.
  EXPECT_NE(text.find("# TYPE kspin_requests_ok counter\n"
                      "kspin_requests_ok 17\n"),
            std::string::npos);
  EXPECT_NE(text.find("kspin_engine_distance_computations 11\n"),
            std::string::npos);
  // Gauges: live depth from the sampled argument, peak from the counter.
  EXPECT_NE(text.find("# TYPE kspin_queue_depth gauge\n"
                      "kspin_queue_depth 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("kspin_queue_depth_peak 9\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE kspin_replication_lag_ms gauge\n"),
            std::string::npos);
  // Histogram: cumulative le buckets, +Inf, sum, count.
  EXPECT_NE(text.find("# TYPE kspin_query_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("kspin_query_latency_us_bucket{le=\"128\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("kspin_query_latency_us_bucket{le=\"8192\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("kspin_query_latency_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("kspin_query_latency_us_sum 5200\n"),
            std::string::npos);
  EXPECT_NE(text.find("kspin_query_latency_us_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("kspin_update_latency_us_count 0\n"),
            std::string::npos);
}

TEST(PrometheusTextTest, ParseInvertsRender) {
  const ServerMetrics metrics;
  MetricsSnapshot snapshot = metrics.FullSnapshot(0);
  // Distinct values everywhere, one past double's exact integers.
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    snapshot.counters[i].second = 1000 + 7 * i;
  }
  snapshot.counters[0].second = (std::uint64_t{1} << 53) + 1;
  // Every histogram has samples in bucket 0 and in the last bucket; the
  // query histogram renders them with exemplars.
  const auto fill = [](std::uint64_t middle) {
    LatencyHistogram h;
    h.Record(0, 0x11);
    h.Record(1, 0x12);
    h.Record(middle, 0x13);
    h.Record(~std::uint64_t{0} / 4, 0x14);
    return h.Snapshot();
  };
  snapshot.query_latency = fill(100);
  snapshot.update_latency = fill(5000);
  snapshot.admission_sojourn = fill(70);
  const std::string text = RenderPrometheusText(snapshot);
  ASSERT_NE(text.find(" # {trace_id=\"0000000000000014\"}"),
            std::string::npos);

  const ParsedMetrics parsed = ParseMetricsText(text);
  const std::set<std::string> gauges = {
      "queue_depth",          "queue_depth_peak",
      "replication_last_sequence", "replication_sequence_delta",
      "replication_source",   "replication_lag_ms",
      "primary_epoch",        "overload_state",
      "admission_limit",
  };
  for (const auto& [key, value] : snapshot.counters) {
    const std::string series = "kspin_" + key;
    EXPECT_EQ(parsed.Value(series), value) << series;
    for (const ParsedMetrics::Sample& sample : parsed.samples) {
      if (sample.series != series) continue;
      EXPECT_EQ(sample.type, gauges.contains(key) ? "gauge" : "counter")
          << series;
    }
  }
  // Build identity comes first: one labelled gauge sample.
  ASSERT_FALSE(parsed.samples.empty());
  EXPECT_TRUE(parsed.samples.front().series.starts_with("kspin_build_info{"));
  EXPECT_EQ(parsed.samples.front().type, "gauge");
  EXPECT_EQ(parsed.samples.front().value, 1u);

  const std::pair<const char*, const HistogramSnapshot*> histograms[] = {
      {"kspin_query_latency_us", &snapshot.query_latency},
      {"kspin_update_latency_us", &snapshot.update_latency},
      {"kspin_admission_queue_sojourn_us", &snapshot.admission_sojourn},
  };
  ASSERT_EQ(parsed.histograms.size(), std::size(histograms));
  for (const auto& [name, rendered] : histograms) {
    const ParsedHistogram& h = parsed.histograms.at(name);
    EXPECT_EQ(h.count, rendered->count) << name;
    EXPECT_EQ(h.sum, rendered->sum_micros) << name;
    EXPECT_EQ(parsed.Value(std::string(name) + "_bucket{le=\"+Inf\"}"),
              rendered->count)
        << name;
    // Every cumulative bucket, the last (saturating) one included; a
    // bound past the rendered tail reads the count.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      cumulative += rendered->buckets[i];
      EXPECT_EQ(h.CumulativeAt(HistogramSnapshot::BucketUpperMicros(i)),
                cumulative)
          << name << " bucket " << i;
    }
    EXPECT_EQ(h.CumulativeAt(~std::uint64_t{0}), rendered->count) << name;
    EXPECT_EQ(h.Percentile(0.5), rendered->PercentileMicros(0.5)) << name;
    EXPECT_EQ(h.Percentile(0.99), rendered->PercentileMicros(0.99)) << name;
  }
}

TEST(PrometheusTextTest, ParserReportsMalformedLines) {
  const std::string type = "# TYPE kspin_x counter\n";
  EXPECT_EQ(ParseMetricsText(type + "kspin_x 18446744073709551615\n")
                .Value("kspin_x"),
            ~std::uint64_t{0});
  for (const std::string& bad : {
           type + "kspin_x 1.5\n",                   // Not an integer.
           type + "kspin_x -3\n",                    // Negative.
           type + "kspin_x 18446744073709551616\n",  // Past u64.
           type + "kspin_x\n",                       // No value.
           type + "kspin_x 1 2\n",                   // Two values.
           type + "kspin_y 1\n",                     // Not the TYPE family.
           std::string("kspin_x 1\n"),               // No TYPE line.
           std::string("# TYPE kspin_h histogram\n"
                       "kspin_h_bucket{le=\"x\"} 1\n"),  // Bad bound.
           std::string("# TYPE kspin_h histogram\n"
                       "kspin_h_total 1\n"),  // Not a histogram series.
       }) {
    EXPECT_THROW(ParseMetricsText(bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW(ParseMetricsText(type + "kspin_x 1\n").Value("kspin_z"),
               std::out_of_range);
}

TEST(PrometheusTextTest, ParsedHistogramSinceIsThePhaseDelta) {
  ServerMetrics metrics;
  for (int i = 0; i < 100; ++i) metrics.query_latency.Record(100);
  const ParsedMetrics before =
      ParseMetricsText(RenderPrometheusText(metrics.FullSnapshot(0)));
  for (int i = 0; i < 9; ++i) metrics.query_latency.Record(100);
  metrics.query_latency.Record(5000);  // Longer rendered tail than before.
  const ParsedMetrics after =
      ParseMetricsText(RenderPrometheusText(metrics.FullSnapshot(0)));
  const ParsedHistogram phase =
      after.histograms.at("kspin_query_latency_us")
          .Since(before.histograms.at("kspin_query_latency_us"));
  EXPECT_EQ(phase.count, 10u);
  EXPECT_EQ(phase.sum, 9u * 100 + 5000);
  EXPECT_EQ(phase.Percentile(0.5), 128u);
  EXPECT_EQ(phase.Percentile(0.99), 8192u);  // The slowest of ten.
  EXPECT_EQ(ParsedHistogram{}.Percentile(0.99), 0u);
}

TEST(TraceTest, FingerprintIsStableAndQuerySensitive) {
  const std::uint64_t a = QueryFingerprint("coffee or tea", 10, 5);
  EXPECT_EQ(a, QueryFingerprint("coffee or tea", 10, 5));
  EXPECT_NE(a, QueryFingerprint("coffee or tea", 11, 5));
  EXPECT_NE(a, QueryFingerprint("coffee or tea", 10, 6));
  EXPECT_NE(a, QueryFingerprint("coffee and tea", 10, 5));
}

TEST(TraceTest, FormatQueryTraceEscapesAndCarriesCounters) {
  QueryTraceEvent event;
  event.fingerprint = 0xABCDEF;
  event.opcode = "SEARCH_BOOLEAN";
  event.query = "say \"hi\"\n\tback\\slash";
  event.vertex = 42;
  event.k = 3;
  event.status = "OK";
  event.latency_us = 1234;
  event.stats.network_distance_computations = 9;
  event.stats.false_positive_distances = 4;
  const std::string line = FormatQueryTrace(event);
  EXPECT_NE(line.find("\"fingerprint\":\"0000000000abcdef\""),
            std::string::npos);
  EXPECT_NE(line.find("\"query\":\"say \\\"hi\\\"\\n\\tback\\\\slash\""),
            std::string::npos);
  EXPECT_NE(line.find("\"latency_us\":1234"), std::string::npos);
  EXPECT_NE(line.find("\"distance_computations\":9"), std::string::npos);
  EXPECT_NE(line.find("\"false_positive_distances\":4"), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  // A JSON line must never contain a raw newline.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace kspin::server
