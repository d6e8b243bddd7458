// Micro-benchmarks (google-benchmark) of the primitive operations every
// K-SPIN query is composed of: ALT lower bounds, point-to-point distance
// queries per technique, inverted-heap creation/extraction, quadtree point
// location, and NVD construction. Complements the per-figure harnesses.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "kspin/inverted_heap.h"
#include "nvd/nvd.h"

namespace kspin::bench {
namespace {

// Shared state, built once (google-benchmark may re-enter the function).
struct MicroState {
  Dataset dataset = Dataset::Load("ME");
  ContractionHierarchy ch{dataset.graph};
  HubLabeling hl{dataset.graph, ch};
  GTree gtree{dataset.graph, [] {
                GTreeOptions o;
                o.leaf_size = 64;
                return o;
              }()};
  AltIndex alt{dataset.graph, 16};
  KeywordIndex keywords{dataset.graph, dataset.store, *dataset.inverted,
                        [] {
                          KeywordIndexOptions o;
                          o.nvd.rho = 5;
                          return o;
                        }()};
  ChOracle ch_oracle{ch};
  QueryProcessor processor{dataset.store,    *dataset.inverted,
                           *dataset.relevance, keywords,
                           alt,              ch_oracle};
  Rng rng{1234};

  VertexId RandomVertex() {
    return static_cast<VertexId>(
        rng.UniformInt(0, dataset.graph.NumVertices() - 1));
  }
  KeywordId FrequentKeyword() {
    for (KeywordId t = 0; t < dataset.inverted->NumKeywords(); ++t) {
      if (dataset.inverted->ListSize(t) >= 30) return t;
    }
    return 0;
  }
};

MicroState& State() {
  static MicroState* state = new MicroState();
  return *state;
}

void BM_AltLowerBound(benchmark::State& bench) {
  MicroState& s = State();
  VertexId a = s.RandomVertex(), b = s.RandomVertex();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(s.alt.LowerBound(a, b));
  }
}
BENCHMARK(BM_AltLowerBound);

void BM_DistanceDijkstra(benchmark::State& bench) {
  MicroState& s = State();
  DijkstraWorkspace workspace(s.dataset.graph.NumVertices());
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        workspace.PointToPoint(s.dataset.graph, s.RandomVertex(),
                               s.RandomVertex()));
  }
}
BENCHMARK(BM_DistanceDijkstra);

void BM_DistanceCh(benchmark::State& bench) {
  MicroState& s = State();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(s.ch.Query(s.RandomVertex(), s.RandomVertex()));
  }
}
BENCHMARK(BM_DistanceCh);

void BM_DistanceHubLabels(benchmark::State& bench) {
  MicroState& s = State();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(s.hl.Query(s.RandomVertex(), s.RandomVertex()));
  }
}
BENCHMARK(BM_DistanceHubLabels);

void BM_DistanceGtree(benchmark::State& bench) {
  MicroState& s = State();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        s.gtree.Query(s.RandomVertex(), s.RandomVertex()));
  }
}
BENCHMARK(BM_DistanceGtree);

void BM_InvertedHeapCreate(benchmark::State& bench) {
  MicroState& s = State();
  HeapGenerator generator(s.keywords, s.alt);
  const KeywordId t = s.FrequentKeyword();
  for (auto _ : bench) {
    InvertedHeap heap = generator.Make(t, s.RandomVertex());
    benchmark::DoNotOptimize(heap.MinKey());
  }
}
BENCHMARK(BM_InvertedHeapCreate);

void BM_InvertedHeapDrainTen(benchmark::State& bench) {
  MicroState& s = State();
  HeapGenerator generator(s.keywords, s.alt);
  const KeywordId t = s.FrequentKeyword();
  for (auto _ : bench) {
    InvertedHeap heap = generator.Make(t, s.RandomVertex());
    for (int i = 0; i < 10 && !heap.Empty(); ++i) {
      benchmark::DoNotOptimize(heap.ExtractMin());
    }
  }
}
BENCHMARK(BM_InvertedHeapDrainTen);

// The production path: engines lend pooled scratch, so steady-state heap
// creation performs no allocations. The unpooled variants above price the
// convenience path (fresh scratch per heap).
void BM_InvertedHeapCreatePooled(benchmark::State& bench) {
  MicroState& s = State();
  HeapGenerator generator(s.keywords, s.alt);
  const KeywordId t = s.FrequentKeyword();
  InvertedHeap::Scratch scratch;
  for (auto _ : bench) {
    InvertedHeap heap = generator.Make(t, s.RandomVertex(), &scratch);
    benchmark::DoNotOptimize(heap.MinKey());
  }
}
BENCHMARK(BM_InvertedHeapCreatePooled);

void BM_InvertedHeapDrainTenPooled(benchmark::State& bench) {
  MicroState& s = State();
  HeapGenerator generator(s.keywords, s.alt);
  const KeywordId t = s.FrequentKeyword();
  InvertedHeap::Scratch scratch;
  for (auto _ : bench) {
    InvertedHeap heap = generator.Make(t, s.RandomVertex(), &scratch);
    for (int i = 0; i < 10 && !heap.Empty(); ++i) {
      benchmark::DoNotOptimize(heap.ExtractMin());
    }
  }
}
BENCHMARK(BM_InvertedHeapDrainTenPooled);

void BM_NvdBuild(benchmark::State& bench) {
  MicroState& s = State();
  std::vector<VertexId> sites;
  Rng rng(5);
  auto sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(s.dataset.graph.NumVertices()), 64);
  sites.assign(sample.begin(), sample.end());
  for (auto _ : bench) {
    benchmark::DoNotOptimize(BuildNvd(s.dataset.graph, sites));
  }
}
BENCHMARK(BM_NvdBuild);

void BM_TopKQuery(benchmark::State& bench) {
  MicroState& s = State();
  QueryWorkload workload = MakeWorkload(s.dataset, /*quick=*/true);
  const auto queries = workload.QueriesForLength(2);
  std::size_t i = 0;
  for (auto _ : bench) {
    const auto& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(s.processor.TopK(q.vertex, 10, q.keywords));
  }
}
BENCHMARK(BM_TopKQuery);

void BM_BknnDisjunctive(benchmark::State& bench) {
  MicroState& s = State();
  QueryWorkload workload = MakeWorkload(s.dataset, /*quick=*/true);
  const auto queries = workload.QueriesForLength(2);
  std::size_t i = 0;
  for (auto _ : bench) {
    const auto& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(s.processor.BooleanKnn(
        q.vertex, 10, q.keywords, BooleanOp::kDisjunctive));
  }
}
BENCHMARK(BM_BknnDisjunctive);

// Instrumented twins of the two query benchmarks: identical work plus a
// live QueryStats accumulator. Comparing against the plain variants
// bounds the observability overhead (acceptance: <= 5% with tracing off).
void BM_TopKQueryInstrumented(benchmark::State& bench) {
  MicroState& s = State();
  QueryWorkload workload = MakeWorkload(s.dataset, /*quick=*/true);
  const auto queries = workload.QueriesForLength(2);
  std::size_t i = 0;
  QueryStats stats;
  for (auto _ : bench) {
    const auto& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(
        s.processor.TopK(q.vertex, 10, q.keywords, &stats));
  }
  benchmark::DoNotOptimize(stats);
}
BENCHMARK(BM_TopKQueryInstrumented);

void BM_BknnDisjunctiveInstrumented(benchmark::State& bench) {
  MicroState& s = State();
  QueryWorkload workload = MakeWorkload(s.dataset, /*quick=*/true);
  const auto queries = workload.QueriesForLength(2);
  std::size_t i = 0;
  QueryStats stats;
  for (auto _ : bench) {
    const auto& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(s.processor.BooleanKnn(
        q.vertex, 10, q.keywords, BooleanOp::kDisjunctive, &stats));
  }
  benchmark::DoNotOptimize(stats);
}
BENCHMARK(BM_BknnDisjunctiveInstrumented);

}  // namespace
}  // namespace kspin::bench

BENCHMARK_MAIN();
