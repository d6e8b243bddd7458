// Concurrent serving throughput: QPS versus number of worker threads for
// KS-CH and KS-HL (k=10, 2 query keywords), batch execution through
// ParallelQueryExecutor. The speedup8 column is QPS at 8 threads over QPS
// at 1 thread; expect near-linear scaling up to the physical core count
// (on a single-core host every column collapses to ~1x).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "service/parallel_executor.h"

namespace kspin::bench {
namespace {

constexpr std::uint32_t kK = 10;
constexpr std::uint32_t kTerms = 2;
const unsigned kThreadCounts[] = {1, 2, 4, 8};

std::vector<ParallelQueryExecutor::TopKQuery> TopKBatch(
    const std::vector<SpatialKeywordQuery>& queries) {
  std::vector<ParallelQueryExecutor::TopKQuery> batch(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batch[i].vertex = queries[i].vertex;
    batch[i].k = kK;
    batch[i].keywords = queries[i].keywords;
  }
  return batch;
}

std::vector<ParallelQueryExecutor::BooleanKnnQuery> BknnBatch(
    const std::vector<SpatialKeywordQuery>& queries) {
  std::vector<ParallelQueryExecutor::BooleanKnnQuery> batch(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batch[i].vertex = queries[i].vertex;
    batch[i].k = kK;
    batch[i].keywords = queries[i].keywords;
    batch[i].op = BooleanOp::kDisjunctive;
  }
  return batch;
}

// Repeats the batch until the budget is exhausted and returns total QPS.
template <typename RunBatchFn>
double MeasureBatchQps(std::size_t batch_size, double budget_seconds,
                       const RunBatchFn& run_batch) {
  Timer timer;
  std::size_t completed = 0;
  do {
    run_batch();
    completed += batch_size;
  } while (timer.ElapsedSeconds() < budget_seconds);
  return static_cast<double>(completed) / timer.ElapsedSeconds();
}

int Run(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  Dataset dataset = Dataset::Load(args.dataset.empty() ? "DE" : args.dataset);

  EngineSelection selection;
  selection.ks_ch = selection.ks_hl = true;
  EngineSet engines(dataset, selection);

  QueryWorkload workload = MakeWorkload(dataset, args.quick);
  std::vector<SpatialKeywordQuery> queries(
      workload.QueriesForLength(kTerms).begin(),
      workload.QueriesForLength(kTerms).end());
  const double budget = args.quick ? 0.5 : 2.0;

  const auto topk_batch = TopKBatch(queries);
  const auto bknn_batch = BknnBatch(queries);

  std::vector<std::string> columns;
  for (unsigned t : kThreadCounts) {
    columns.push_back(
        std::string("t").append(std::to_string(t)).append("_qps"));
  }
  columns.push_back("speedup8");
  PrintHeader("Concurrency: batch QPS vs worker threads (k=10, 2 terms)",
              dataset, columns);

  struct Engine {
    const char* name;
    std::function<std::unique_ptr<QueryProcessor>()> factory;
  };
  const Engine engine_rows[] = {
      {"KS-CH", engines.KsChProcessorFactory()},
      {"KS-HL", engines.KsHlProcessorFactory()},
  };

  for (const Engine& engine : engine_rows) {
    std::vector<double> topk_cells, bknn_cells;
    for (unsigned threads : kThreadCounts) {
      ParallelQueryExecutor executor(engine.factory, threads);
      topk_cells.push_back(MeasureBatchQps(
          topk_batch.size(), budget, [&] { executor.TopKBatch(topk_batch); }));
      bknn_cells.push_back(
          MeasureBatchQps(bknn_batch.size(), budget,
                          [&] { executor.BooleanKnnBatch(bknn_batch); }));
    }
    topk_cells.push_back(topk_cells.back() / topk_cells.front());
    bknn_cells.push_back(bknn_cells.back() / bknn_cells.front());
    PrintRow(std::string(engine.name) + " topk", topk_cells);
    PrintRow(std::string(engine.name) + " bknn", bknn_cells);
  }
  return 0;
}

}  // namespace
}  // namespace kspin::bench

int main(int argc, char** argv) { return kspin::bench::Run(argc, argv); }
