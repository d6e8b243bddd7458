#include "bench_common.h"

#include <cstdio>
#include <cstring>

#include "common/timer.h"

namespace kspin::bench {

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dataset=", 0) == 0) {
      args.dataset = arg.substr(std::strlen("--dataset="));
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--full") {
      args.full = true;
    } else if (arg == "--help") {
      std::printf("usage: %s [--dataset=DE|ME|FL|E|US] [--quick] [--full]\n",
                  argv[0]);
      std::exit(0);
    }
  }
  return args;
}

Dataset Dataset::Load(const std::string& name) {
  Dataset dataset;
  dataset.spec = DatasetSpecByName(name);
  RoadNetworkOptions road;
  road.grid_width = dataset.spec.grid_width;
  road.grid_height = dataset.spec.grid_height;
  road.seed = dataset.spec.seed;
  dataset.graph = GenerateRoadNetwork(road);
  KeywordDatasetOptions keywords;
  keywords.num_keywords = dataset.spec.num_keywords;
  keywords.object_fraction = dataset.spec.object_fraction;
  keywords.seed = dataset.spec.seed + 1000;
  dataset.store = GenerateKeywordDataset(dataset.graph, keywords);
  dataset.inverted = std::make_unique<InvertedIndex>(
      dataset.store, dataset.spec.num_keywords);
  dataset.relevance =
      std::make_unique<RelevanceModel>(dataset.store, *dataset.inverted);
  return dataset;
}

EngineSet::EngineSet(Dataset& dataset, const EngineSelection& selection)
    : dataset_(dataset) {
  const bool need_ch = selection.ks_ch || selection.ks_hl ||
                       selection.fs_fbs;
  const bool need_gtree = selection.ks_gt || selection.gtree_sk ||
                          selection.gtree_opt || selection.road;
  Timer timer;
  if (need_ch) {
    timer.Restart();
    ch_ = std::make_unique<ContractionHierarchy>(dataset.graph);
    ch_build_seconds_ = timer.ElapsedSeconds();
  }
  if (selection.ks_hl || selection.fs_fbs) {
    timer.Restart();
    hl_ = std::make_unique<HubLabeling>(dataset.graph, *ch_);
    hl_build_seconds_ = timer.ElapsedSeconds();
  }
  if (need_gtree) {
    timer.Restart();
    GTreeOptions options;
    options.leaf_size = 64;
    gtree_ = std::make_unique<GTree>(dataset.graph, options);
    gtree_build_seconds_ = timer.ElapsedSeconds();
  }

  const bool need_kspin =
      selection.ks_ch || selection.ks_hl || selection.ks_gt;
  if (need_kspin) {
    timer.Restart();
    alt_ = std::make_unique<AltIndex>(dataset.graph, 16);
    KeywordIndexOptions ki;
    ki.nvd.rho = selection.rho;
    keyword_index_ = std::make_unique<KeywordIndex>(
        dataset.graph, dataset.store, *dataset.inverted, ki);
    kspin_build_seconds_ = timer.ElapsedSeconds();
  }
  auto make_processor = [this, &dataset](DistanceOracle& oracle) {
    return std::make_unique<QueryProcessor>(
        dataset.store, *dataset.inverted, *dataset.relevance,
        *keyword_index_, *alt_, oracle);
  };
  if (selection.ks_ch) {
    ch_oracle_ = std::make_unique<ChOracle>(*ch_);
    ks_ch_ = make_processor(*ch_oracle_);
  }
  if (selection.ks_hl) {
    hl_oracle_ = std::make_unique<HubLabelOracle>(*hl_);
    ks_hl_ = make_processor(*hl_oracle_);
  }
  if (selection.ks_gt) {
    gtree_oracle_ = std::make_unique<GTreeOracle>(*gtree_);
    ks_gt_ = make_processor(*gtree_oracle_);
  }
  if (selection.gtree_sk) {
    gtree_sk_ = std::make_unique<GTreeSpatialKeyword>(
        dataset.graph, *gtree_, dataset.store, *dataset.inverted,
        *dataset.relevance, /*use_per_keyword_occurrence=*/false);
  }
  if (selection.gtree_opt) {
    gtree_opt_ = std::make_unique<GTreeSpatialKeyword>(
        dataset.graph, *gtree_, dataset.store, *dataset.inverted,
        *dataset.relevance, /*use_per_keyword_occurrence=*/true);
  }
  if (selection.road) {
    // ROAD shares the keyword aggregates with the G-tree baseline.
    if (gtree_sk_ == nullptr) {
      gtree_sk_ = std::make_unique<GTreeSpatialKeyword>(
          dataset.graph, *gtree_, dataset.store, *dataset.inverted,
          *dataset.relevance, false);
    }
    road_ = std::make_unique<RoadBaseline>(dataset.graph, *gtree_,
                                           dataset.store, *dataset.relevance,
                                           gtree_sk_->Aggregates());
  }
  if (selection.fs_fbs) {
    timer.Restart();
    FsFbsOptions options;
    options.max_backward_entries = selection.fs_fbs_budget;
    try {
      fs_fbs_ = std::make_unique<FsFbs>(dataset.graph, *hl_, dataset.store,
                                        *dataset.inverted, options);
    } catch (const std::runtime_error& e) {
      fs_fbs_failure_ = e.what();
    }
    fs_fbs_build_seconds_ = timer.ElapsedSeconds();
  }
  if (selection.expansion) {
    expansion_ = std::make_unique<NetworkExpansionBaseline>(
        dataset.graph, dataset.store, *dataset.inverted, *dataset.relevance);
  }
}

std::size_t EngineSet::ChMemory() const {
  return ch_ ? ch_->MemoryBytes() : 0;
}
std::size_t EngineSet::HlMemory() const {
  return hl_ ? hl_->MemoryBytes() : 0;
}
std::size_t EngineSet::GtreeMemory() const {
  return gtree_ ? gtree_->MemoryBytes() : 0;
}
std::size_t EngineSet::FsFbsMemory() const {
  return fs_fbs_ ? fs_fbs_->MemoryBytes() : 0;
}
std::size_t EngineSet::KspinMemory() const {
  std::size_t total = 0;
  if (keyword_index_ != nullptr) total += keyword_index_->MemoryBytes();
  if (alt_ != nullptr) total += alt_->MemoryBytes();
  if (dataset_.inverted != nullptr) total += dataset_.inverted->MemoryBytes();
  return total;
}

std::function<std::unique_ptr<QueryProcessor>()>
EngineSet::KsChProcessorFactory() {
  return [this] {
    return std::make_unique<QueryProcessor>(
        dataset_.store, *dataset_.inverted, *dataset_.relevance,
        *keyword_index_, *alt_, *ch_oracle_);
  };
}

std::function<std::unique_ptr<QueryProcessor>()>
EngineSet::KsHlProcessorFactory() {
  return [this] {
    return std::make_unique<QueryProcessor>(
        dataset_.store, *dataset_.inverted, *dataset_.relevance,
        *keyword_index_, *alt_, *hl_oracle_);
  };
}

Measurement MeasureQueries(
    const std::vector<SpatialKeywordQuery>& queries,
    std::size_t max_queries, double budget_seconds,
    const std::function<void(const SpatialKeywordQuery&)>& query) {
  Measurement m;
  if (queries.empty()) return m;
  Timer timer;
  std::size_t i = 0;
  const std::size_t min_queries = std::min<std::size_t>(8, queries.size());
  while (m.queries < max_queries) {
    query(queries[i]);
    ++m.queries;
    i = (i + 1) % queries.size();
    if (m.queries >= min_queries && timer.ElapsedSeconds() > budget_seconds) {
      break;
    }
  }
  const double total = timer.ElapsedSeconds();
  m.avg_ms = total * 1e3 / static_cast<double>(m.queries);
  m.qps = m.avg_ms > 0 ? 1000.0 / m.avg_ms : 0.0;
  return m;
}

QueryWorkload MakeWorkload(const Dataset& dataset, bool quick) {
  WorkloadOptions options;
  options.num_seed_terms = 5;
  options.objects_per_term = quick ? 2 : 6;
  options.vertices_per_vector = quick ? 3 : 10;
  return QueryWorkload(dataset.graph, dataset.store, *dataset.inverted,
                       options);
}

void PrintHeader(const std::string& figure, const Dataset& dataset,
                 const std::vector<std::string>& columns) {
  std::printf("\n=== %s | dataset=%s |V|=%zu |E|=%zu |O|=%zu |W|=%u ===\n",
              figure.c_str(), dataset.spec.name.c_str(),
              dataset.graph.NumVertices(), dataset.graph.NumEdges(),
              dataset.store.NumLiveObjects(), dataset.spec.num_keywords);
  std::printf("%-24s", "config");
  for (const std::string& column : columns) {
    std::printf("\t%s", column.c_str());
  }
  std::printf("\n");
}

void PrintRow(const std::string& label, const std::vector<double>& cells) {
  std::printf("%-24s", label.c_str());
  for (double cell : cells) {
    if (cell == static_cast<std::int64_t>(cell) && std::abs(cell) < 1e15) {
      std::printf("\t%lld", static_cast<long long>(cell));
    } else {
      std::printf("\t%.3f", cell);
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

double ToMb(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

namespace {

// One sweep cell: an untimed pass over its queries, within the same
// budget, then MeasureQueries. A sweep times every cell on one engine, so
// without the pass its first column would pay for warming the caches and
// memos that later columns reuse. The sweep's callables pass no
// QueryStats, so the pass only reads.
double MeasureWarm(
    const std::vector<SpatialKeywordQuery>& queries, std::size_t max_queries,
    double budget_seconds,
    const std::function<void(const SpatialKeywordQuery&)>& query) {
  Timer warm;
  const std::size_t n = std::min(max_queries, queries.size());
  for (std::size_t i = 0; i < n && warm.ElapsedSeconds() <= budget_seconds;
       ++i) {
    query(queries[i]);
  }
  return MeasureQueries(queries, max_queries, budget_seconds, query).avg_ms;
}

}  // namespace

void RunParameterSweep(const std::string& figure, const Dataset& dataset,
                       QueryWorkload& workload,
                       const std::vector<NamedMethod>& methods,
                       bool quick) {
  const std::size_t max_queries = quick ? 30 : 200;
  const double budget = quick ? 0.6 : 2.0;

  // (a) varying k, 2 query keywords.
  {
    std::vector<std::string> columns;
    for (std::uint32_t k : {1u, 5u, 10u, 25u, 50u}) {
      columns.push_back("k" + std::to_string(k) + "_ms");
    }
    PrintHeader(figure + "a: query time vs k (2 terms)", dataset, columns);
    std::vector<SpatialKeywordQuery> queries(
        workload.QueriesForLength(2).begin(),
        workload.QueriesForLength(2).end());
    for (const NamedMethod& method : methods) {
      std::vector<double> cells;
      for (std::uint32_t k : {1u, 5u, 10u, 25u, 50u}) {
        cells.push_back(
            MeasureWarm(queries, max_queries, budget,
                        [&](const SpatialKeywordQuery& q) {
                          method.run(q.vertex, k, q.keywords, nullptr);
                        }));
      }
      PrintRow(method.name, cells);
    }
  }

  // (b) varying number of query keywords, k = 10.
  {
    std::vector<std::string> columns;
    for (std::uint32_t terms = 1; terms <= 6; ++terms) {
      columns.push_back("t" + std::to_string(terms) + "_ms");
    }
    PrintHeader(figure + "b: query time vs #terms (k=10)", dataset,
                columns);
    for (const NamedMethod& method : methods) {
      std::vector<double> cells;
      for (std::uint32_t terms = 1; terms <= 6; ++terms) {
        std::vector<SpatialKeywordQuery> queries(
            workload.QueriesForLength(terms).begin(),
            workload.QueriesForLength(terms).end());
        cells.push_back(
            MeasureWarm(queries, max_queries, budget,
                        [&](const SpatialKeywordQuery& q) {
                          method.run(q.vertex, 10, q.keywords, nullptr);
                        }));
      }
      PrintRow(method.name, cells);
    }
  }
}

void RunCounterComparison(const std::string& figure, const Dataset& dataset,
                          QueryWorkload& workload,
                          const std::vector<NamedMethod>& methods,
                          bool quick) {
  // A FIXED query set — no time budget — so every method pays for the
  // exact same queries and the counters compare apples to apples.
  std::vector<SpatialKeywordQuery> queries(
      workload.QueriesForLength(2).begin(),
      workload.QueriesForLength(2).end());
  if (queries.empty()) return;
  const std::size_t count = std::min<std::size_t>(quick ? 30 : 200,
                                                  queries.size() * 8);
  constexpr std::uint32_t kK = 10;

  std::printf("\n=== %s: engine counters (JSON, %zu identical queries, "
              "k=%u, 2 terms, dataset %s) ===\n",
              figure.c_str(), count, kK, dataset.spec.name.c_str());
  for (const NamedMethod& method : methods) {
    QueryStats stats;
    Timer timer;
    for (std::size_t i = 0; i < count; ++i) {
      const SpatialKeywordQuery& q = queries[i % queries.size()];
      method.run(q.vertex, kK, q.keywords, &stats);
    }
    const double avg_ms = timer.ElapsedSeconds() * 1e3 /
                          static_cast<double>(count);
    std::printf(
        "{\"method\":\"%s\",\"queries\":%zu,\"avg_ms\":%.4f,"
        "\"distance_computations\":%llu,"
        "\"false_positive_distances\":%llu,"
        "\"candidates_extracted\":%llu,\"lower_bounds_computed\":%llu,"
        "\"candidates_pruned_lb\":%llu,\"heaps_created\":%llu,"
        "\"heap_insertions\":%llu,\"results_returned\":%llu,"
        "\"heap_build_ns\":%llu,\"search_ns\":%llu}\n",
        method.name.c_str(), count, avg_ms,
        static_cast<unsigned long long>(stats.network_distance_computations),
        static_cast<unsigned long long>(stats.false_positive_distances),
        static_cast<unsigned long long>(stats.candidates_extracted),
        static_cast<unsigned long long>(stats.lower_bounds_computed),
        static_cast<unsigned long long>(stats.candidates_pruned_lb),
        static_cast<unsigned long long>(stats.heaps_created),
        static_cast<unsigned long long>(stats.heap_insertions),
        static_cast<unsigned long long>(stats.results_returned),
        static_cast<unsigned long long>(stats.heap_build_ns),
        static_cast<unsigned long long>(stats.search_ns));
  }
  std::fflush(stdout);
}

}  // namespace kspin::bench
