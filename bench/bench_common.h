// Shared infrastructure for the per-table / per-figure benchmark harnesses.
//
// Each bench binary reproduces one table or figure of the paper's
// evaluation (see DESIGN.md section 2 for the index). Binaries accept:
//   --dataset=NAME   (DE, ME, FL, E, US; default depends on the bench)
//   --quick          (shrink workloads ~4x for smoke runs)
// and print machine-readable tables: one row per configuration with
// tab-separated columns, plus a header naming the figure being reproduced.
#ifndef KSPIN_BENCH_BENCH_COMMON_H_
#define KSPIN_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/fs_fbs.h"
#include "baselines/gtree_spatial_keyword.h"
#include "baselines/network_expansion.h"
#include "baselines/road.h"
#include "graph/graph.h"
#include "graph/road_network_generator.h"
#include "kspin/kspin.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "routing/gtree.h"
#include "routing/hub_labeling.h"
#include "text/inverted_index.h"
#include "text/query_workload.h"
#include "text/relevance.h"
#include "text/zipf_generator.h"

namespace kspin::bench {

/// Parsed command line.
struct BenchArgs {
  std::string dataset;  ///< Empty = bench-specific default.
  bool quick = false;
  bool full = false;
};

BenchArgs ParseArgs(int argc, char** argv);

/// A generated dataset: graph + documents + derived text structures.
struct Dataset {
  DatasetSpec spec;
  Graph graph;
  DocumentStore store;
  std::unique_ptr<InvertedIndex> inverted;
  std::unique_ptr<RelevanceModel> relevance;

  static Dataset Load(const std::string& name);
};

/// Which engines a bench needs (index builds are the expensive part).
struct EngineSelection {
  bool ks_ch = false;    ///< K-SPIN + Contraction Hierarchies.
  bool ks_hl = false;    ///< K-SPIN + hub labels (the paper's KS-PHL).
  bool ks_gt = false;    ///< K-SPIN + G-tree (Section 7.4's KS-GT).
  bool gtree_sk = false;     ///< Keyword-aggregated G-tree baseline.
  bool gtree_opt = false;    ///< Gtree-Opt variant.
  bool road = false;         ///< ROAD-style overlay baseline.
  bool fs_fbs = false;       ///< FS-FBS baseline (BkNN only).
  bool expansion = false;    ///< Network-expansion sanity baseline.
  std::uint32_t rho = 5;
  /// FS-FBS memory budget in backward entries; mirrors the paper's
  /// "dataset too large to build index" failure on big datasets.
  std::size_t fs_fbs_budget = 500000;
};

/// All engines over one dataset, with per-index build times and sizes.
/// The K-SPIN side (ALT + Keyword Separated Index) is built once and
/// shared by all three oracle variants — exactly the decoupling the
/// framework advertises.
class EngineSet {
 public:
  EngineSet(Dataset& dataset, const EngineSelection& selection);

  // Null for engines that were not selected (or failed their budget).
  QueryProcessor* KsCh() { return ks_ch_.get(); }
  QueryProcessor* KsHl() { return ks_hl_.get(); }
  QueryProcessor* KsGt() { return ks_gt_.get(); }
  GTreeSpatialKeyword* GtreeSk() { return gtree_sk_.get(); }
  GTreeSpatialKeyword* GtreeOpt() { return gtree_opt_.get(); }
  RoadBaseline* Road() { return road_.get(); }
  FsFbs* FsFbsEngine() { return fs_fbs_.get(); }
  NetworkExpansionBaseline* Expansion() { return expansion_.get(); }
  GTree* GetGTree() { return gtree_.get(); }
  const std::string& FsFbsFailure() const { return fs_fbs_failure_; }

  double ChBuildSeconds() const { return ch_build_seconds_; }
  double HlBuildSeconds() const { return hl_build_seconds_; }
  double GtreeBuildSeconds() const { return gtree_build_seconds_; }
  double FsFbsBuildSeconds() const { return fs_fbs_build_seconds_; }
  double KspinBuildSeconds() const { return kspin_build_seconds_; }

  std::size_t ChMemory() const;
  std::size_t HlMemory() const;
  std::size_t GtreeMemory() const;
  std::size_t FsFbsMemory() const;
  /// K-SPIN-side index memory (keyword index + ALT + inverted lists).
  std::size_t KspinMemory() const;

 private:
  Dataset& dataset_;
  std::unique_ptr<ContractionHierarchy> ch_;
  std::unique_ptr<HubLabeling> hl_;
  std::unique_ptr<GTree> gtree_;
  std::unique_ptr<ChOracle> ch_oracle_;
  std::unique_ptr<HubLabelOracle> hl_oracle_;
  std::unique_ptr<GTreeOracle> gtree_oracle_;
  std::unique_ptr<AltIndex> alt_;
  std::unique_ptr<KeywordIndex> keyword_index_;
  std::unique_ptr<QueryProcessor> ks_ch_;
  std::unique_ptr<QueryProcessor> ks_hl_;
  std::unique_ptr<QueryProcessor> ks_gt_;
  std::unique_ptr<GTreeSpatialKeyword> gtree_sk_;
  std::unique_ptr<GTreeSpatialKeyword> gtree_opt_;
  std::unique_ptr<RoadBaseline> road_;
  std::unique_ptr<FsFbs> fs_fbs_;
  std::unique_ptr<NetworkExpansionBaseline> expansion_;
  std::string fs_fbs_failure_;
  double ch_build_seconds_ = 0, hl_build_seconds_ = 0,
         gtree_build_seconds_ = 0, fs_fbs_build_seconds_ = 0,
         kspin_build_seconds_ = 0;
};

/// Timing result for one (method, configuration) cell.
struct Measurement {
  double avg_ms = 0.0;       ///< Mean query latency.
  double qps = 0.0;          ///< Queries per second (1000 / avg_ms).
  std::size_t queries = 0;   ///< Number of queries measured.
};

/// Runs `query` over `queries` until `max_queries` or `budget_seconds` is
/// exhausted (whichever first; at least `min_queries`). The callable gets
/// one SpatialKeywordQuery at a time.
Measurement MeasureQueries(
    const std::vector<SpatialKeywordQuery>& queries,
    std::size_t max_queries, double budget_seconds,
    const std::function<void(const SpatialKeywordQuery&)>& query);

/// Standard workload for a dataset (paper Section 7.1: correlated keyword
/// vectors x uniform vertices). `quick` shrinks it.
QueryWorkload MakeWorkload(const Dataset& dataset, bool quick);

/// Prints a table header: figure id, dataset, columns.
void PrintHeader(const std::string& figure, const Dataset& dataset,
                 const std::vector<std::string>& columns);

/// One formatted row: first cell is the row label, then numeric cells.
void PrintRow(const std::string& label, const std::vector<double>& cells);

/// Formats bytes as MB with two decimals.
double ToMb(std::size_t bytes);

/// A named query method for the k / #terms parameter sweeps (Figures
/// 9-11): the callable runs one query, folding engine counters into
/// `stats` when non-null (timing sweeps pass nullptr — the zero-cost
/// path — and RunCounterComparison passes an accumulator).
struct NamedMethod {
  std::string name;
  std::function<void(VertexId, std::uint32_t, std::span<const KeywordId>,
                     QueryStats*)>
      run;
};

/// The paper's two standard sweeps: (a) k in {1,5,10,25,50} at 2 terms,
/// (b) #terms in 1..6 at k=10. Prints average ms per method per setting.
/// Each cell runs one untimed pass over its queries before it is timed,
/// so a cell's time does not depend on the cells swept before it.
void RunParameterSweep(const std::string& figure, const Dataset& dataset,
                       QueryWorkload& workload,
                       const std::vector<NamedMethod>& methods, bool quick);

/// Runs every method over the SAME fixed query set (2 terms, k=10) with
/// QueryStats accumulation and prints one JSON object per method: engine
/// counters plus mean latency. This is the apples-to-apples evidence that
/// K-SPIN's per-keyword indexes pay fewer false-positive exact distances
/// than the keyword-aggregated G-tree (docs/observability.md).
void RunCounterComparison(const std::string& figure, const Dataset& dataset,
                          QueryWorkload& workload,
                          const std::vector<NamedMethod>& methods,
                          bool quick);

}  // namespace kspin::bench

#endif  // KSPIN_BENCH_BENCH_COMMON_H_
