// K-SPIN framework facade (paper Figure 2): wires the Lower Bounding
// Module (ALT), a pluggable Network Distance Module, the Keyword Separated
// Index, the Heap Generator and the Query Processor into one object, and
// routes dynamic updates (Section 6.2) through every affected structure.
//
// Typical use:
//
//   kspin::ContractionHierarchy ch(graph);
//   kspin::ChOracle oracle(ch);
//   kspin::KSpin engine(graph, std::move(store), oracle);
//   auto results = engine.TopK(q, 10, {t_hotel, t_pool});
#ifndef KSPIN_KSPIN_KSPIN_H_
#define KSPIN_KSPIN_KSPIN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "kspin/keyword_index.h"
#include "kspin/query_processor.h"
#include "routing/alt.h"
#include "routing/distance_oracle.h"
#include "text/document_store.h"
#include "text/inverted_index.h"
#include "text/relevance.h"

namespace kspin {

/// Framework-level construction knobs.
struct KSpinOptions {
  std::uint32_t rho = 5;  ///< rho-Approximate NVD candidate bound.
  ApxNvdStorage nvd_storage = ApxNvdStorage::kQuadtree;
  std::uint32_t lazy_insert_threshold = 64;
  std::uint32_t num_landmarks = 16;  ///< ALT Lower Bounding Module size.
  /// Compose the index-free Euclidean heuristic with ALT so the Lower
  /// Bounding Module returns the tightest of both (Section 3's "multiple
  /// heuristics"). Requires graph coordinates.
  bool use_euclidean_heuristic = false;
  unsigned num_threads = 0;          ///< Parallel index build (0 = all).
  std::uint64_t seed = 7;
};

/// The K-SPIN engine. Owns the textual structures and keyword indexes;
/// borrows the graph and the Network Distance Module (any DistanceOracle).
class KSpin {
 public:
  /// Builds every K-SPIN-side index. `oracle` must outlive the engine.
  KSpin(const Graph& graph, DocumentStore store, DistanceOracle& oracle,
        KSpinOptions options = {});

  /// Restores an engine from snapshot-loaded artifacts instead of
  /// rebuilding them: `alt` and `keyword_index` must have been built over
  /// (a graph identical to) `graph` and `store`. The cheap textual
  /// structures (inverted index, relevance model) are derived from the
  /// store. `initial_generation` seeds StructureGeneration(): a server
  /// swapping engines on RELOAD passes old-generation + 1 so processors
  /// cached against the previous engine can never alias the new one.
  KSpin(const Graph& graph, DocumentStore store, DistanceOracle& oracle,
        std::unique_ptr<AltIndex> alt,
        std::unique_ptr<KeywordIndex> keyword_index, KSpinOptions options,
        std::uint64_t initial_generation);

  // Internal components hold references into the engine; copying or moving
  // would dangle them. Construct in place (guaranteed elision covers
  // factory-style returns).
  KSpin(const KSpin&) = delete;
  KSpin& operator=(const KSpin&) = delete;

  // ----- Queries ---------------------------------------------------------

  /// Boolean kNN (Section 4.1). Exact. A non-null `control` is polled
  /// cooperatively; expiry throws QueryCancelledError.
  std::vector<BkNNResult> BooleanKnn(VertexId q, std::uint32_t k,
                                     std::span<const KeywordId> keywords,
                                     BooleanOp op, QueryStats* stats = nullptr,
                                     const QueryControl* control = nullptr) {
    return processor_->BooleanKnn(q, k, keywords, op, stats, control);
  }

  /// Mixed-operator Boolean kNN over a conjunction of disjunctive clauses.
  std::vector<BkNNResult> BooleanKnnCnf(
      VertexId q, std::uint32_t k,
      std::span<const std::vector<KeywordId>> clauses,
      QueryStats* stats = nullptr, const QueryControl* control = nullptr) {
    return processor_->BooleanKnnCnf(q, k, clauses, stats, control);
  }

  /// Top-k spatial keyword query (Section 4.2). Exact.
  std::vector<TopKResult> TopK(VertexId q, std::uint32_t k,
                               std::span<const KeywordId> keywords,
                               QueryStats* stats = nullptr,
                               const QueryControl* control = nullptr) {
    return processor_->TopK(q, k, keywords, stats, control);
  }

  /// Top-k with an explicit scoring function (weighted distance or
  /// weighted sum).
  std::vector<TopKResult> TopK(VertexId q, std::uint32_t k,
                               std::span<const KeywordId> keywords,
                               const ScoringFunction& scoring,
                               QueryStats* stats = nullptr,
                               const QueryControl* control = nullptr) {
    return processor_->TopK(q, k, keywords, scoring, stats, control);
  }

  // ----- Updates (Section 6.2) -------------------------------------------

  /// Inserts a new object; lazily updates each keyword's APX-NVD. Returns
  /// the new object id.
  ObjectId InsertObject(VertexId vertex, std::vector<DocEntry> document);

  /// Deletes an object (tombstones in every keyword index).
  void DeleteObject(ObjectId o);

  /// Adds / removes a keyword on an existing object.
  void AddKeywordToObject(ObjectId o, KeywordId keyword,
                          std::uint32_t frequency = 1);
  void RemoveKeywordFromObject(ObjectId o, KeywordId keyword);

  /// Rebuilds keyword indexes whose lazy-update budgets are exhausted
  /// (run periodically / in the background); returns #rebuilt.
  std::size_t MaintainIndexes() { return keyword_index_->RebuildPending(); }

  // ----- Concurrent serving ------------------------------------------------

  /// Creates an independent QueryProcessor over the engine's current
  /// module stack. Each processor owns its oracle workspace and query
  /// scratch, so distinct processors may serve queries from distinct
  /// threads concurrently (while no update runs). A processor is
  /// invalidated when StructureGeneration() changes — certain updates
  /// rebuild the inverted index / relevance model it references — and
  /// must then be re-created.
  std::unique_ptr<QueryProcessor> MakeProcessor() const {
    return std::make_unique<QueryProcessor>(store_, *inverted_, *relevance_,
                                            *keyword_index_, *lower_bounds_,
                                            oracle_);
  }

  /// Bumped whenever an update rebuilds components that externally held
  /// processors reference. Compare before reusing a MakeProcessor result.
  std::uint64_t StructureGeneration() const { return generation_; }

  /// The engine's own processor, which the query methods above run on; one
  /// thread at a time. An update that bumps StructureGeneration() replaces
  /// it, so do not hold the reference across updates.
  QueryProcessor& Processor() { return *processor_; }

  // ----- Component access --------------------------------------------------

  const Graph& NetworkGraph() const { return graph_; }
  const DocumentStore& Store() const { return store_; }
  const InvertedIndex& Inverted() const { return *inverted_; }
  const RelevanceModel& Relevance() const { return *relevance_; }
  const KeywordIndex& Keywords() const { return *keyword_index_; }
  const AltIndex& Alt() const { return *alt_; }
  /// The active Lower Bounding Module (ALT, possibly composed with the
  /// Euclidean heuristic).
  const LowerBoundModule& LowerBounds() const { return *lower_bounds_; }
  DistanceOracle& Oracle() { return oracle_; }

  /// K-SPIN-side index memory (keyword indexes + ALT), excluding the
  /// Network Distance Module (reported separately, as in Table 1).
  std::size_t IndexMemoryBytes() const {
    return keyword_index_->MemoryBytes() + alt_->MemoryBytes() +
           inverted_->MemoryBytes();
  }

 private:
  const Graph& graph_;
  DocumentStore store_;
  DistanceOracle& oracle_;
  std::unique_ptr<InvertedIndex> inverted_;
  std::unique_ptr<RelevanceModel> relevance_;
  std::unique_ptr<AltIndex> alt_;
  std::unique_ptr<EuclideanLowerBound> euclidean_;
  std::unique_ptr<MaxLowerBound> composite_;
  const LowerBoundModule* lower_bounds_ = nullptr;
  std::unique_ptr<KeywordIndex> keyword_index_;
  std::unique_ptr<QueryProcessor> processor_;
  std::uint64_t generation_ = 0;
};

}  // namespace kspin

#endif  // KSPIN_KSPIN_KSPIN_H_
