// The K-SPIN Query Processor (paper Section 4): Boolean kNN queries
// (disjunctive — Algorithm 1 — and conjunctive), top-k spatial keyword
// queries with pseudo lower-bound scores (Algorithms 2 and 3), and the
// mixed-operator CNF extension the paper sketches in Section 2.
//
// All algorithms return *exact* results; lower bounds from the ALT module
// and the pseudo lower-bound scores only delay or avoid expensive network
// distance computations.
#ifndef KSPIN_KSPIN_QUERY_PROCESSOR_H_
#define KSPIN_KSPIN_QUERY_PROCESSOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "kspin/inverted_heap.h"
#include "kspin/keyword_index.h"
#include "kspin/query_control.h"
#include "kspin/query_workspace.h"
#include "routing/lower_bound.h"
#include "routing/distance_oracle.h"
#include "text/document_store.h"
#include "text/inverted_index.h"
#include "text/relevance.h"

namespace kspin {

/// Boolean operator of a BkNN query.
enum class BooleanOp {
  kDisjunctive,  ///< Object must contain at least one query keyword.
  kConjunctive,  ///< Object must contain all query keywords.
};

/// One BkNN result.
struct BkNNResult {
  ObjectId object = kInvalidObject;
  Distance distance = kInfDistance;

  friend bool operator==(const BkNNResult&, const BkNNResult&) = default;
};

/// One top-k result (score = weighted distance, Equation 1).
struct TopKResult {
  ObjectId object = kInvalidObject;
  double score = 0.0;
  Distance distance = kInfDistance;
  double relevance = 0.0;
};

/// Per-query work counters (benchmarks, ablations, and the server's
/// observability layer — docs/observability.md). Plain integers: the hot
/// path bumps fields of a stack-local instance and the caller folds the
/// whole struct into aggregates once per query (zero atomics per query).
struct QueryStats {
  std::uint64_t network_distance_computations = 0;
  std::uint64_t candidates_extracted = 0;  ///< kappa: inverted-heap pops.
  std::uint64_t lower_bounds_computed = 0;
  std::uint64_t heaps_created = 0;
  std::uint64_t heap_insertions = 0;
  /// Inverted-heap flushes and candidates priced across them
  /// (docs/performance.md). items / calls = mean frontier per flush.
  std::uint64_t lb_batch_calls = 0;
  std::uint64_t lb_batch_items = 0;
  /// Distances computed for objects that did not make the final top-k —
  /// the "aggregation penalty" K-SPIN's per-keyword indexes avoid.
  /// Invariant: false_positive_distances <= network_distance_computations.
  std::uint64_t false_positive_distances = 0;
  /// Candidates discarded by a lower-bound score before paying a network
  /// distance computation (Algorithm 3 line 10 and G-tree border bounds).
  std::uint64_t candidates_pruned_lb = 0;
  std::uint64_t results_returned = 0;
  /// Per-stage wall-clock timings (steady clock, nanoseconds).
  std::uint64_t heap_build_ns = 0;  ///< Heap generation / index descent.
  std::uint64_t search_ns = 0;      ///< Main best-first search loop.

  QueryStats& operator+=(const QueryStats& o) {
    network_distance_computations += o.network_distance_computations;
    candidates_extracted += o.candidates_extracted;
    lower_bounds_computed += o.lower_bounds_computed;
    heaps_created += o.heaps_created;
    heap_insertions += o.heap_insertions;
    lb_batch_calls += o.lb_batch_calls;
    lb_batch_items += o.lb_batch_items;
    false_positive_distances += o.false_positive_distances;
    candidates_pruned_lb += o.candidates_pruned_lb;
    results_returned += o.results_returned;
    heap_build_ns += o.heap_build_ns;
    search_ns += o.search_ns;
    return *this;
  }
};

/// Query algorithms over the K-SPIN module stack.
///
/// A processor owns its oracle workspace and query scratch, so distinct
/// processors over the same (shared, immutable) module stack may run on
/// distinct threads concurrently. One processor serves one query at a
/// time.
class QueryProcessor {
 public:
  QueryProcessor(const DocumentStore& store, const InvertedIndex& inverted,
                 const RelevanceModel& relevance,
                 const KeywordIndex& keyword_index,
                 const LowerBoundModule& lower_bounds,
                 const DistanceOracle& oracle)
      : store_(store),
        inverted_(inverted),
        relevance_(relevance),
        keyword_index_(keyword_index),
        lower_bounds_(lower_bounds),
        oracle_(oracle),
        oracle_workspace_(oracle.MakeWorkspace()),
        heap_generator_(keyword_index, lower_bounds) {}

  /// Boolean kNN query (q, k, psi, op). Results ascend by distance (ties
  /// by object id). Fewer than k results are returned when fewer objects
  /// satisfy the criteria. A non-null `control` is polled cooperatively;
  /// expiry throws QueryCancelledError.
  std::vector<BkNNResult> BooleanKnn(VertexId q, std::uint32_t k,
                                     std::span<const KeywordId> keywords,
                                     BooleanOp op, QueryStats* stats = nullptr,
                                     const QueryControl* control = nullptr);

  /// Mixed-operator extension: conjunction of disjunctive clauses, e.g.
  /// {"thai"} AND {"takeaway" OR "restaurant"}. Each clause is a keyword
  /// set; an object qualifies if it contains a keyword of every clause.
  std::vector<BkNNResult> BooleanKnnCnf(
      VertexId q, std::uint32_t k,
      std::span<const std::vector<KeywordId>> clauses,
      QueryStats* stats = nullptr, const QueryControl* control = nullptr);

  /// Top-k spatial keyword query (Algorithm 3 with Algorithm 2's pseudo
  /// lower-bound scores) under the default weighted-distance scoring
  /// (Equation 1). Results ascend by score.
  std::vector<TopKResult> TopK(VertexId q, std::uint32_t k,
                               std::span<const KeywordId> keywords,
                               QueryStats* stats = nullptr,
                               const QueryControl* control = nullptr) {
    return TopK(q, k, keywords, ScoringFunction{}, stats, control);
  }

  /// Top-k with an explicit scoring function (weighted distance or
  /// weighted sum — the framework is orthogonal to the combination, paper
  /// Section 2). The pseudo lower bound generalizes because the score is
  /// monotone in distance and relevance.
  std::vector<TopKResult> TopK(VertexId q, std::uint32_t k,
                               std::span<const KeywordId> keywords,
                               const ScoringFunction& scoring,
                               QueryStats* stats = nullptr,
                               const QueryControl* control = nullptr);

  /// Incremental top-k: results are produced one at a time in ascending
  /// score order, so callers can paginate ("show 10 more") without
  /// recomputing. Holds references into the processor; do not outlive it
  /// or mutate the indexes while streaming.
  class TopKStream {
   public:
    /// The next-best result, or std::nullopt when exhausted.
    std::optional<TopKResult> Next();

    /// Total results produced so far.
    std::size_t Produced() const { return produced_; }

   private:
    friend class QueryProcessor;
    struct State;
    explicit TopKStream(std::shared_ptr<State> state);
    std::shared_ptr<State> state_;
    std::size_t produced_ = 0;
  };

  /// Opens an incremental top-k stream (default weighted-distance
  /// scoring). Exact: the i-th Next() is the i-th best object.
  TopKStream OpenTopKStream(VertexId q,
                            std::span<const KeywordId> keywords,
                            const ScoringFunction& scoring = {});

  /// Ablation switch: when disabled, TopK ranks heaps by the *valid*
  /// lower-bound score ST_all = MINKEY(H_i) / TR_max(psi) instead of the
  /// pseudo lower bound (Section 4.2 contrasts the two). Results stay
  /// exact either way; the pseudo bound terminates sooner.
  void SetUsePseudoLowerBounds(bool enabled) {
    use_pseudo_lower_bounds_ = enabled;
  }

  /// Brownout switch (docs/protocol.md "Overload control & degradation"):
  /// when enabled, disjunctive and ranked searches skip the exact
  /// NetworkDistance refinement and rank candidates by their lower-bound
  /// distance / lower-bound score alone — the cheap index-only answer the
  /// paper's pruning machinery makes viable. Results are approximate
  /// (ranked by LB, distances reported as LBs); conjunctive queries stay
  /// exact. Per-processor, so one worker can degrade per-request.
  void SetApproximateMode(bool enabled) { approximate_mode_ = enabled; }
  bool ApproximateMode() const { return approximate_mode_; }

 private:
  // Disjunctive search over an explicit heap set with a candidate filter;
  // shared by BooleanKnn(disjunctive) and BooleanKnnCnf. The filter is a
  // template parameter so the per-candidate check inlines instead of going
  // through a type-erased std::function call. Defined in the .cc (all
  // instantiations live there).
  template <typename SatisfiesFn>
  std::vector<BkNNResult> DisjunctiveSearch(VertexId q, std::uint32_t k,
                                            std::vector<InvertedHeap>& heaps,
                                            const SatisfiesFn& satisfies,
                                            QueryStats* stats,
                                            const QueryControl* control);

  std::vector<BkNNResult> ConjunctiveKnn(VertexId q, std::uint32_t k,
                                         std::span<const KeywordId> keywords,
                                         QueryStats* stats,
                                         const QueryControl* control);

  const DocumentStore& store_;
  const InvertedIndex& inverted_;
  const RelevanceModel& relevance_;
  const KeywordIndex& keyword_index_;
  const LowerBoundModule& lower_bounds_;
  const DistanceOracle& oracle_;
  std::unique_ptr<OracleWorkspace> oracle_workspace_;
  QueryWorkspace workspace_;
  HeapGenerator heap_generator_;
  bool use_pseudo_lower_bounds_ = true;
  bool approximate_mode_ = false;
};

}  // namespace kspin

#endif  // KSPIN_KSPIN_QUERY_PROCESSOR_H_
