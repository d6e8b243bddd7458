// FS-FBS baseline (Jiang, Fu & Wong, SIGMOD'15): Boolean kNN keyword
// search over a 2-hop labeling and its inverse.
//
// Forward labels give d(q, h) to each hub h of the query vertex; backward
// labels list, for each hub, the vertices carrying it in ascending
// distance. A BkNN query merges the |L(q)| backward lists by candidate
// bound d(q,h) + d(h,v) — the first time a vertex surfaces, the bound is
// its exact distance.
//
// Keyword handling follows the original split:
//  - frequent keywords use keyword aggregation: every backward-label block
//    carries a bit-array signature of the keywords present on its
//    vertices' objects, so irrelevant blocks are skipped. Hash collisions
//    create false positives — the aggregation weakness the paper
//    highlights.
//  - infrequent keywords are answered by computing distances to the whole
//    inverted list (no ordered access — the second weakness).
//
// The backward index roughly doubles the (already large) label memory,
// reproducing FS-FBS's prohibitive footprint; `max_backward_entries`
// models the paper's "dataset too large to build index" failure mode.
#ifndef KSPIN_BASELINES_FS_FBS_H_
#define KSPIN_BASELINES_FS_FBS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "kspin/query_processor.h"
#include "routing/hub_labeling.h"
#include "text/document_store.h"
#include "text/inverted_index.h"

namespace kspin {

/// FS-FBS construction parameters.
struct FsFbsOptions {
  /// Keywords with |inv(t)| >= this use the frequent (aggregated) path.
  std::uint32_t frequent_threshold = 64;
  /// Backward-label entries per keyword-signature block.
  std::uint32_t block_size = 16;
  /// Construction aborts (std::runtime_error) past this many backward
  /// entries; 0 disables the guard.
  std::size_t max_backward_entries = 0;
};

/// Forward-backward search engine over hub labels.
class FsFbs {
 public:
  FsFbs(const Graph& graph, const HubLabeling& labels,
        const DocumentStore& store, const InvertedIndex& inverted,
        FsFbsOptions options = {});

  /// Boolean kNN (exact). FS-FBS does not support top-k queries.
  std::vector<BkNNResult> BooleanKnn(VertexId q, std::uint32_t k,
                                     std::span<const KeywordId> keywords,
                                     BooleanOp op,
                                     QueryStats* stats = nullptr);

  /// Backward index memory (entries + signatures), on top of the forward
  /// labels.
  std::size_t MemoryBytes() const;

 private:
  struct BackwardEntry {
    VertexId vertex;
    Distance distance;
  };

  static std::uint64_t KeywordBit(KeywordId t);
  std::uint64_t QueryMask(std::span<const KeywordId> keywords) const;

  std::vector<BkNNResult> FrequentSearch(
      VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
      BooleanOp op, QueryStats* stats) const;
  /// Appends every object whose exact distance it computes to `scanned`.
  std::vector<BkNNResult> ScanList(VertexId q, std::uint32_t k,
                                   std::span<const KeywordId> keywords,
                                   KeywordId scan_keyword, BooleanOp op,
                                   std::vector<ObjectId>* scanned,
                                   QueryStats* stats) const;

  const Graph& graph_;
  const HubLabeling& labels_;
  const DocumentStore& store_;
  const InvertedIndex& inverted_;
  FsFbsOptions options_;

  std::vector<std::size_t> hub_offsets_;      // |V|+1.
  std::vector<BackwardEntry> backward_;       // Grouped by hub, by distance.
  std::vector<std::size_t> sig_offsets_;      // |V|+1, into signatures_.
  std::vector<std::uint64_t> signatures_;     // One per block.
  std::unordered_map<VertexId, std::vector<ObjectId>> objects_at_;
};

}  // namespace kspin

#endif  // KSPIN_BASELINES_FS_FBS_H_
