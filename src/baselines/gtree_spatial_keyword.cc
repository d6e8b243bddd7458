#include "baselines/gtree_spatial_keyword.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <queue>
#include <stdexcept>

namespace kspin {
namespace {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Post-order listing of tree nodes (children before parents).
std::vector<GTree::NodeId> PostOrder(const GTree& gtree) {
  std::vector<GTree::NodeId> order;
  order.reserve(gtree.NumNodes());
  std::vector<std::pair<GTree::NodeId, bool>> stack = {
      {gtree.RootNode(), false}};
  while (!stack.empty()) {
    auto [node, expanded] = stack.back();
    stack.pop_back();
    if (expanded || gtree.IsLeaf(node)) {
      order.push_back(node);
      continue;
    }
    stack.push_back({node, true});
    for (GTree::NodeId child : gtree.Children(node)) {
      stack.push_back({child, false});
    }
  }
  return order;
}

}  // namespace

NodeKeywordAggregates::NodeKeywordAggregates(const GTree& gtree,
                                             const DocumentStore& store) {
  docs_.resize(gtree.NumNodes());
  occupancy_.assign(gtree.NumNodes(), 0);
  leaf_objects_.resize(gtree.NumNodes());
  std::vector<std::uint32_t> object_counts(gtree.NumNodes(), 0);

  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    if (!store.IsLive(o)) continue;
    leaf_objects_[gtree.LeafOf(store.ObjectVertex(o))].push_back(o);
  }

  for (GTree::NodeId node : PostOrder(gtree)) {
    PseudoDoc& doc = docs_[node];
    if (gtree.IsLeaf(node)) {
      // Aggregate object documents (sorted merge via map-then-sort).
      std::unordered_map<KeywordId, std::uint32_t> agg;
      for (ObjectId o : leaf_objects_[node]) {
        for (const DocEntry& e : store.Document(o)) {
          agg[e.keyword] += e.frequency;
        }
      }
      doc.keywords.reserve(agg.size());
      for (const auto& [t, f] : agg) doc.keywords.push_back(t);
      std::sort(doc.keywords.begin(), doc.keywords.end());
      doc.frequencies.resize(doc.keywords.size());
      doc.child_masks.assign(doc.keywords.size(), 0);
      for (std::size_t i = 0; i < doc.keywords.size(); ++i) {
        doc.frequencies[i] = agg[doc.keywords[i]];
      }
      object_counts[node] =
          static_cast<std::uint32_t>(leaf_objects_[node].size());
      continue;
    }
    const std::vector<GTree::NodeId>& children = gtree.Children(node);
    if (children.size() > 8) {
      throw std::invalid_argument(
          "NodeKeywordAggregates: fanout > 8 unsupported by child masks");
    }
    std::unordered_map<KeywordId, std::pair<std::uint32_t, std::uint8_t>>
        agg;  // keyword -> (summed frequency, child mask)
    for (std::size_t c = 0; c < children.size(); ++c) {
      const PseudoDoc& child_doc = docs_[children[c]];
      for (std::size_t i = 0; i < child_doc.keywords.size(); ++i) {
        auto& slot = agg[child_doc.keywords[i]];
        slot.first += child_doc.frequencies[i];
        slot.second |= static_cast<std::uint8_t>(1u << c);
      }
      object_counts[node] += object_counts[children[c]];
      if (object_counts[children[c]] > 0) {
        occupancy_[node] |= (1u << c);
      }
    }
    doc.keywords.reserve(agg.size());
    for (const auto& [t, entry] : agg) doc.keywords.push_back(t);
    std::sort(doc.keywords.begin(), doc.keywords.end());
    doc.frequencies.resize(doc.keywords.size());
    doc.child_masks.resize(doc.keywords.size());
    for (std::size_t i = 0; i < doc.keywords.size(); ++i) {
      const auto& entry = agg[doc.keywords[i]];
      doc.frequencies[i] = entry.first;
      doc.child_masks[i] = entry.second;
    }
  }
}

bool NodeKeywordAggregates::NodeContains(GTree::NodeId node,
                                         KeywordId t) const {
  return NodeFrequency(node, t) > 0;
}

std::uint32_t NodeKeywordAggregates::NodeFrequency(GTree::NodeId node,
                                                   KeywordId t) const {
  const PseudoDoc& doc = docs_[node];
  const auto it =
      std::lower_bound(doc.keywords.begin(), doc.keywords.end(), t);
  if (it == doc.keywords.end() || *it != t) return 0;
  return doc.frequencies[it - doc.keywords.begin()];
}

std::uint32_t NodeKeywordAggregates::KeywordOccupancyMask(GTree::NodeId node,
                                                          KeywordId t) const {
  const PseudoDoc& doc = docs_[node];
  const auto it =
      std::lower_bound(doc.keywords.begin(), doc.keywords.end(), t);
  if (it == doc.keywords.end() || *it != t) return 0;
  return doc.child_masks[it - doc.keywords.begin()];
}

std::size_t NodeKeywordAggregates::MemoryBytes() const {
  std::size_t total = occupancy_.size() * sizeof(std::uint32_t);
  for (const PseudoDoc& doc : docs_) {
    total += doc.keywords.size() *
             (sizeof(KeywordId) + sizeof(std::uint32_t) + 1);
  }
  for (const auto& list : leaf_objects_) {
    total += list.size() * sizeof(ObjectId);
  }
  return total;
}

GTreeSpatialKeyword::GTreeSpatialKeyword(const Graph& graph,
                                         const GTree& gtree,
                                         const DocumentStore& store,
                                         const InvertedIndex& inverted,
                                         const RelevanceModel& relevance,
                                         bool use_per_keyword_occurrence)
    : graph_(graph),
      gtree_(gtree),
      store_(store),
      inverted_(inverted),
      relevance_(relevance),
      aggregates_(gtree, store),
      per_keyword_occurrence_(use_per_keyword_occurrence) {}

std::vector<TopKResult> GTreeSpatialKeyword::TopK(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    QueryStats* stats) {
  std::vector<TopKResult> results;
  if (k == 0 || keywords.empty()) return results;
  const PreparedQuery prepared = relevance_.PrepareQuery(keywords);
  QueryStats local;
  const std::uint64_t build_start_ns = stats != nullptr ? NowNs() : 0;
  GTree::SourceCache cache = gtree_.MakeSourceCache(q);
  if (stats != nullptr) local.heap_build_ns = NowNs() - build_start_ns;
  const std::uint64_t search_start_ns = stats != nullptr ? NowNs() : 0;

  // Best possible textual relevance of any object under `node`.
  auto tr_max = [this, &prepared](GTree::NodeId node) {
    double bound = 0.0;
    for (std::size_t j = 0; j < prepared.keywords.size(); ++j) {
      if (aggregates_.NodeContains(node, prepared.keywords[j])) {
        bound += prepared.max_terms[j];
      }
    }
    return bound;
  };

  struct Entry {
    double score;
    GTree::NodeId node;      // kInvalidNode for object entries.
    ObjectId object;         // Valid for object entries.
    Distance distance;       // Object entries only.
    double relevance;        // Object entries only.
    bool operator>(const Entry& o) const { return score > o.score; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  pq.push({0.0, gtree_.RootNode(), kInvalidObject, 0, 0.0});

  while (!pq.empty() && results.size() < k) {
    const Entry top = pq.top();
    pq.pop();
    ++local.candidates_extracted;
    if (top.node == GTree::kInvalidNode) {
      results.push_back({top.object, top.score, top.distance, top.relevance});
      continue;
    }
    if (gtree_.IsLeaf(top.node)) {
      // The aggregation penalty: every textually matching object in the
      // leaf gets a network distance computation, result or not.
      for (ObjectId o : aggregates_.LeafObjects(top.node)) {
        const double tr = relevance_.TextualRelevance(prepared, o);
        if (tr <= 0.0) continue;
        const Distance d = gtree_.Query(cache, store_.ObjectVertex(o));
        ++local.network_distance_computations;
        pq.push({RelevanceModel::Score(d, tr), GTree::kInvalidNode, o, d,
                 tr});
      }
      continue;
    }
    const std::vector<GTree::NodeId>& children =
        gtree_.Children(top.node);
    std::uint32_t mask;
    if (per_keyword_occurrence_) {
      // Gtree-Opt: per-keyword occurrence lists prune children lacking
      // every query keyword without touching their pseudo-documents.
      mask = 0;
      for (KeywordId t : prepared.keywords) {
        mask |= aggregates_.KeywordOccupancyMask(top.node, t);
      }
    } else {
      mask = aggregates_.OccupancyMask(top.node);
    }
    for (std::size_t c = 0; c < children.size(); ++c) {
      if ((mask & (1u << c)) == 0) continue;
      const double bound = tr_max(children[c]);
      if (bound <= 0.0) continue;
      Distance mind = 0;
      if (!gtree_.IsInSubtree(gtree_.LeafOf(q), children[c])) {
        mind = gtree_.MinBorderDistance(cache, children[c]);
        ++local.lower_bounds_computed;
      }
      if (mind == kInfDistance) continue;
      pq.push({static_cast<double>(mind) / bound, children[c],
               kInvalidObject, 0, 0.0});
    }
  }
  if (stats != nullptr) {
    // Entries never expanded because the k-th result beat their bound.
    local.candidates_pruned_lb = pq.size();
    local.false_positive_distances =
        local.network_distance_computations - results.size();
    local.results_returned = results.size();
    local.search_ns = NowNs() - search_start_ns;
    *stats += local;
  }
  return results;
}

std::vector<BkNNResult> GTreeSpatialKeyword::BooleanKnn(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    BooleanOp op, QueryStats* stats) {
  std::vector<BkNNResult> results;
  if (k == 0 || keywords.empty()) return results;
  QueryStats local;
  const std::uint64_t build_start_ns = stats != nullptr ? NowNs() : 0;
  GTree::SourceCache cache = gtree_.MakeSourceCache(q);
  if (stats != nullptr) local.heap_build_ns = NowNs() - build_start_ns;
  const std::uint64_t search_start_ns = stats != nullptr ? NowNs() : 0;

  auto node_admissible = [this, &keywords, op](GTree::NodeId node) {
    for (KeywordId t : keywords) {
      const bool has = aggregates_.NodeContains(node, t);
      if (op == BooleanOp::kDisjunctive && has) return true;
      if (op == BooleanOp::kConjunctive && !has) return false;
    }
    return op == BooleanOp::kConjunctive;
  };
  auto object_satisfies = [this, &keywords, op](ObjectId o) {
    for (KeywordId t : keywords) {
      const bool has = store_.Contains(o, t);
      if (op == BooleanOp::kDisjunctive && has) return true;
      if (op == BooleanOp::kConjunctive && !has) return false;
    }
    return op == BooleanOp::kConjunctive;
  };

  struct Entry {
    Distance key;
    GTree::NodeId node;
    ObjectId object;
    bool operator>(const Entry& o) const {
      if (key != o.key) return key > o.key;
      return object > o.object;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  pq.push({0, gtree_.RootNode(), kInvalidObject});

  while (!pq.empty() && results.size() < k) {
    const Entry top = pq.top();
    pq.pop();
    ++local.candidates_extracted;
    if (top.node == GTree::kInvalidNode) {
      results.push_back({top.object, top.key});
      continue;
    }
    if (gtree_.IsLeaf(top.node)) {
      for (ObjectId o : aggregates_.LeafObjects(top.node)) {
        if (!object_satisfies(o)) continue;
        const Distance d = gtree_.Query(cache, store_.ObjectVertex(o));
        ++local.network_distance_computations;
        pq.push({d, GTree::kInvalidNode, o});
      }
      continue;
    }
    const std::vector<GTree::NodeId>& children =
        gtree_.Children(top.node);
    std::uint32_t mask;
    if (per_keyword_occurrence_) {
      if (op == BooleanOp::kDisjunctive) {
        mask = 0;
        for (KeywordId t : keywords) {
          mask |= aggregates_.KeywordOccupancyMask(top.node, t);
        }
      } else {
        mask = ~0u;
        for (KeywordId t : keywords) {
          mask &= aggregates_.KeywordOccupancyMask(top.node, t);
        }
      }
    } else {
      mask = aggregates_.OccupancyMask(top.node);
    }
    for (std::size_t c = 0; c < children.size(); ++c) {
      if ((mask & (1u << c)) == 0) continue;
      if (!node_admissible(children[c])) continue;
      Distance mind = 0;
      if (!gtree_.IsInSubtree(gtree_.LeafOf(q), children[c])) {
        mind = gtree_.MinBorderDistance(cache, children[c]);
        ++local.lower_bounds_computed;
      }
      if (mind == kInfDistance) continue;
      pq.push({mind, children[c], kInvalidObject});
    }
  }
  if (stats != nullptr) {
    local.candidates_pruned_lb = pq.size();
    local.false_positive_distances =
        local.network_distance_computations - results.size();
    local.results_returned = results.size();
    local.search_ns = NowNs() - search_start_ns;
    *stats += local;
  }
  return results;
}

}  // namespace kspin
