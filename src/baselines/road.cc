#include "baselines/road.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace kspin {

RoadBaseline::RoadBaseline(const Graph& graph, const GTree& gtree,
                           const DocumentStore& store,
                           const RelevanceModel& relevance,
                           const NodeKeywordAggregates& aggregates)
    : graph_(graph),
      gtree_(gtree),
      store_(store),
      relevance_(relevance),
      aggregates_(aggregates) {
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    if (store.IsLive(o)) objects_at_[store.ObjectVertex(o)].push_back(o);
  }
}

GTree::NodeId RoadBaseline::BypassRnet(
    VertexId v, VertexId q,
    const std::function<bool(GTree::NodeId)>& relevant) const {
  // Walk the ancestor chain of leaf(v) upward. All three bypass conditions
  // are monotone along the chain (see header), so the last node satisfying
  // them is the maximal bypassable Rnet.
  GTree::NodeId best = GTree::kInvalidNode;
  GTree::NodeId node = gtree_.LeafOf(v);
  const GTree::NodeId q_leaf = gtree_.LeafOf(q);
  while (node != GTree::kInvalidNode) {
    if (gtree_.IsInSubtree(q_leaf, node)) break;  // Contains the query.
    if (relevant(node)) break;  // May hold useful objects: must expand.
    const auto& borders = gtree_.Borders(node);
    if (!std::binary_search(borders.begin(), borders.end(), v)) break;
    best = node;
    node = gtree_.Parent(node);
  }
  return best;
}

void RoadBaseline::Expand(
    VertexId q, const std::function<bool(GTree::NodeId)>& relevant,
    const std::function<bool(VertexId, Distance)>& visit,
    QueryStats* stats) {
  std::unordered_map<VertexId, Distance> dist;
  std::unordered_map<VertexId, bool> settled;
  using Entry = std::pair<Distance, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  dist[q] = 0;
  pq.push({0, q});
  std::uint64_t settle_count = 0;

  auto relax = [&dist, &pq](VertexId v, Distance d) {
    auto [it, inserted] = dist.try_emplace(v, d);
    if (inserted || d < it->second) {
      it->second = d;
      pq.push({d, v});
    }
  };

  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (auto it = settled.find(v); it != settled.end()) continue;
    settled[v] = true;
    ++settle_count;
    if (!visit(v, d)) break;

    const GTree::NodeId bypass = BypassRnet(v, q, relevant);
    if (bypass != GTree::kInvalidNode) {
      // Jump border-to-border across the irrelevant Rnet; only edges that
      // leave it are expanded normally.
      const auto& borders = gtree_.Borders(bypass);
      auto& shortcuts = shortcut_cache_[bypass];
      if (shortcuts.empty()) {
        shortcuts.resize(borders.size() * borders.size(), kInfDistance);
        for (std::size_t i = 0; i < borders.size(); ++i) {
          for (std::size_t j = i; j < borders.size(); ++j) {
            const Distance bd =
                i == j ? 0 : gtree_.BorderPairDistance(bypass, i, j);
            shortcuts[i * borders.size() + j] = bd;
            shortcuts[j * borders.size() + i] = bd;
          }
        }
      }
      const std::size_t row =
          std::lower_bound(borders.begin(), borders.end(), v) -
          borders.begin();
      for (std::size_t j = 0; j < borders.size(); ++j) {
        const Distance bd = shortcuts[row * borders.size() + j];
        if (bd != kInfDistance) relax(borders[j], d + bd);
      }
      for (const Arc& arc : graph_.Neighbors(v)) {
        if (!gtree_.IsInSubtree(gtree_.LeafOf(arc.head), bypass)) {
          relax(arc.head, d + arc.weight);
        }
      }
      continue;
    }
    for (const Arc& arc : graph_.Neighbors(v)) {
      relax(arc.head, d + arc.weight);
    }
  }
  if (stats != nullptr) stats->candidates_extracted += settle_count;
}

std::vector<TopKResult> RoadBaseline::TopK(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    QueryStats* stats) {
  std::vector<TopKResult> out;
  if (k == 0 || keywords.empty()) return out;
  const PreparedQuery prepared = relevance_.PrepareQuery(keywords);
  double tr_global = 0.0;
  for (double term : prepared.max_terms) tr_global += term;
  if (tr_global <= 0.0) return out;

  auto relevant = [this, &prepared](GTree::NodeId node) {
    for (KeywordId t : prepared.keywords) {
      if (aggregates_.NodeContains(node, t)) return true;
    }
    return false;
  };

  struct ScoreLess {
    bool operator()(const std::pair<double, TopKResult>& a,
                    const std::pair<double, TopKResult>& b) const {
      return a.first < b.first;
    }
  };
  std::priority_queue<std::pair<double, TopKResult>,
                      std::vector<std::pair<double, TopKResult>>, ScoreLess>
      best;
  auto dk = [&best, k] {
    return best.size() < k ? std::numeric_limits<double>::infinity()
                           : best.top().first;
  };
  Expand(
      q, relevant,
      [&](VertexId v, Distance d) {
        if (static_cast<double>(d) / tr_global >= dk()) return false;
        auto it = objects_at_.find(v);
        if (it != objects_at_.end()) {
          for (ObjectId o : it->second) {
            const double tr = relevance_.TextualRelevance(prepared, o);
            if (tr <= 0.0) continue;
            const double score = RelevanceModel::Score(d, tr);
            if (score < dk()) {
              if (best.size() == k) best.pop();
              best.push({score, TopKResult{o, score, d, tr}});
            }
          }
        }
        return true;
      },
      stats);
  while (!best.empty()) {
    out.push_back(best.top().second);
    best.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<BkNNResult> RoadBaseline::BooleanKnn(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    BooleanOp op, QueryStats* stats) {
  std::vector<BkNNResult> results;
  if (k == 0 || keywords.empty()) return results;
  auto relevant = [this, &keywords, op](GTree::NodeId node) {
    for (KeywordId t : keywords) {
      const bool has = aggregates_.NodeContains(node, t);
      if (op == BooleanOp::kDisjunctive && has) return true;
      if (op == BooleanOp::kConjunctive && !has) return false;
    }
    return op == BooleanOp::kConjunctive;
  };
  auto satisfies = [this, &keywords, op](ObjectId o) {
    for (KeywordId t : keywords) {
      const bool has = store_.Contains(o, t);
      if (op == BooleanOp::kDisjunctive && has) return true;
      if (op == BooleanOp::kConjunctive && !has) return false;
    }
    return op == BooleanOp::kConjunctive;
  };
  Expand(
      q, relevant,
      [&](VertexId v, Distance d) {
        auto it = objects_at_.find(v);
        if (it != objects_at_.end()) {
          for (ObjectId o : it->second) {
            if (satisfies(o)) results.push_back({o, d});
          }
        }
        return results.size() < k;
      },
      stats);
  if (results.size() > k) results.resize(k);
  return results;
}

std::size_t RoadBaseline::MemoryBytes() const {
  std::size_t total = 0;
  for (const auto& [node, shortcuts] : shortcut_cache_) {
    total += shortcuts.size() * sizeof(Distance);
  }
  for (const auto& [v, objects] : objects_at_) {
    total += objects.size() * sizeof(ObjectId) + sizeof(VertexId);
  }
  return total;
}

}  // namespace kspin
