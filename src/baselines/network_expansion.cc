#include "baselines/network_expansion.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace kspin {

NetworkExpansionBaseline::NetworkExpansionBaseline(
    const Graph& graph, const DocumentStore& store,
    const InvertedIndex& inverted, const RelevanceModel& relevance)
    : graph_(graph),
      store_(store),
      inverted_(inverted),
      relevance_(relevance),
      workspace_(graph.NumVertices()) {
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    if (store.IsLive(o)) objects_at_[store.ObjectVertex(o)].push_back(o);
  }
}

std::vector<BkNNResult> NetworkExpansionBaseline::BooleanKnn(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    BooleanOp op, QueryStats* stats) {
  std::vector<BkNNResult> results;
  if (k == 0 || keywords.empty()) return results;
  auto satisfies = [this, &keywords, op](ObjectId o) {
    for (KeywordId t : keywords) {
      const bool has = store_.Contains(o, t);
      if (op == BooleanOp::kDisjunctive && has) return true;
      if (op == BooleanOp::kConjunctive && !has) return false;
    }
    return op == BooleanOp::kConjunctive;
  };
  std::uint64_t settled = 0;
  workspace_.Search(
      graph_, q, kInfDistance,
      [&](VertexId v, Distance d) {
        ++settled;
        auto it = objects_at_.find(v);
        if (it != objects_at_.end()) {
          for (ObjectId o : it->second) {
            if (satisfies(o)) results.push_back({o, d});
          }
        }
        return results.size() < k;
      });
  if (stats != nullptr) stats->candidates_extracted += settled;
  if (results.size() > k) results.resize(k);
  return results;
}

std::vector<TopKResult> NetworkExpansionBaseline::TopK(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    const ScoringFunction& scoring, QueryStats* stats) {
  std::vector<TopKResult> out;
  if (k == 0 || keywords.empty()) return out;
  const PreparedQuery prepared = relevance_.PrepareQuery(keywords);
  double tr_max = 0.0;
  for (double term : prepared.max_terms) tr_max += term;
  if (tr_max <= 0.0) return out;

  // Max-heap of the k best scores for the termination bound D_k.
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
  std::uint64_t settled = 0;
  workspace_.Search(
      graph_, q, kInfDistance,
      [&](VertexId v, Distance d) {
        ++settled;
        // Any object at distance >= d scores at least Score(d, TR_max).
        if (scoring.LowerBoundScore(d, tr_max) >= dk()) return false;
        auto it = objects_at_.find(v);
        if (it != objects_at_.end()) {
          for (ObjectId o : it->second) {
            const double tr = relevance_.TextualRelevance(prepared, o);
            if (tr <= 0.0) continue;
            const double score = scoring.Score(d, tr);
            if (score < dk()) {
              if (best.size() == k) best.pop();
              best.push({score, TopKResult{o, score, d, tr}});
            }
          }
        }
        return true;
      });
  if (stats != nullptr) stats->candidates_extracted += settled;
  while (!best.empty()) {
    out.push_back(best.top().second);
    best.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace kspin
