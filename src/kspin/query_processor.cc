#include "kspin/query_processor.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <queue>

namespace kspin {
namespace {

// Steady-clock nanoseconds for QueryStats stage timings. Two reads per
// stage; ~20-40ns each, noise next to a single distance computation.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Keeps the k best (smallest-key) results seen so far and exposes the
// current D_k (the k-th best key; +infinity while fewer than k are held).
template <typename Key, typename Value>
class BestK {
 public:
  explicit BestK(std::uint32_t k) : k_(k) {}

  Key Dk() const {
    return heap_.size() < k_ ? std::numeric_limits<Key>::max()
                             : heap_.top().first;
  }

  void Offer(Key key, const Value& value) {
    if (heap_.size() < k_) {
      heap_.push({key, value});
    } else if (key < heap_.top().first) {
      heap_.pop();
      heap_.push({key, value});
    }
  }

  // Ascending by key.
  std::vector<std::pair<Key, Value>> Sorted() {
    std::vector<std::pair<Key, Value>> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

 private:
  std::uint32_t k_;
  std::priority_queue<std::pair<Key, Value>> heap_;  // Max-heap on key.
};

// D_k for doubles needs infinity, not max().
inline double DoubleDk(double dk) {
  return dk == std::numeric_limits<double>::max()
             ? std::numeric_limits<double>::infinity()
             : dk;
}

std::vector<KeywordId> Deduplicate(std::span<const KeywordId> keywords) {
  std::vector<KeywordId> unique(keywords.begin(), keywords.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  return unique;
}

}  // namespace

template <typename SatisfiesFn>
std::vector<BkNNResult> QueryProcessor::DisjunctiveSearch(
    VertexId q, std::uint32_t k, std::vector<InvertedHeap>& heaps,
    const SatisfiesFn& satisfies, QueryStats* stats,
    const QueryControl* control) {
  detail::CheckControl(control, 0);  // Abort before any work if expired.
  QueryStats local;
  const std::uint64_t search_start_ns = stats != nullptr ? NowNs() : 0;
  BestK<Distance, ObjectId> best(k);
  oracle_.BeginSourceBatch(*oracle_workspace_, q);

  // One priority-queue cursor per heap, keyed by its MINKEY (Algorithm 1).
  // Pooled backing vector + std::*_heap replicate the priority_queue this
  // used to be, without its per-query allocation.
  const auto greater = std::greater<QueryWorkspace::DistanceCursor>{};
  std::vector<QueryWorkspace::DistanceCursor>& pq =
      workspace_.DistanceQueue();
  pq.clear();
  for (std::size_t i = 0; i < heaps.size(); ++i) {
    ++local.heaps_created;
    if (!heaps[i].Empty()) {
      pq.push_back({heaps[i].MinKey(), static_cast<std::uint32_t>(i)});
      std::push_heap(pq.begin(), pq.end(), greater);
    }
  }

  StampedIdSet& evaluated = workspace_.Evaluated();
  evaluated.Clear();
  while (!pq.empty() && pq.front().key < best.Dk()) {
    const std::size_t i = pq.front().heap;
    std::pop_heap(pq.begin(), pq.end(), greater);
    pq.pop_back();
    InvertedHeap::Candidate c = heaps[i].ExtractMin();
    detail::CheckControl(control, ++local.candidates_extracted);
    if (!heaps[i].Empty()) {
      pq.push_back({heaps[i].MinKey(), static_cast<std::uint32_t>(i)});
      std::push_heap(pq.begin(), pq.end(), greater);
    }

    if (c.deleted) continue;
    if (!evaluated.Insert(c.object)) continue;  // Seen via another heap.
    if (!satisfies(c.object)) continue;
    if (approximate_mode_) {
      // Brownout: rank by the (monotone) lower bound instead of paying
      // for the exact distance. Candidates pop in LB order, so the
      // D_k termination test stays sound against LB-valued entries.
      best.Offer(c.lower_bound, c.object);
      continue;
    }
    const Distance d = oracle_.NetworkDistance(*oracle_workspace_, q,
                                               c.vertex);
    ++local.network_distance_computations;
    best.Offer(d, c.object);
  }

  for (const InvertedHeap& heap : heaps) {
    local.lower_bounds_computed += heap.Stats().lower_bounds_computed;
    local.heap_insertions += heap.Stats().insertions;
    local.lb_batch_calls += heap.Stats().lb_batch_calls;
    local.lb_batch_items += heap.Stats().lb_batch_items;
  }

  std::vector<BkNNResult> results;
  for (const auto& [d, o] : best.Sorted()) results.push_back({o, d});
  if (stats != nullptr) {
    // Every distance paid for an object that missed the final top-k was a
    // false positive (including early candidates later evicted by D_k).
    // Saturating: in approximate mode results arrive without distances.
    local.false_positive_distances =
        local.network_distance_computations > results.size()
            ? local.network_distance_computations - results.size()
            : 0;
    local.results_returned = results.size();
    local.search_ns = NowNs() - search_start_ns;
    *stats += local;
  }
  return results;
}

std::vector<BkNNResult> QueryProcessor::BooleanKnn(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    BooleanOp op, QueryStats* stats, const QueryControl* control) {
  if (k == 0 || keywords.empty()) return {};
  const std::vector<KeywordId> unique = Deduplicate(keywords);
  if (op == BooleanOp::kConjunctive) {
    return ConjunctiveKnn(q, k, unique, stats, control);
  }
  workspace_.BeginQuery();
  const std::uint64_t build_start_ns = stats != nullptr ? NowNs() : 0;
  std::vector<InvertedHeap>& heaps = workspace_.Heaps();
  heaps.reserve(unique.size());
  for (KeywordId t : unique) {
    heaps.push_back(
        heap_generator_.Make(t, q, workspace_.AcquireHeapScratch()));
  }
  if (stats != nullptr) stats->heap_build_ns += NowNs() - build_start_ns;
  // Membership re-check against the live store keeps results exact even
  // when keyword indexes carry lazy tombstones.
  auto satisfies = [this, &unique](ObjectId o) {
    for (KeywordId t : unique) {
      if (store_.Contains(o, t)) return true;
    }
    return false;
  };
  return DisjunctiveSearch(q, k, heaps, satisfies, stats, control);
}

std::vector<BkNNResult> QueryProcessor::ConjunctiveKnn(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    QueryStats* stats, const QueryControl* control) {
  // Use only the heap of the least frequent keyword (Section 4.1.2): it
  // has the fewest candidates and every result must contain it.
  KeywordId rarest = keywords.front();
  for (KeywordId t : keywords) {
    if (inverted_.ListSize(t) < inverted_.ListSize(rarest)) rarest = t;
  }
  if (inverted_.ListSize(rarest) == 0) return {};

  workspace_.BeginQuery();
  const std::uint64_t build_start_ns = stats != nullptr ? NowNs() : 0;
  std::vector<InvertedHeap>& heaps = workspace_.Heaps();
  heaps.push_back(
      heap_generator_.Make(rarest, q, workspace_.AcquireHeapScratch()));
  if (stats != nullptr) stats->heap_build_ns += NowNs() - build_start_ns;
  auto satisfies = [this, &keywords](ObjectId o) {
    for (KeywordId t : keywords) {
      if (!store_.Contains(o, t)) return false;
    }
    return true;
  };
  return DisjunctiveSearch(q, k, heaps, satisfies, stats, control);
}

std::vector<BkNNResult> QueryProcessor::BooleanKnnCnf(
    VertexId q, std::uint32_t k,
    std::span<const std::vector<KeywordId>> clauses, QueryStats* stats,
    const QueryControl* control) {
  if (k == 0 || clauses.empty()) return {};
  // Drive candidate generation with the clause of smallest total
  // inverted-list size (every result must satisfy it); filter candidates
  // against the full CNF.
  std::size_t driver = 0;
  std::size_t driver_size = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    std::size_t size = 0;
    for (KeywordId t : clauses[i]) size += inverted_.ListSize(t);
    if (size < driver_size) {
      driver_size = size;
      driver = i;
    }
  }
  workspace_.BeginQuery();
  const std::uint64_t build_start_ns = stats != nullptr ? NowNs() : 0;
  std::vector<InvertedHeap>& heaps = workspace_.Heaps();
  for (KeywordId t : Deduplicate(clauses[driver])) {
    heaps.push_back(
        heap_generator_.Make(t, q, workspace_.AcquireHeapScratch()));
  }
  if (stats != nullptr) stats->heap_build_ns += NowNs() - build_start_ns;
  auto satisfies = [this, &clauses](ObjectId o) {
    for (const std::vector<KeywordId>& clause : clauses) {
      bool any = false;
      for (KeywordId t : clause) {
        if (store_.Contains(o, t)) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
    return true;
  };
  return DisjunctiveSearch(q, k, heaps, satisfies, stats, control);
}

std::vector<TopKResult> QueryProcessor::TopK(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    const ScoringFunction& scoring, QueryStats* stats,
    const QueryControl* control) {
  if (k == 0 || keywords.empty()) return {};
  detail::CheckControl(control, 0);  // Abort before any work if expired.
  const std::vector<KeywordId> unique = Deduplicate(keywords);
  const PreparedQuery prepared = relevance_.PrepareQuery(unique);

  QueryStats local;
  workspace_.BeginQuery();
  const std::uint64_t build_start_ns = stats != nullptr ? NowNs() : 0;
  std::vector<InvertedHeap>& heaps = workspace_.Heaps();
  heaps.reserve(unique.size());
  for (KeywordId t : unique) {
    heaps.push_back(
        heap_generator_.Make(t, q, workspace_.AcquireHeapScratch()));
    ++local.heaps_created;
  }
  if (stats != nullptr) local.heap_build_ns = NowNs() - build_start_ns;
  const std::uint64_t search_start_ns = stats != nullptr ? NowNs() : 0;
  oracle_.BeginSourceBatch(*oracle_workspace_, q);

  // Pseudo lower-bound score of heap i (Algorithm 2): assume every unseen
  // object in H_i contains keyword t_j only if MINKEY(H_i) >= MINKEY(H_j);
  // impact of such a keyword is bounded by lambda_{t_j,max}. With the
  // ablation switch off, fall back to the valid lower bound ST_all that
  // credits every keyword to every unseen object.
  auto pseudo_lb = [this, &prepared, &heaps,
                    &scoring](std::size_t i) -> double {
    const Distance min_i = heaps[i].MinKey();
    if (min_i == kInfDistance) {
      return std::numeric_limits<double>::infinity();
    }
    double tr_p = 0.0;
    for (std::size_t j = 0; j < heaps.size(); ++j) {
      if (!use_pseudo_lower_bounds_ || min_i >= heaps[j].MinKey()) {
        tr_p += prepared.max_terms[j];
      }
    }
    return scoring.LowerBoundScore(min_i, tr_p);
  };

  const auto greater = std::greater<QueryWorkspace::ScoreCursor>{};
  std::vector<QueryWorkspace::ScoreCursor>& pq = workspace_.ScoreQueue();
  pq.clear();
  for (std::size_t i = 0; i < heaps.size(); ++i) {
    const double score = pseudo_lb(i);
    if (score != std::numeric_limits<double>::infinity()) {
      pq.push_back({score, static_cast<std::uint32_t>(i)});
      std::push_heap(pq.begin(), pq.end(), greater);
    }
  }

  BestK<double, std::pair<ObjectId, std::pair<Distance, double>>> best(k);
  StampedIdSet& processed = workspace_.Evaluated();
  processed.Clear();
  while (!pq.empty() && pq.front().score < DoubleDk(best.Dk())) {
    const std::size_t i = pq.front().heap;
    std::pop_heap(pq.begin(), pq.end(), greater);
    pq.pop_back();
    if (heaps[i].Empty()) continue;  // Stale entry for a drained heap.
    InvertedHeap::Candidate c = heaps[i].ExtractMin();
    detail::CheckControl(control, ++local.candidates_extracted);
    const double score = pseudo_lb(i);
    if (score != std::numeric_limits<double>::infinity()) {
      pq.push_back({score, static_cast<std::uint32_t>(i)});
      std::push_heap(pq.begin(), pq.end(), greater);
    }

    if (c.deleted) continue;
    if (!processed.Insert(c.object)) continue;
    // Cheap filter: the candidate's *actual* textual relevance with its
    // lower-bound distance (line 10 of Algorithm 3).
    const double tr = relevance_.TextualRelevance(prepared, c.object);
    if (tr <= 0.0) continue;
    const double lb_score = scoring.LowerBoundScore(c.lower_bound, tr);
    if (lb_score > DoubleDk(best.Dk())) {
      ++local.candidates_pruned_lb;  // LB beat D_k: no distance paid.
      continue;
    }
    if (approximate_mode_) {
      // Brownout: admit on the lower-bound score alone; the reported
      // distance is the LB distance, not the exact network distance.
      best.Offer(lb_score, {c.object, {c.lower_bound, tr}});
      continue;
    }
    const Distance d = oracle_.NetworkDistance(*oracle_workspace_, q,
                                               c.vertex);
    ++local.network_distance_computations;
    const double st = scoring.Score(d, tr);
    best.Offer(st, {c.object, {d, tr}});
  }

  for (const InvertedHeap& heap : heaps) {
    local.lower_bounds_computed += heap.Stats().lower_bounds_computed;
    local.heap_insertions += heap.Stats().insertions;
    local.lb_batch_calls += heap.Stats().lb_batch_calls;
    local.lb_batch_items += heap.Stats().lb_batch_items;
  }

  std::vector<TopKResult> results;
  for (const auto& [score, payload] : best.Sorted()) {
    results.push_back(
        {payload.first, score, payload.second.first, payload.second.second});
  }
  if (stats != nullptr) {
    // Saturating: in approximate mode results arrive without distances.
    local.false_positive_distances =
        local.network_distance_computations > results.size()
            ? local.network_distance_computations - results.size()
            : 0;
    local.results_returned = results.size();
    local.search_ns = NowNs() - search_start_ns;
    *stats += local;
  }
  return results;
}

}  // namespace kspin
