// Textual relevance scoring (paper Section 2, Equations 1-3).
//
// Cosine similarity in impact form: TR(psi, o) = sum_t lambda_{t,psi} *
// lambda_{t,o}, where object impacts lambda_{t,o} are query-independent and
// precomputed offline, and the spatio-textual score is the weighted
// distance ST(q, o) = d(q, o) / TR(psi, o) (smaller is better).
#ifndef KSPIN_TEXT_RELEVANCE_H_
#define KSPIN_TEXT_RELEVANCE_H_

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "common/types.h"
#include "text/document_store.h"
#include "text/inverted_index.h"

namespace kspin {

/// A query's keyword ids with their precomputed impacts lambda_{t,psi}.
struct PreparedQuery {
  std::vector<KeywordId> keywords;  ///< Ascending, no repeats.
  std::vector<double> impacts;      ///< Aligned with `keywords`.
  /// impacts[j] * lambda_{t_j,max}: the most keyword j can add to any
  /// object's TR (the pseudo lower bound's terms, Algorithm 2).
  std::vector<double> max_terms;
};

/// Spatio-textual scoring function (smaller is better). The paper uses
/// *weighted distance* (Equation 1) as its running example and notes the
/// framework is orthogonal to the combination method; *weighted sum* is
/// the common alternative (Chen et al., PVLDB'13).
struct ScoringFunction {
  enum class Kind {
    kWeightedDistance,  ///< d(q,o) / TR(psi,o) — Equation 1.
    kWeightedSum,       ///< alpha*d/d_max + (1-alpha)*(1-TR).
  };
  Kind kind = Kind::kWeightedDistance;
  double alpha = 0.5;         ///< Distance weight (weighted sum only).
  double max_distance = 1.0;  ///< Distance normalizer (> 0, weighted sum).

  /// The score of an object at network distance d with relevance tr.
  /// +infinity for textually irrelevant objects (tr <= 0) — an object must
  /// contain at least one query keyword to qualify.
  double Score(Distance d, double tr) const {
    if (tr <= 0.0) return std::numeric_limits<double>::infinity();
    if (kind == Kind::kWeightedDistance) {
      return static_cast<double>(d) / tr;
    }
    return alpha * (static_cast<double>(d) / max_distance) +
           (1.0 - alpha) * (1.0 - std::min(tr, 1.0));
  }

  /// A valid lower bound on Score(d, tr) for any d >= d_lb and
  /// tr <= tr_ub (Score is monotone increasing in d, decreasing in tr).
  double LowerBoundScore(Distance d_lb, double tr_ub) const {
    return Score(d_lb, tr_ub);
  }
};

/// Precomputed impact machinery over a document snapshot. Each object
/// keeps its impacts lambda_{t,o} as one contiguous run of (keyword,
/// impact) sorted by keyword, so TR is a merge of two sorted lists with
/// no logarithm and no document lookup.
class RelevanceModel {
 public:
  /// Precomputes per-object impacts and per-keyword maximum impacts
  /// lambda_{t,max} (used by the pseudo lower bound, Algorithm 2).
  RelevanceModel(const DocumentStore& store, const InvertedIndex& index);

  /// Object impact lambda_{t,o} = w_{t,o} / ||w_o||; 0 when t not in doc(o).
  double ObjectImpact(ObjectId o, KeywordId t) const;

  /// Maximum impact of keyword t over any live object.
  double MaxImpact(KeywordId t) const {
    return t < max_impact_.size() ? max_impact_[t] : 0.0;
  }

  /// Computes query impacts lambda_{t,psi} (IDF-weighted, normalized).
  PreparedQuery PrepareQuery(std::span<const KeywordId> keywords) const;

  /// TR(psi, o) per Equation 3. 0 when no query keyword occurs in doc(o).
  /// `query.keywords` must be ascending, as PrepareQuery leaves them.
  double TextualRelevance(const PreparedQuery& query, ObjectId o) const {
    if (o >= runs_.size()) return 0.0;
    const Impact* it = impacts_.data() + runs_[o].begin;
    const Impact* const end = it + runs_[o].size;
    double tr = 0.0;
    for (std::size_t i = 0; i < query.keywords.size() && it != end; ++i) {
      const KeywordId t = query.keywords[i];
      while (it != end && it->keyword < t) ++it;
      if (it != end && it->keyword == t) tr += query.impacts[i] * it->impact;
    }
    return tr;
  }

  /// Spatio-textual score per Equation 1 (weighted distance). Returns
  /// +infinity for tr <= 0 (textually irrelevant objects never rank).
  static double Score(Distance d, double tr) {
    if (tr <= 0.0) return std::numeric_limits<double>::infinity();
    return static_cast<double>(d) / tr;
  }

  /// Rewrites object o's impacts from its current document and folds them
  /// into the per-keyword maxima (call after a document mutation; maxima
  /// only grow under this refresh — a full rebuild tightens them after
  /// deletions).
  void RefreshObject(ObjectId o);

 private:
  struct Impact {
    KeywordId keyword;
    double impact;  ///< lambda_{t,o}.
  };
  struct Run {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };

  const DocumentStore& store_;
  const InvertedIndex& index_;
  std::vector<Run> runs_;        ///< Per object slot, into impacts_.
  std::vector<Impact> impacts_;  ///< Every object's run, back to back.
  std::size_t dead_impacts_ = 0;  ///< impacts_ entries no run covers.
  std::vector<double> max_impact_;  ///< lambda_{t,max} per keyword.
};

}  // namespace kspin

#endif  // KSPIN_TEXT_RELEVANCE_H_
