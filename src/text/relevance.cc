#include "text/relevance.h"

#include <algorithm>
#include <cmath>

namespace kspin {
namespace {

double TermWeight(std::uint32_t frequency) {
  // w_{t,o} = 1 + ln(f_{t,o}).
  return 1.0 + std::log(static_cast<double>(frequency));
}

}  // namespace

RelevanceModel::RelevanceModel(const DocumentStore& store,
                               const InvertedIndex& index)
    : store_(store), index_(index) {
  runs_.assign(store.NumSlots(), Run{});
  impacts_.reserve(store.TotalKeywordSlots());
  max_impact_.assign(index.NumKeywords(), 0.0);
  for (ObjectId o = 0; o < store.NumSlots(); ++o) RefreshObject(o);
}

double RelevanceModel::ObjectImpact(ObjectId o, KeywordId t) const {
  if (o >= runs_.size()) return 0.0;
  const Impact* begin = impacts_.data() + runs_[o].begin;
  const Impact* end = begin + runs_[o].size;
  const Impact* it = std::lower_bound(
      begin, end, t,
      [](const Impact& e, KeywordId keyword) { return e.keyword < keyword; });
  return it != end && it->keyword == t ? it->impact : 0.0;
}

PreparedQuery RelevanceModel::PrepareQuery(
    std::span<const KeywordId> keywords) const {
  PreparedQuery query;
  // psi is a keyword *set* (paper Section 2): duplicates must not double
  // their impact contribution.
  query.keywords.assign(keywords.begin(), keywords.end());
  std::sort(query.keywords.begin(), query.keywords.end());
  query.keywords.erase(
      std::unique(query.keywords.begin(), query.keywords.end()),
      query.keywords.end());
  const double num_objects = static_cast<double>(store_.NumLiveObjects());
  // w_{t,psi} = ln(1 + |O| / |inv(t)|); keywords with empty lists keep a
  // harmless weight (they can never contribute to TR anyway).
  std::vector<double> weights;
  weights.reserve(query.keywords.size());
  double sum_sq = 0.0;
  for (KeywordId t : query.keywords) {
    const double list = static_cast<double>(index_.ListSize(t));
    const double w = list > 0.0 ? std::log(1.0 + num_objects / list) : 0.0;
    weights.push_back(w);
    sum_sq += w * w;
  }
  const double norm = std::sqrt(sum_sq);
  query.impacts.reserve(query.keywords.size());
  query.max_terms.reserve(query.keywords.size());
  for (std::size_t j = 0; j < weights.size(); ++j) {
    query.impacts.push_back(norm > 0.0 ? weights[j] / norm : 0.0);
    query.max_terms.push_back(query.impacts[j] *
                              MaxImpact(query.keywords[j]));
  }
  return query;
}

void RelevanceModel::RefreshObject(ObjectId o) {
  if (o >= runs_.size()) runs_.resize(o + 1, Run{});
  Run& run = runs_[o];
  double norm = 0.0;
  std::span<const DocEntry> document;
  if (store_.IsLive(o)) {
    document = store_.Document(o);
    double sum_sq = 0.0;
    for (const DocEntry& entry : document) {
      const double w = TermWeight(entry.frequency);
      sum_sq += w * w;
    }
    norm = std::sqrt(sum_sq);
  }
  if (norm <= 0.0) document = {};  // No impacts: TR is 0.

  // Rewrite in place when the run fits, else move it to the end; compact
  // once abandoned entries outnumber live ones.
  if (document.size() > run.size) {
    dead_impacts_ += run.size;
    run.begin = static_cast<std::uint32_t>(impacts_.size());
    impacts_.resize(impacts_.size() + document.size());
  } else {
    dead_impacts_ += run.size - document.size();
  }
  run.size = static_cast<std::uint32_t>(document.size());
  for (std::size_t i = 0; i < document.size(); ++i) {
    const DocEntry& entry = document[i];
    const double impact = TermWeight(entry.frequency) / norm;
    impacts_[run.begin + i] = {entry.keyword, impact};
    if (entry.keyword >= max_impact_.size()) {
      max_impact_.resize(entry.keyword + 1, 0.0);
    }
    if (impact > max_impact_[entry.keyword]) {
      max_impact_[entry.keyword] = impact;
    }
  }
  if (dead_impacts_ * 2 > impacts_.size()) {
    std::vector<Impact> compact;
    compact.reserve(impacts_.size() - dead_impacts_);
    for (Run& r : runs_) {
      const auto begin = static_cast<std::uint32_t>(compact.size());
      compact.insert(compact.end(), impacts_.begin() + r.begin,
                     impacts_.begin() + r.begin + r.size);
      r.begin = begin;
    }
    impacts_ = std::move(compact);
    dead_impacts_ = 0;
  }
}

}  // namespace kspin
