#include "answer_check.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace kspin::perfbench {
namespace {

// Brute force is asked for this many results past k, so objects tied with
// the k-th key are visible to the check.
constexpr std::uint32_t kTieSlack = 32;

struct Expected {
  ObjectId object;
  Distance distance;
  double score;  // 0 for BkNN.
};

bool SameScore(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

std::string Describe(const char* what, std::size_t rank) {
  return std::string(what) + " at rank " + std::to_string(rank);
}

}  // namespace

std::string CheckAnswer(NetworkExpansionBaseline& brute, bool ranked,
                        VertexId q, std::uint32_t k,
                        std::span<const KeywordId> keywords,
                        const std::vector<server::WireResult>& served) {
  std::vector<Expected> want;
  if (ranked) {
    for (const TopKResult& r : brute.TopK(q, k + kTieSlack, keywords)) {
      want.push_back({r.object, r.distance, r.score});
    }
  } else {
    for (const BkNNResult& r : brute.BooleanKnn(
             q, k + kTieSlack, keywords, BooleanOp::kDisjunctive)) {
      want.push_back({r.object, r.distance, 0.0});
    }
  }
  const bool complete = want.size() < k + kTieSlack;
  const auto key = [ranked](double score, Distance distance) {
    return ranked ? score : static_cast<double>(distance);
  };

  const std::size_t expected_size = std::min<std::size_t>(k, want.size());
  if (served.size() != expected_size) {
    return "served " + std::to_string(served.size()) + " results, expected " +
           std::to_string(expected_size);
  }
  std::unordered_map<ObjectId, const Expected*> by_object;
  for (const Expected& e : want) by_object.emplace(e.object, &e);
  std::unordered_set<ObjectId> seen;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const server::WireResult& got = served[i];
    if (!SameScore(key(got.score, got.travel_time),
                   key(want[i].score, want[i].distance))) {
      return Describe("key differs", i);
    }
    if (!seen.insert(got.object).second) {
      return Describe("duplicate object", i);
    }
    const auto it = by_object.find(got.object);
    if (it == by_object.end()) {
      // Only legal inside a tie group that runs past the slack.
      const Expected& last = want.back();
      if (complete || !SameScore(key(got.score, got.travel_time),
                                 key(last.score, last.distance))) {
        return Describe("object not in brute-force answer", i);
      }
      continue;
    }
    if (got.travel_time != it->second->distance ||
        (ranked && !SameScore(got.score, it->second->score))) {
      return Describe("object distance or score differs", i);
    }
  }
  return {};
}

}  // namespace kspin::perfbench
