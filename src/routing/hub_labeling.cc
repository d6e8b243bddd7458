#include "routing/hub_labeling.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace kspin {
namespace {

Distance MergeJoin(std::span<const LabelEntry> a,
                   std::span<const LabelEntry> b) {
  Distance best = kInfDistance;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hub == b[j].hub) {
      const Distance d = Distance{a[i].distance} + b[j].distance;
      if (d < best) best = d;
      ++i;
      ++j;
    } else if (a[i].hub < b[j].hub) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

}  // namespace

HubLabeling::HubLabeling(const Graph& graph, const ContractionHierarchy& ch) {
  const std::size_t n = ch.NumVertices();
  if (graph.NumVertices() != n) {
    throw std::invalid_argument(
        "HubLabeling: graph has " + std::to_string(graph.NumVertices()) +
        " vertices, the contraction hierarchy " + std::to_string(n));
  }

  // Labels in build order, one after another in `built`; L(v) starts at
  // start[v] and offsets_[v + 1] holds its size until the final layout.
  std::vector<LabelEntry> built;
  std::vector<std::size_t> start(n);
  offsets_.assign(n + 1, 0);
  const auto label = [&](VertexId v) {
    return std::span<const LabelEntry>(built).subspan(start[v],
                                                      offsets_[v + 1]);
  };

  // Descending rank: every hub of v's upward search space outranks v, so
  // its label is final before v's is built.
  std::vector<Distance> best(n, kInfDistance);  // Candidates of v, by hub.
  std::vector<VertexId> touched;                // Their hubs.
  for (const VertexId v : ch.VerticesByDescendingRank()) {
    // Candidates: (v, 0) and, over every upward arc (v -> u, w), w plus
    // each entry of L(u), at the minimum per hub.
    touched.assign(1, v);
    best[v] = 0;
    for (const Arc& arc : ch.UpwardArcs(v)) {
      for (const LabelEntry& e : label(arc.head)) {
        if (best[e.hub] == kInfDistance) touched.push_back(e.hub);
        best[e.hub] =
            std::min(best[e.hub], Distance{arc.weight} + e.distance);
      }
    }
    std::ranges::sort(touched);

    // Keep (h, d) iff the merge join of the candidates with L(h), read
    // through `best`, finds no shorter v-h distance. An exact d passes;
    // an inexact one fails at the top-ranked vertex of a shortest v-h
    // path, a hub of both reached exactly from each end.
    start[v] = built.size();
    for (const VertexId h : touched) {
      const Distance d = best[h];
      if (h != v &&
          std::ranges::any_of(label(h), [&](const LabelEntry& e) {
            return e.distance < d && best[e.hub] < d - e.distance;
          })) {
        continue;
      }
      if (d > std::numeric_limits<std::uint32_t>::max()) {
        throw std::overflow_error(
            "HubLabeling: label distance " + std::to_string(d) +
            " does not fit in 32 bits");
      }
      built.push_back({.hub = h, .distance = static_cast<std::uint32_t>(d)});
    }
    offsets_[v + 1] = built.size() - start[v];
    for (const VertexId h : touched) best[h] = kInfDistance;
  }

  // Lay the labels out by vertex id.
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  entries_.resize(offsets_[n]);
  for (std::size_t v = 0; v < n; ++v) {
    std::copy_n(built.begin() + start[v], offsets_[v + 1] - offsets_[v],
                entries_.begin() + offsets_[v]);
  }
}

Distance HubLabeling::Query(VertexId s, VertexId t) const {
  if (s == t) return 0;
  return MergeJoin(Label(s), Label(t));
}

}  // namespace kspin
