#include "routing/contraction_hierarchy.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>

namespace kspin {
namespace {

struct DynArc {
  VertexId head;
  Weight weight;
  // Contracted vertex this (shortcut) arc goes through; kInvalidVertex for
  // original edges. Drives path unpacking.
  VertexId mid = kInvalidVertex;
};

// Mutable overlay graph used during contraction. Readers skip arcs to
// contracted vertices; contracting v also drops them, once, from the
// lists of v's live neighbours. Removal is stable and new shortcuts are
// appended, so live arcs keep the order in which they were created.
class Overlay {
 public:
  explicit Overlay(const Graph& graph)
      : adjacency_(graph.NumVertices()), contracted_(graph.NumVertices(), 0) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      for (const Arc& arc : graph.Neighbors(v)) {
        adjacency_[v].push_back({arc.head, arc.weight, kInvalidVertex});
      }
    }
  }

  bool IsContracted(VertexId v) const { return contracted_[v] != 0; }

  // Stored arcs of v, dead ones included: skip heads that IsContracted.
  const std::vector<DynArc>& Arcs(VertexId v) const { return adjacency_[v]; }

  // Marks v contracted and drops the dead arcs of its live neighbours
  // `neighbors`.
  void Contract(VertexId v, const std::vector<DynArc>& neighbors) {
    contracted_[v] = 1;
    for (const DynArc& arc : neighbors) {
      auto& arcs = adjacency_[arc.head];
      arcs.erase(std::remove_if(arcs.begin(), arcs.end(),
                                [this](const DynArc& a) {
                                  return contracted_[a.head] != 0;
                                }),
                 arcs.end());
    }
  }

  // Adds or relaxes the undirected edge {u, v} (a shortcut via `mid`).
  // Returns true if a brand-new edge was created.
  bool AddOrImproveEdge(VertexId u, VertexId v, Weight w, VertexId mid) {
    bool created = !ImproveDirected(u, v, w, mid);
    if (created) adjacency_[u].push_back({v, w, mid});
    bool created2 = !ImproveDirected(v, u, w, mid);
    if (created2) adjacency_[v].push_back({u, w, mid});
    return created || created2;
  }

 private:
  bool ImproveDirected(VertexId u, VertexId v, Weight w, VertexId mid) {
    for (DynArc& a : adjacency_[u]) {
      if (a.head == v) {
        if (w < a.weight) {
          a.weight = w;
          a.mid = mid;  // Provenance follows the better weight.
        }
        return true;
      }
    }
    return false;
  }

  std::vector<std::vector<DynArc>> adjacency_;
  std::vector<std::uint8_t> contracted_;
};

// Budget-limited local Dijkstra in the overlay over version-stamped flat
// arrays and one pooled heap, which pops (distance, vertex) pairs in
// ascending order, ties to the lower vertex id.
class WitnessSearch {
 public:
  explicit WitnessSearch(std::size_t num_vertices)
      : dist_(num_vertices), stamp_(num_vertices, 0),
        target_(num_vertices, 0) {}

  // Searches from `source`, avoiding `excluded`, until every head of
  // `targets` other than the source has settled, the next vertex lies
  // beyond `bound`, or `settle_limit` vertices have settled. A settled
  // target's distance is final, so stopping once all have settled
  // changes no DistanceTo the caller reads.
  void Run(const Overlay& overlay, VertexId source, VertexId excluded,
           std::span<const DynArc> targets, Distance bound,
           std::uint32_t settle_limit) {
    if (++version_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      std::fill(target_.begin(), target_.end(), 0);
      version_ = 1;
    }
    std::size_t unsettled_targets = 0;
    for (const DynArc& arc : targets) {
      if (arc.head != source && target_[arc.head] != version_) {
        target_[arc.head] = version_;
        ++unsettled_targets;
      }
    }
    const auto greater = std::greater<Entry>{};
    heap_.assign(1, {0, source});
    dist_[source] = 0;
    stamp_[source] = version_;
    std::uint32_t settled = 0;
    while (!heap_.empty() && settled < settle_limit) {
      const auto [d, v] = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), greater);
      heap_.pop_back();
      if (d > dist_[v]) continue;  // Stale entry.
      if (d > bound) break;
      ++settled;
      if (target_[v] == version_ && --unsettled_targets == 0) break;
      for (const DynArc& arc : overlay.Arcs(v)) {
        if (arc.head == excluded || overlay.IsContracted(arc.head)) continue;
        const Distance nd = d + arc.weight;
        if (stamp_[arc.head] != version_ || nd < dist_[arc.head]) {
          dist_[arc.head] = nd;
          stamp_[arc.head] = version_;
          heap_.push_back({nd, arc.head});
          std::push_heap(heap_.begin(), heap_.end(), greater);
        }
      }
    }
  }

  // Tentative distance from the last source (kInfDistance if unreached).
  Distance DistanceTo(VertexId v) const {
    return stamp_[v] == version_ ? dist_[v] : kInfDistance;
  }

 private:
  using Entry = std::pair<Distance, VertexId>;

  std::vector<Distance> dist_;
  std::vector<std::uint32_t> stamp_;   // dist_[v] is set iff == version_.
  std::vector<std::uint32_t> target_;  // v is a target iff == version_.
  std::uint32_t version_ = 0;
  std::vector<Entry> heap_;
};

}  // namespace

ContractionHierarchy::ContractionHierarchy(
    const Graph& graph, ContractionHierarchyOptions options) {
  const std::size_t n = graph.NumVertices();
  rank_.assign(n, 0);

  Overlay overlay(graph);
  WitnessSearch witness(n);
  std::vector<std::int32_t> contracted_neighbors(n, 0);
  // Live neighbours of the vertex being (simulated) contracted. Shortcuts
  // join two of them, never v, so the list stays valid throughout.
  std::vector<DynArc> neighbors;

  // Simulates contracting v: fills `neighbors`, counts the shortcuts
  // required and (optionally) materializes them. Returns the number of
  // shortcuts.
  auto contract = [&](VertexId v, bool simulate) -> std::int32_t {
    neighbors.clear();
    for (const DynArc& arc : overlay.Arcs(v)) {
      if (!overlay.IsContracted(arc.head)) neighbors.push_back(arc);
    }
    std::int32_t shortcuts = 0;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const VertexId u = neighbors[i].head;
      // Witness bound: longest potential shortcut via v from u.
      Distance max_target = 0;
      for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
        max_target = std::max<Distance>(
            max_target, static_cast<Distance>(neighbors[i].weight) +
                            neighbors[j].weight);
      }
      if (max_target == 0) continue;
      witness.Run(overlay, u, v,
                  std::span<const DynArc>(neighbors).subspan(i + 1),
                  max_target, options.witness_settle_limit);
      for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
        const VertexId w = neighbors[j].head;
        if (w == u) continue;
        const Distance via_v = static_cast<Distance>(neighbors[i].weight) +
                               neighbors[j].weight;
        if (witness.DistanceTo(w) <= via_v) continue;  // Witness found.
        ++shortcuts;
        if (!simulate) {
          if (via_v > std::numeric_limits<Weight>::max()) {
            throw std::overflow_error(
                "ContractionHierarchy: shortcut weight " +
                std::to_string(via_v) + " does not fit in 32 bits");
          }
          overlay.AddOrImproveEdge(u, w, static_cast<Weight>(via_v), v);
        }
      }
    }
    return shortcuts;
  };

  auto priority = [&](VertexId v) -> std::int64_t {
    const std::int32_t shortcuts = contract(v, /*simulate=*/true);
    const std::int32_t edge_difference =
        shortcuts - static_cast<std::int32_t>(neighbors.size());
    return static_cast<std::int64_t>(options.edge_difference_factor) *
               edge_difference +
           static_cast<std::int64_t>(options.contracted_neighbors_factor) *
               contracted_neighbors[v];
  };

  using PQEntry = std::pair<std::int64_t, VertexId>;
  std::priority_queue<PQEntry, std::vector<PQEntry>, std::greater<PQEntry>>
      queue;
  for (VertexId v = 0; v < n; ++v) queue.push({priority(v), v});

  struct CapturedArc {
    VertexId head;
    Weight weight;
    VertexId mid;
  };
  std::vector<std::vector<CapturedArc>> upward(n);
  std::uint32_t next_rank = 0;
  while (!queue.empty()) {
    auto [prio, v] = queue.top();
    queue.pop();
    if (overlay.IsContracted(v)) continue;
    // Lazy update: recompute; requeue if no longer the minimum.
    const std::int64_t current = priority(v);
    if (!queue.empty() && current > queue.top().first) {
      queue.push({current, v});
      continue;
    }
    num_shortcuts_ += static_cast<std::size_t>(contract(v, false));
    rank_[v] = next_rank++;
    // All live neighbours are still uncontracted, i.e. higher-ranked:
    // capture them as v's upward arcs (originals plus shortcuts, with any
    // weight improvements applied so far).
    for (const DynArc& arc : neighbors) {
      ++contracted_neighbors[arc.head];
      upward[v].push_back({arc.head, arc.weight, arc.mid});
    }
    overlay.Contract(v, neighbors);
  }

  up_offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    // Keep only the minimal-weight arc per head.
    auto& arcs = upward[v];
    std::sort(arcs.begin(), arcs.end(),
              [](const CapturedArc& a, const CapturedArc& b) {
                return a.head != b.head ? a.head < b.head
                                        : a.weight < b.weight;
              });
    arcs.erase(std::unique(arcs.begin(), arcs.end(),
                           [](const CapturedArc& a, const CapturedArc& b) {
                             return a.head == b.head;
                           }),
               arcs.end());
    up_offsets_[v + 1] = up_offsets_[v] + arcs.size();
  }
  up_arcs_.resize(up_offsets_[n]);
  up_mids_.resize(up_offsets_[n]);
  for (VertexId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < upward[v].size(); ++i) {
      up_arcs_[up_offsets_[v] + i] =
          Arc{upward[v][i].head, upward[v][i].weight};
      up_mids_[up_offsets_[v] + i] = upward[v][i].mid;
    }
  }

}

void ContractionHierarchy::SearchSpace::Side::Start(std::size_t num_vertices,
                                                    VertexId root) {
  if (stamp.size() < num_vertices) {
    dist.assign(num_vertices, kInfDistance);
    parent.assign(num_vertices, kInvalidVertex);
    stamp.assign(num_vertices, 0);
    version = 0;
  }
  if (++version == 0) {
    std::fill(stamp.begin(), stamp.end(), 0);
    version = 1;
  }
  settled.clear();
  dist[root] = 0;
  parent[root] = kInvalidVertex;
  stamp[root] = version;
}

std::vector<VertexId> ContractionHierarchy::VerticesByDescendingRank() const {
  std::vector<VertexId> order(rank_.size());
  for (VertexId v = 0; v < rank_.size(); ++v) {
    order[rank_.size() - 1 - rank_[v]] = v;
  }
  return order;
}

void ContractionHierarchy::SearchAll(SearchSpace& space,
                                     SearchSpace::Side& side,
                                     VertexId root) const {
  const auto greater = std::greater<Settled>{};
  std::vector<Settled>& heap = space.heap_;
  side.Start(NumVertices(), root);
  heap.assign(1, {0, root});
  while (!heap.empty()) {
    const auto [d, v] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), greater);
    heap.pop_back();
    if (d > side.dist[v]) continue;  // Stale entry.
    // Stall-on-demand: a reached higher-ranked neighbour u with
    // dist[u] + w < d proves d is not v's network distance, so v is not
    // the top of a shortest path and need not be expanded. A vertex whose
    // upward distance is exact is never stalled.
    const auto arcs = UpwardArcs(v);
    if (std::ranges::any_of(arcs, [&](const Arc& arc) {
          return side.Reached(arc.head) &&
                 side.dist[arc.head] + arc.weight < d;
        })) {
      continue;
    }
    side.settled.push_back({d, v});
    for (const Arc& arc : arcs) {
      const Distance nd = d + arc.weight;
      if (!side.Reached(arc.head) || nd < side.dist[arc.head]) {
        side.dist[arc.head] = nd;
        side.parent[arc.head] = v;
        side.stamp[arc.head] = side.version;
        heap.push_back({nd, arc.head});
        std::push_heap(heap.begin(), heap.end(), greater);
      }
    }
  }
}

std::span<const ContractionHierarchy::Settled>
ContractionHierarchy::UpwardSearch(SearchSpace& space, VertexId source) const {
  if (space.cached_source_ != source) {
    SearchAll(space, space.source_, source);
    space.cached_source_ = source;
  }
  return space.source_.settled;
}

std::span<const ContractionHierarchy::Settled>
ContractionHierarchy::TargetSpace(SearchSpace& space, VertexId t) const {
  if (space.memo_size_.size() < NumVertices()) {
    space.memo_at_.resize(NumVertices());
    space.memo_size_.resize(NumVertices());
  }
  if (space.memo_size_[t] == 0) {  // A space holds at least its root.
    SearchAll(space, space.target_, t);
    const std::vector<Settled>& settled = space.target_.settled;
    space.memo_at_[t] = space.memo_.size();
    space.memo_size_[t] = static_cast<std::uint32_t>(settled.size());
    space.memo_.insert(space.memo_.end(), settled.begin(), settled.end());
  }
  return {space.memo_.data() + space.memo_at_[t], space.memo_size_[t]};
}

Distance ContractionHierarchy::Query(SearchSpace& space, VertexId s,
                                     VertexId t) const {
  if (s == t) return 0;
  const std::span<const Settled> down = TargetSpace(space, t);
  UpwardSearch(space, s);
  const SearchSpace::Side& up = space.source_;
  // The top vertex of a shortest path is in both spaces at its exact
  // distance; every other common vertex gives the length of some walk.
  Distance best = kInfDistance;
  for (const auto& [d, v] : down) {
    if (up.Reached(v)) best = std::min(best, d + up.dist[v]);
  }
  return best;
}

Distance ContractionHierarchy::Query(VertexId s, VertexId t) const {
  return Query(scratch_, s, t);
}

std::vector<VertexId> ContractionHierarchy::PathQuery(VertexId s,
                                                      VertexId t) const {
  if (s == t) return {s};
  // Both upward searches, met at the common vertex of least total
  // distance: the top of a shortest path, reached exactly from both ends.
  UpwardSearch(scratch_, s);
  const SearchSpace::Side& up = scratch_.source_;
  const SearchSpace::Side& down = scratch_.target_;
  SearchAll(scratch_, scratch_.target_, t);
  VertexId meeting = kInvalidVertex;
  Distance best = kInfDistance;
  for (const auto& [d, v] : down.settled) {
    if (up.Reached(v) && d + up.dist[v] < best) {
      best = d + up.dist[v];
      meeting = v;
    }
  }
  if (meeting == kInvalidVertex) return {};

  // Upward parent chains: s -> ... -> meeting and t -> ... -> meeting.
  std::vector<VertexId> up_chain;  // s side, from s to meeting.
  for (VertexId v = meeting; v != kInvalidVertex; v = up.parent[v]) {
    up_chain.push_back(v);
  }
  std::reverse(up_chain.begin(), up_chain.end());
  std::vector<VertexId> down_chain;  // t side, from meeting to t.
  for (VertexId v = meeting; v != kInvalidVertex; v = down.parent[v]) {
    down_chain.push_back(v);
  }

  // Expand every (upward) arc of both chains into original edges. Each
  // chain step (prev -> cur) is an upward arc of `prev` on the s side and
  // of the *later* vertex on the t side — both are arcs of the
  // lower-ranked endpoint, which is exactly how they are stored.
  std::vector<VertexId> path = {s};
  // Recursive expansion of arc (low, high) in travel direction low->high
  // or high->low; emits every vertex after the first.
  const std::function<void(VertexId, VertexId, bool)> expand =
      [&](VertexId low, VertexId high, bool forward) {
        const auto arcs = UpwardArcs(low);
        for (std::size_t i = 0; i < arcs.size(); ++i) {
          if (arcs[i].head != high) continue;
          const VertexId mid = UpwardMid(low, i);
          if (mid == kInvalidVertex) {
            path.push_back(forward ? high : low);
          } else if (forward) {  // low -> mid? No: low -> high via mid,
                                 // mid has lower rank than both.
            expand(mid, low, false);   // low -> mid (reverse of mid->low).
            expand(mid, high, true);   // mid -> high.
          } else {                     // high -> low via mid.
            expand(mid, high, false);  // high -> mid.
            expand(mid, low, true);    // mid -> low.
          }
          return;
        }
      };
  for (std::size_t i = 1; i < up_chain.size(); ++i) {
    // Travel direction up_chain[i-1] -> up_chain[i]; the arc is stored at
    // the lower-ranked tail up_chain[i-1].
    expand(up_chain[i - 1], up_chain[i], true);
  }
  for (std::size_t i = 1; i < down_chain.size(); ++i) {
    // Travel direction down_chain[i-1] -> down_chain[i]; stored at the
    // lower-ranked down_chain[i].
    expand(down_chain[i], down_chain[i - 1], false);
  }
  return path;
}

}  // namespace kspin
