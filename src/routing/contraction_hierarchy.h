// Contraction Hierarchies (Geisberger et al., WEA'08): the small-footprint
// Network Distance Module option in K-SPIN (variant KS-CH in the paper).
//
// Vertices are contracted in ascending importance order; each contraction
// preserves shortest paths among remaining vertices by inserting shortcut
// edges when a local witness search fails to find a path at most as short.
//
// Distance queries are one-to-many and memoized per target: a SearchSpace
// caches the upward (rank-increasing) search of the last source, rebuilt
// when the source changes, and keeps each target's upward search space
// from its first query on, so every later distance to that target is one
// scan of its entries against the cached source. Upward searches stall on
// demand: a vertex that a reached higher-ranked neighbour proves to be
// reachable more cheaply is not expanded, since it cannot be the top of a
// shortest path.
//
// The witness search is budget-limited: when inconclusive it conservatively
// inserts the shortcut, which can only enlarge the hierarchy, never make a
// query incorrect.
#ifndef KSPIN_ROUTING_CONTRACTION_HIERARCHY_H_
#define KSPIN_ROUTING_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "routing/distance_oracle.h"

namespace kspin {

/// Tuning knobs for CH construction.
struct ContractionHierarchyOptions {
  /// Max vertices settled by one witness search before giving up (and
  /// conservatively adding the shortcut).
  std::uint32_t witness_settle_limit = 64;
  /// Weight of the edge-difference term in the contraction priority.
  std::int32_t edge_difference_factor = 4;
  /// Weight of the contracted-neighbours ("deleted neighbours") term.
  std::int32_t contracted_neighbors_factor = 1;
};

/// An immutable contraction hierarchy over a graph.
class ContractionHierarchy {
 public:
  /// A settled vertex of an upward search and its exact upward distance.
  using Settled = std::pair<Distance, VertexId>;

  /// Reusable query scratch: the cached upward search of one source, a
  /// target-side search (both version-stamped), the memo of every target
  /// queried so far, and a pooled heap. All mutable query state lives
  /// here, so one hierarchy can serve any number of threads through
  /// distinct search spaces. A space serves one hierarchy. It is sized
  /// lazily on first use, and its memo holds at most one upward search
  /// space per distinct target (never stale: the hierarchy is immutable).
  class SearchSpace {
   public:
    SearchSpace() = default;

   private:
    friend class ContractionHierarchy;

    // Stamped distances and parents of one search; Start bumps the
    // version, which clears it in O(1). `settled` lists the vertices the
    // search expanded (not the stalled ones), in settle order.
    struct Side {
      void Start(std::size_t num_vertices, VertexId root);
      bool Reached(VertexId v) const { return stamp[v] == version; }

      std::vector<Distance> dist;
      std::vector<VertexId> parent;
      std::vector<std::uint32_t> stamp;
      std::uint32_t version = 0;
      std::vector<Settled> settled;
    };

    Side source_;  // Upward search of cached_source_.
    Side target_;  // Upward search of the latest memo fill or PathQuery.
    VertexId cached_source_ = kInvalidVertex;
    // Target memo: t's upward search space is the memo_size_[t] entries
    // of memo_ from memo_at_[t]; memo_size_[t] is 0 until t's first query.
    std::vector<std::size_t> memo_at_;
    std::vector<std::uint32_t> memo_size_;
    std::vector<Settled> memo_;
    std::vector<Settled> heap_;  // Pooled min-heap via std::*_heap.
  };

  /// Builds the hierarchy. O(|V| log |V|) witness searches in practice.
  explicit ContractionHierarchy(const Graph& graph,
                                ContractionHierarchyOptions options = {});

  /// Exact network distance, using only `space` for mutable state:
  /// s's upward search comes from the space's cache (rebuilt when s
  /// differs from the cached source), t's from its memo (filled on t's
  /// first query), and one pass over t's entries meets them.
  /// Thread-safe across distinct spaces.
  Distance Query(SearchSpace& space, VertexId s, VertexId t) const;

  /// Upward Dijkstra from `source` with stall-on-demand: every vertex it
  /// settles and does not stall, in settle order. A stalled vertex is
  /// reached more cheaply through a higher-ranked neighbour, so its
  /// upward distance exceeds its network distance; every vertex whose
  /// upward distance equals its network distance is in the span. Becomes
  /// (or reuses) `space`'s cached source; the span stays valid until the
  /// next search from another source in `space`.
  std::span<const Settled> UpwardSearch(SearchSpace& space,
                                        VertexId source) const;

  /// Exact network distance through the hierarchy's own scratch space.
  /// Not thread-safe; use the SearchSpace overload when sharing the
  /// hierarchy across threads.
  Distance Query(VertexId s, VertexId t) const;

  /// Exact shortest path s -> t as a vertex sequence in the original
  /// graph, obtained by recursively unpacking shortcut arcs. Empty when
  /// disconnected; {s} when s == t.
  std::vector<VertexId> PathQuery(VertexId s, VertexId t) const;

  /// Contraction rank of vertex v (0 = contracted first / least important).
  std::uint32_t Rank(VertexId v) const { return rank_[v]; }

  /// Vertices in descending rank order (most important first).
  std::vector<VertexId> VerticesByDescendingRank() const;

  /// Upward arcs (to strictly higher-ranked vertices) of v, including
  /// shortcuts.
  std::span<const Arc> UpwardArcs(VertexId v) const {
    return {up_arcs_.data() + up_offsets_[v],
            up_arcs_.data() + up_offsets_[v + 1]};
  }

  /// The contracted "via" vertex of v's i-th upward arc, or kInvalidVertex
  /// for an original edge. Drives shortcut unpacking.
  VertexId UpwardMid(VertexId v, std::size_t i) const {
    return up_mids_[up_offsets_[v] + i];
  }

  std::size_t NumVertices() const { return rank_.size(); }

  /// Total number of upward arcs (original edges + shortcuts).
  std::size_t NumUpwardArcs() const { return up_arcs_.size(); }

  /// Number of shortcut edges added during construction.
  std::size_t NumShortcuts() const { return num_shortcuts_; }

  /// Approximate index memory in bytes.
  std::size_t MemoryBytes() const {
    return up_offsets_.size() * sizeof(std::size_t) +
           up_arcs_.size() * sizeof(Arc) +
           up_mids_.size() * sizeof(VertexId) +
           rank_.size() * sizeof(uint32_t);
  }

 private:
  friend void SaveContractionHierarchy(const ContractionHierarchy&,
                                       std::ostream&);
  friend ContractionHierarchy LoadContractionHierarchy(std::istream&);
  ContractionHierarchy() = default;  // For deserialization only.

  // Upward search from `root` into `side` with stall-on-demand, recording
  // parents and the settle order of the expanded vertices.
  void SearchAll(SearchSpace& space, SearchSpace::Side& side,
                 VertexId root) const;

  // t's memoized upward search space, searched and stored on first use.
  std::span<const Settled> TargetSpace(SearchSpace& space, VertexId t) const;

  std::vector<std::uint32_t> rank_;
  std::vector<std::size_t> up_offsets_;
  std::vector<Arc> up_arcs_;
  std::vector<VertexId> up_mids_;  // Aligned with up_arcs_.
  std::size_t num_shortcuts_ = 0;

  // Scratch for the single-threaded Query/PathQuery convenience overloads
  // (mutable so they stay const against the index).
  mutable SearchSpace scratch_;
};

void SaveContractionHierarchy(const ContractionHierarchy& ch,
                              std::ostream& out);
ContractionHierarchy LoadContractionHierarchy(std::istream& in);

/// DistanceOracle adapter over a ContractionHierarchy. The hierarchy is
/// the immutable shared index; each workspace wraps one SearchSpace, whose
/// per-source cache needs no BeginSourceBatch hint.
class ChOracle : public DistanceOracle {
 public:
  explicit ChOracle(const ContractionHierarchy& ch) : ch_(ch) {}

  using DistanceOracle::NetworkDistance;
  using DistanceOracle::BeginSourceBatch;

  std::unique_ptr<OracleWorkspace> MakeWorkspace() const override {
    return std::make_unique<Workspace>();
  }
  Distance NetworkDistance(OracleWorkspace& workspace, VertexId s,
                           VertexId t) const override {
    return ch_.Query(static_cast<Workspace&>(workspace).space, s, t);
  }
  std::string Name() const override { return "ch"; }
  std::size_t MemoryBytes() const override { return ch_.MemoryBytes(); }

 private:
  struct Workspace final : OracleWorkspace {
    ContractionHierarchy::SearchSpace space;
  };
  const ContractionHierarchy& ch_;
};

}  // namespace kspin

#endif  // KSPIN_ROUTING_CONTRACTION_HIERARCHY_H_
