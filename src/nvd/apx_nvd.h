// rho-Approximate Network Voronoi Diagram (paper Section 6.1, Definition 1):
// the per-keyword index of the Keyword Separated Index.
//
// For every vertex v it can retrieve up to rho candidate objects, one of
// which is guaranteed to be the 1NN of v — enough to initialize an
// on-demand inverted heap (Theorem 1) — plus the site adjacency graph and
// MaxRadius values needed to maintain the heap (Algorithm 4) and to handle
// updates (Section 6.2, Theorem 2).
//
// Space savings relative to an exact NVD come from three observations:
//  - keywords with |inv(t)| <= rho skip Voronoi construction entirely and
//    degenerate to the flat inverted list (Observation 1);
//  - only the O(|inv(t)|) adjacency graph is retained, not the O(|V|)
//    vertex assignment (Observation 2a);
//  - the vertex assignment is replaced by a quadtree subdivided only until
//    cells have <= rho distinct nearest sites (Observation 2b), or by an
//    R-tree of per-site MBRs for a worst-case space bound.
//
// Updates are lazy: deletions tombstone; insertions compute a Theorem-2
// affected set and attach the new object to those adjacency-graph nodes,
// deferring reconstruction. Queries remain exact throughout.
//
// Layout (docs/performance.md, "The heap-pop path"): the candidate supply
// is addressed by dense per-index member ids, so a heap pop reads flat
// arrays only — no hash lookup and no per-node vector.
#ifndef KSPIN_NVD_APX_NVD_H_
#define KSPIN_NVD_APX_NVD_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "graph/graph.h"
#include "nvd/quadtree.h"
#include "nvd/rtree.h"
#include "routing/distance_oracle.h"

namespace kspin {

/// Storage backend for the approximate Voronoi assignment.
enum class ApxNvdStorage {
  kQuadtree,  ///< Morton-list colour quadtree (rho candidate guarantee).
  kRTree,     ///< Per-site MBR R-tree (O(sites) space guarantee).
};

/// Construction / update tuning.
struct ApxNvdOptions {
  std::uint32_t rho = 5;  ///< Candidate bound (and Observation-1 cutoff).
  ApxNvdStorage storage = ApxNvdStorage::kQuadtree;
  std::uint32_t quadtree_max_depth = 16;
  /// Lazy inserts a Voronoi index tolerates before NeedsRebuild()
  /// reports true. A flat index needs a rebuild as soon as its live
  /// objects sit on more than rho distinct vertices.
  std::uint32_t lazy_insert_threshold = 64;
};

/// An object anchored at a vertex — one entry of a keyword's inverted list.
struct SiteObject {
  ObjectId object;
  VertexId vertex;
};

/// Per-keyword approximate NVD with lazy update support.
///
/// Every object of the index is a *member* with a dense id. Sites are
/// members 0..S-1, so a site's member id is its Voronoi colour (the node
/// of the adjacency graph); objects colocated with a site at build time
/// and lazily inserted objects are appended after them. Member ids are
/// fixed until the next Build/Rebuild, so a heap may key its entries and
/// its dedup set by member id for as long as no write reaches the index.
/// The candidate supply walks flat arrays only:
///  - a member table of (object, vertex) pairs;
///  - a CSR of each node's members (the site, then its attachments);
///  - a CSR of each attached member's nodes;
///  - a deleted bitmap.
class ApxNvd {
 public:
  /// Builds the index for one keyword's object set. Requires graph
  /// coordinates when Voronoi structures are needed (|sites| > rho).
  /// Throws on duplicate object ids or missing coordinates. A quadtree
  /// build uses `order`, the Z-order of the graph's vertices that a batch
  /// of builds shares, or computes its own when it is null; throws when
  /// `order` covers another number of points or another depth than
  /// options.quadtree_max_depth (capped at 16).
  ApxNvd(const Graph& graph, std::vector<SiteObject> sites,
         ApxNvdOptions options = {}, const MortonOrder* order = nullptr);

  // ----- Candidate generation (consumed by the Heap Generator) ---------

  /// Appends the member ids of the initial heap candidates for query
  /// vertex q: at most rho Voronoi colours (one of which owns q) with
  /// their attached members — or every member when no Voronoi structure
  /// exists. Deleted members are included (the heap flags them on
  /// extraction); a member attached to several colours repeats.
  void InitialMembers(VertexId q, std::vector<std::uint32_t>* out) const;

  /// Calls fn(member) for each member to inject when `member` is
  /// extracted from a heap (Algorithm 4's adjacent-object supply): the
  /// members of every node associated with it and of the nodes adjacent
  /// to those. Members may repeat; flat indexes supply nothing (their
  /// whole list was emitted at initialization).
  template <typename Fn>
  void ForEachExpansion(std::uint32_t member, Fn&& fn) const {
    if (!HasVoronoi()) return;
    auto expand_node = [this, &fn](std::uint32_t node) {
      for (std::uint32_t m : node_members_[node]) fn(m);
      for (std::uint32_t adj : adjacency_[node]) {
        for (std::uint32_t m : node_members_[adj]) fn(m);
      }
    };
    if (member < num_sites_) {
      expand_node(member);
      return;
    }
    for (std::uint32_t node : attached_nodes_[member - num_sites_]) {
      expand_node(node);
    }
  }

  /// Number of members (live and tombstoned); valid ids are
  /// [0, NumMembers()).
  std::size_t NumMembers() const { return members_.size(); }

  /// The object and vertex of a member.
  const SiteObject& Member(std::uint32_t member) const {
    return members_[member];
  }

  /// True once the member's object was tombstoned by Delete.
  bool IsDeletedMember(std::uint32_t member) const {
    return deleted_[member];
  }

  /// True once Delete(o) tombstoned the object (false for unknown ids).
  bool IsDeleted(ObjectId o) const;

  // ----- Updates (Section 6.2; implementation in nvd_updates.cc) -------

  /// Lazily inserts a new object: computes the Theorem-2 affected set via
  /// a pruned BFS on the adjacency graph (distances from `oracle`) and
  /// attaches the object there. Re-inserting a tombstoned object revives
  /// it. Throws if the object id is already live.
  void Insert(ObjectId o, VertexId vertex, DistanceOracle& oracle);

  /// Tombstones object o. Throws if unknown or already deleted.
  void Delete(ObjectId o);

  /// True when a Rebuild() would change the index: too many lazy inserts
  /// on a Voronoi index, or the live objects' distinct vertices crossed
  /// the rho cutoff that Build applies (Observation 1) in either
  /// direction.
  bool NeedsRebuild() const;

  /// Reconstructs the index from the live object set, absorbing all lazy
  /// updates.
  void Rebuild();

  // ----- Introspection ---------------------------------------------------

  /// True if Voronoi structures exist (|live sites| was > rho at build).
  bool HasVoronoi() const { return quadtree_ != nullptr || rtree_ != nullptr; }

  std::size_t NumLiveObjects() const { return live_; }
  std::size_t NumLazyInserts() const { return lazy_inserts_; }
  std::uint32_t Rho() const { return options_.rho; }

  /// Size of the affected set computed by the most recent Insert (0 when
  /// the index is flat). Exposed for tests and the Figure 8 harness.
  std::size_t LastAffectedSetSize() const { return last_affected_size_; }

  /// Memory in bytes of every array the index holds (member table, CSRs,
  /// bitmap, object lookup, adjacency, radii) plus its Voronoi storage.
  std::size_t MemoryBytes() const;

 private:
  friend void SaveApxNvd(const ApxNvd&, std::ostream&);
  friend std::unique_ptr<ApxNvd> LoadApxNvd(const Graph&, std::istream&);
  /// Shell for deserialization; LoadApxNvd fills every field.
  explicit ApxNvd(const Graph& graph) : graph_(graph) {}

  static constexpr std::uint32_t kNoMember = UINT32_MAX;

  void Build(std::vector<SiteObject> sites, const MortonOrder* order);
  std::vector<SiteObject> LiveObjects() const;
  /// Member id of object o, or kNoMember.
  std::uint32_t FindMember(ObjectId o) const;
  /// Appends a member attached to `nodes` (a flat insert passes none).
  std::uint32_t AppendMember(SiteObject object,
                             std::span<const std::uint32_t> nodes);
  /// True when the live members sit on more than rho distinct vertices.
  bool LiveVerticesExceedRho() const;

  const Graph& graph_;
  ApxNvdOptions options_;

  // Member table; members [0, num_sites_) are the Voronoi sites.
  std::vector<SiteObject> members_;
  std::uint32_t num_sites_ = 0;
  FlatLists<std::uint32_t> node_members_;   // Per node: site, attachments.
  FlatLists<std::uint32_t> attached_nodes_;  // Per member >= num_sites_.
  std::vector<bool> deleted_;                // Per member.
  std::size_t live_ = 0;
  // (object, member) sorted by object: Insert, Delete and the loader
  // resolve object ids here; the query path never does.
  std::vector<std::pair<ObjectId, std::uint32_t>> object_members_;

  // Site adjacency graph, arena-packed (CSR): the LazyReheap hot path
  // walks a node's neighbour list as one contiguous span.
  FlatLists<std::uint32_t> adjacency_;
  std::vector<Distance> max_radius_;
  std::unique_ptr<ColorQuadtree> quadtree_;
  std::unique_ptr<VoronoiRTree> rtree_;

  std::size_t lazy_inserts_ = 0;
  std::size_t last_affected_size_ = 0;
};

void SaveApxNvd(const ApxNvd& nvd, std::ostream& out);
std::unique_ptr<ApxNvd> LoadApxNvd(const Graph& graph, std::istream& in);

}  // namespace kspin

#endif  // KSPIN_NVD_APX_NVD_H_
