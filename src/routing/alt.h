// ALT landmark index (Goldberg & Harrelson, SODA'05) used as the K-SPIN
// *Lower Bounding Module* (paper Section 3, module 1).
//
// Pre-computes network distances from m landmark vertices to every vertex;
// the triangle inequality then yields a lower bound on d(s, t) in O(m):
//   d(s, t) >= |d(l, s) - d(l, t)| for every landmark l.
//
// Storage is vertex-major: distances_[v * m + l] holds d(l, v), so one
// lower-bound evaluation reads exactly two contiguous rows (the
// landmark-major transpose would scatter m cache lines per call).
#ifndef KSPIN_ROUTING_ALT_H_
#define KSPIN_ROUTING_ALT_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "graph/graph.h"
#include "routing/lower_bound.h"

namespace kspin {

/// Landmark selection strategy.
enum class LandmarkStrategy {
  kRandom,    ///< Uniform random vertices.
  kFarthest,  ///< Greedy farthest-point traversal (default; best bounds on
              ///< road networks per Abeywickrama & Cheema, DASFAA'17).
};

/// Landmark-based lower-bound index (the primary LowerBoundModule).
class AltIndex : public LowerBoundModule {
 public:
  /// Builds an index with `num_landmarks` landmarks (clamped to |V|).
  /// Costs one Dijkstra per landmark. Throws on num_landmarks == 0 or an
  /// empty graph.
  AltIndex(const Graph& graph, std::uint32_t num_landmarks,
           LandmarkStrategy strategy = LandmarkStrategy::kFarthest,
           std::uint64_t seed = 7);

  /// Lower bound on the network distance d(s, t). Guaranteed
  /// LowerBound(s, t) <= d(s, t), with equality when s or t is a landmark.
  Distance LowerBound(VertexId s, VertexId t) const override {
    const Distance* a = Row(s);
    const Distance* b = Row(t);
    Distance best = 0;
    for (std::size_t l = 0; l < landmarks_.size(); ++l) {
      const Distance ds = a[l];
      const Distance dt = b[l];
      const Distance diff = ds > dt ? ds - dt : dt - ds;
      if (diff > best) best = diff;
    }
    return best;
  }

  /// The chosen landmark vertices.
  const std::vector<VertexId>& Landmarks() const { return landmarks_; }

  std::string Name() const override { return "alt"; }

  /// Approximate index memory in bytes.
  std::size_t MemoryBytes() const override {
    return distances_.size() * sizeof(Distance) +
           landmarks_.size() * sizeof(VertexId);
  }

 private:
  friend void SaveAltIndex(const AltIndex&, std::ostream&);
  friend AltIndex LoadAltIndex(std::istream&);
  AltIndex() = default;  // For deserialization only.

  const Distance* Row(VertexId v) const {
    return distances_.data() +
           static_cast<std::size_t>(v) * landmarks_.size();
  }

  std::size_t num_vertices_ = 0;
  std::vector<VertexId> landmarks_;
  AlignedVector<Distance> distances_;  // Vertex-major: vertex x landmark.
};

void SaveAltIndex(const AltIndex& alt, std::ostream& out);
AltIndex LoadAltIndex(std::istream& in);

}  // namespace kspin

#endif  // KSPIN_ROUTING_ALT_H_
