// Hub labeling: the fast, memory-hungry Network Distance Module option
// (variant KS-PHL in the paper — see DESIGN.md §3: we substitute Pruned
// Highway Labeling with a 2-hop hub labeling of the same index family).
//
// L(v) holds the entries of v's upward Contraction Hierarchy search space
// whose distance is exact. Labels are built top-down in CH rank, each from
// labels already final, straight into one array of 8-byte entries. A
// point-to-point query is a merge join of two sorted label arrays — no
// graph traversal.
#ifndef KSPIN_ROUTING_HUB_LABELING_H_
#define KSPIN_ROUTING_HUB_LABELING_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "routing/contraction_hierarchy.h"
#include "routing/distance_oracle.h"

namespace kspin {

/// One (hub, distance) label entry: 8 bytes, no padding. The build throws
/// rather than truncate a distance that does not fit in 32 bits.
struct LabelEntry {
  VertexId hub;
  std::uint32_t distance;
};

/// 2-hop labeling built from a Contraction Hierarchy.
class HubLabeling {
 public:
  /// Builds labels from the CH of `graph`. Throws std::invalid_argument
  /// when the two disagree on the vertex count, and std::overflow_error
  /// when a label distance does not fit in 32 bits.
  HubLabeling(const Graph& graph, const ContractionHierarchy& ch);

  /// Exact network distance via label merge join.
  Distance Query(VertexId s, VertexId t) const;

  /// The sorted-by-hub label of vertex v.
  std::span<const LabelEntry> Label(VertexId v) const {
    return {entries_.data() + offsets_[v],
            entries_.data() + offsets_[v + 1]};
  }

  std::size_t NumVertices() const { return offsets_.size() - 1; }

  /// Mean label size (entries per vertex); the key size statistic.
  double AverageLabelSize() const {
    return offsets_.empty() || offsets_.size() == 1
               ? 0.0
               : static_cast<double>(entries_.size()) /
                     (offsets_.size() - 1);
  }

  /// Approximate index memory in bytes.
  std::size_t MemoryBytes() const {
    return entries_.size() * sizeof(LabelEntry) +
           offsets_.size() * sizeof(std::size_t);
  }

 private:
  friend void SaveHubLabeling(const HubLabeling&, std::ostream&);
  friend HubLabeling LoadHubLabeling(std::istream&);
  HubLabeling() = default;  // For deserialization only.

  std::vector<std::size_t> offsets_;
  std::vector<LabelEntry> entries_;
};

void SaveHubLabeling(const HubLabeling& labels, std::ostream& out);
HubLabeling LoadHubLabeling(std::istream& in);

/// DistanceOracle adapter over a HubLabeling. Label queries are pure merge
/// joins with no mutable state, so the workspace is the empty base class.
class HubLabelOracle : public DistanceOracle {
 public:
  explicit HubLabelOracle(const HubLabeling& labels) : labels_(labels) {}

  using DistanceOracle::NetworkDistance;
  using DistanceOracle::BeginSourceBatch;

  std::unique_ptr<OracleWorkspace> MakeWorkspace() const override {
    return std::make_unique<OracleWorkspace>();
  }
  Distance NetworkDistance(OracleWorkspace& /*workspace*/, VertexId s,
                           VertexId t) const override {
    return labels_.Query(s, t);
  }
  std::string Name() const override { return "hl"; }
  std::size_t MemoryBytes() const override { return labels_.MemoryBytes(); }

 private:
  const HubLabeling& labels_;
};

}  // namespace kspin

#endif  // KSPIN_ROUTING_HUB_LABELING_H_
