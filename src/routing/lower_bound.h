// The Lower Bounding Module interface (paper Section 3, module 1).
//
// "Multiple heuristics can be considered to allow the module to return the
// tightest lower-bound network distance overall. Depending on the
// application and indexes available, the module may use more or fewer
// lower-bound heuristics." — this header provides the abstraction, an
// index-free Euclidean heuristic, and a tightest-of composite; the ALT
// landmark index (alt.h) is the primary implementation.
#ifndef KSPIN_ROUTING_LOWER_BOUND_H_
#define KSPIN_ROUTING_LOWER_BOUND_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"

namespace kspin {

class AltIndex;

/// Admissible lower-bound estimator: LowerBound(s, t) <= d(s, t) always.
class LowerBoundModule {
 public:
  virtual ~LowerBoundModule() = default;

  /// A lower bound on the network distance d(s, t).
  virtual Distance LowerBound(VertexId s, VertexId t) const = 0;

  /// out[i] = LowerBound(s, targets[i]). Kept only because perfbench's
  /// TimedLowerBound overrides it and perfbench/ is frozen.
  virtual void LowerBoundBatch(VertexId s,
                               std::span<const VertexId> targets,
                               std::span<Distance> out) const {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      out[i] = LowerBound(s, targets[i]);
    }
  }

  /// Short human-readable name.
  virtual std::string Name() const = 0;

  /// Approximate index memory in bytes.
  virtual std::size_t MemoryBytes() const { return 0; }
};

/// Index-free geometric heuristic: d(s, t) >= r * euclid(s, t) where r is
/// the smallest per-unit-length edge cost in the graph (every path of
/// geometric length L costs at least r * L, and any s-t path is at least
/// euclid(s, t) long). Weaker than ALT but free; useful composed with it.
class EuclideanLowerBound : public LowerBoundModule {
 public:
  /// Derives the cost ratio from the graph. Requires coordinates; throws
  /// std::invalid_argument otherwise. The coordinate array pointer is
  /// captured here, so per-call evaluation is two loads off one base —
  /// the graph's coordinate storage must stay put while this exists
  /// (graphs are immutable once built).
  explicit EuclideanLowerBound(const Graph& graph);

  Distance LowerBound(VertexId s, VertexId t) const override;
  std::string Name() const override { return "euclidean"; }

  /// The derived minimum cost per unit of geometric length.
  double CostRatio() const { return ratio_; }

 private:
  const Coordinate* coords_ = nullptr;  // Hoisted from the graph.
  double ratio_ = 0.0;
};

/// Returns the maximum (tightest) of several lower bounds. Does not own
/// its children; they must outlive the composite.
///
/// The common deployments are devirtualized at construction: a lone child
/// skips the composite loop entirely, and a lone AltIndex child is called
/// through its concrete type (no virtual dispatch on the hot path).
class MaxLowerBound : public LowerBoundModule {
 public:
  explicit MaxLowerBound(std::vector<const LowerBoundModule*> children);

  Distance LowerBound(VertexId s, VertexId t) const override;
  std::string Name() const override;
  std::size_t MemoryBytes() const override {
    std::size_t total = 0;
    for (const LowerBoundModule* child : children_) {
      total += child->MemoryBytes();
    }
    return total;
  }

 private:
  std::vector<const LowerBoundModule*> children_;
  const LowerBoundModule* single_ = nullptr;  // Set when exactly one child.
  const AltIndex* alt_only_ = nullptr;  // Set when that child is an ALT.
};

}  // namespace kspin

#endif  // KSPIN_ROUTING_LOWER_BOUND_H_
