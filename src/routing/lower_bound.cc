#include "routing/lower_bound.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "routing/alt.h"

namespace kspin {
namespace {

double EuclideanLength(const Coordinate& a, const Coordinate& b) {
  const double dx = static_cast<double>(a.x) - b.x;
  const double dy = static_cast<double>(a.y) - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

EuclideanLowerBound::EuclideanLowerBound(const Graph& graph)
    : coords_(graph.Coordinates().data()) {
  if (!graph.HasCoordinates()) {
    throw std::invalid_argument(
        "EuclideanLowerBound: graph coordinates required");
  }
  // r = min over edges of weight / geometric length. Any edge of zero
  // geometric length (coincident endpoints) forces r = 0, i.e. a vacuous
  // but still admissible bound.
  double ratio = std::numeric_limits<double>::infinity();
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const Arc& arc : graph.Neighbors(u)) {
      const double length =
          EuclideanLength(coords_[u], coords_[arc.head]);
      if (length <= 0.0) {
        ratio = 0.0;
        break;
      }
      ratio = std::min(ratio, static_cast<double>(arc.weight) / length);
    }
  }
  ratio_ = std::isinf(ratio) ? 0.0 : ratio;
}

Distance EuclideanLowerBound::LowerBound(VertexId s, VertexId t) const {
  if (s == t) return 0;
  const double bound = ratio_ * EuclideanLength(coords_[s], coords_[t]);
  return static_cast<Distance>(std::floor(bound));
}

MaxLowerBound::MaxLowerBound(std::vector<const LowerBoundModule*> children)
    : children_(std::move(children)) {
  if (children_.empty()) {
    throw std::invalid_argument("MaxLowerBound: no children");
  }
  if (children_.size() == 1) {
    single_ = children_.front();
    // The overwhelmingly common single child is the ALT index; resolving
    // it to its concrete type here turns every hot-path call into a
    // direct (devirtualized) call.
    alt_only_ = dynamic_cast<const AltIndex*>(single_);
  }
}

Distance MaxLowerBound::LowerBound(VertexId s, VertexId t) const {
  if (alt_only_ != nullptr) return alt_only_->AltIndex::LowerBound(s, t);
  if (single_ != nullptr) return single_->LowerBound(s, t);
  Distance best = 0;
  for (const LowerBoundModule* child : children_) {
    const Distance lb = child->LowerBound(s, t);
    if (lb > best) best = lb;
  }
  return best;
}

std::string MaxLowerBound::Name() const {
  std::string name = "max(";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) name += ",";
    name += children_[i]->Name();
  }
  return name + ")";
}

}  // namespace kspin
