// Colour quadtree: the storage scheme of the rho-Approximate NVD (paper
// Section 6.1, Figure 5a).
//
// Each vertex carries a "colour" (the index of its nearest site). The
// space is recursively quadrisected until every cell contains at most rho
// distinct colours. Leaves are serialized as a Morton-ordered list
// (Samet): point location is a binary search over Z-order intervals, with
// good locality of reference and no pointer overhead.
//
// The Z-order of the points (a MortonOrder) depends only on their
// coordinates and the grid depth, not on the colours, so every keyword's
// quadtree over the graph's vertices can be built from one shared order:
// a build gathers its colours in that order and subdivides.
#ifndef KSPIN_NVD_QUADTREE_H_
#define KSPIN_NVD_QUADTREE_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/types.h"

namespace kspin {

/// The Z-order of a point set: each point's Morton code on a
/// 2^depth x 2^depth grid over the set's bounding box, and the point
/// indices sorted by code.
class MortonOrder {
 public:
  /// Orders non-empty `points`; `max_depth` is capped at 16.
  MortonOrder(std::span<const Coordinate> points,
              std::uint32_t max_depth = 16);

  std::size_t NumPoints() const { return sorted_.size(); }

  /// The grid depth: min(max_depth, 16).
  std::uint32_t Depth() const { return grid_bits_; }

 private:
  friend class ColorQuadtree;

  struct Entry {
    std::uint64_t z;
    std::uint32_t point;
  };

  double origin_x_ = 0, origin_y_ = 0, scale_ = 1;
  std::uint32_t grid_bits_ = 16;
  std::vector<Entry> sorted_;  // Ascending z.
};

/// Morton-list quadtree over coloured points.
class ColorQuadtree {
 public:
  /// Builds the quadtree. `points[i]` has colour `colors[i]`; both spans
  /// must be equal-sized and non-empty. `max_colors` is rho; `max_depth`
  /// caps subdivision (cells at max depth may exceed rho colours when
  /// distinct-coloured points share a quantized position — queries remain
  /// correct, only the rho guarantee loosens there).
  ColorQuadtree(std::span<const Coordinate> points,
                std::span<const std::uint32_t> colors,
                std::uint32_t max_colors, std::uint32_t max_depth = 16);

  /// The same tree from the points' precomputed Z-order (its depth caps
  /// subdivision): point i of `order` has colour `colors[i]`.
  ColorQuadtree(const MortonOrder& order,
                std::span<const std::uint32_t> colors,
                std::uint32_t max_colors);

  /// Colours of the leaf cell containing `p` (empty span if `p` falls in
  /// dead space no input point occupied).
  std::span<const std::uint32_t> Locate(const Coordinate& p) const;

  std::size_t NumLeaves() const { return leaves_.size(); }

  /// Depth of the deepest leaf.
  std::uint32_t MaxLeafDepth() const { return max_leaf_depth_; }

  /// Approximate memory in bytes (the paper's index-size metric for
  /// Figures 6a and 6c).
  std::size_t MemoryBytes() const {
    return leaves_.size() * sizeof(Leaf) +
           color_pool_.size() * sizeof(std::uint32_t);
  }

 private:
  friend void SaveColorQuadtree(const ColorQuadtree&, std::ostream&);
  friend ColorQuadtree LoadColorQuadtree(std::istream&);
  ColorQuadtree() = default;  // For deserialization only.

  struct Leaf {
    std::uint64_t z_begin;  // Inclusive.
    std::uint64_t z_end;    // Exclusive.
    std::uint32_t color_offset;
    std::uint32_t color_count;
  };

  std::uint64_t QuantizedZ(const Coordinate& p) const;

  double origin_x_ = 0, origin_y_ = 0, scale_ = 1;
  std::uint32_t grid_bits_ = 16;
  // Pod arenas, cache-line aligned: Locate's binary search walks leaves_
  // and its result is one contiguous color_pool_ slice.
  AlignedVector<Leaf> leaves_;                // Sorted by z_begin.
  AlignedVector<std::uint32_t> color_pool_;   // Leaf colour sets, concatenated.
  std::uint32_t max_leaf_depth_ = 0;
};

void SaveColorQuadtree(const ColorQuadtree& tree, std::ostream& out);
ColorQuadtree LoadColorQuadtree(std::istream& in);

}  // namespace kspin

#endif  // KSPIN_NVD_QUADTREE_H_
