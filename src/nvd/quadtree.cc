#include "nvd/quadtree.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "common/morton.h"

namespace kspin {
namespace {

// Morton code of p on the 2^grid_bits grid with the given origin and scale.
std::uint64_t GridZ(const Coordinate& p, double origin_x, double origin_y,
                    double scale, std::uint32_t grid_bits) {
  double fx = (static_cast<double>(p.x) - origin_x) * scale;
  double fy = (static_cast<double>(p.y) - origin_y) * scale;
  const double max_cell = static_cast<double>((1u << grid_bits) - 1);
  fx = std::clamp(fx, 0.0, max_cell);
  fy = std::clamp(fy, 0.0, max_cell);
  return MortonEncode(static_cast<std::uint32_t>(fx),
                      static_cast<std::uint32_t>(fy));
}

}  // namespace

MortonOrder::MortonOrder(std::span<const Coordinate> points,
                         std::uint32_t max_depth) {
  if (points.empty()) {
    throw std::invalid_argument("MortonOrder: no points");
  }
  grid_bits_ = std::min<std::uint32_t>(max_depth, 16);

  // Quantize coordinates onto a 2^grid_bits grid covering the bounding box.
  std::int64_t min_x = points[0].x, max_x = points[0].x;
  std::int64_t min_y = points[0].y, max_y = points[0].y;
  for (const Coordinate& p : points) {
    min_x = std::min<std::int64_t>(min_x, p.x);
    max_x = std::max<std::int64_t>(max_x, p.x);
    min_y = std::min<std::int64_t>(min_y, p.y);
    max_y = std::max<std::int64_t>(max_y, p.y);
  }
  origin_x_ = static_cast<double>(min_x);
  origin_y_ = static_cast<double>(min_y);
  const double span = static_cast<double>(
      std::max<std::int64_t>({max_x - min_x, max_y - min_y, 1}));
  const double cells = static_cast<double>(1u << grid_bits_);
  scale_ = (cells - 1.0) / span;

  sorted_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    sorted_[i] = {GridZ(points[i], origin_x_, origin_y_, scale_, grid_bits_),
                  static_cast<std::uint32_t>(i)};
  }
  std::sort(sorted_.begin(), sorted_.end(),
            [](const Entry& a, const Entry& b) { return a.z < b.z; });
}

ColorQuadtree::ColorQuadtree(std::span<const Coordinate> points,
                             std::span<const std::uint32_t> colors,
                             std::uint32_t max_colors,
                             std::uint32_t max_depth)
    : ColorQuadtree(MortonOrder(points, max_depth), colors, max_colors) {}

ColorQuadtree::ColorQuadtree(const MortonOrder& order,
                             std::span<const std::uint32_t> colors,
                             std::uint32_t max_colors) {
  if (colors.size() != order.NumPoints()) {
    throw std::invalid_argument("ColorQuadtree: bad input sizes");
  }
  if (max_colors == 0) {
    throw std::invalid_argument("ColorQuadtree: max_colors must be >= 1");
  }
  origin_x_ = order.origin_x_;
  origin_y_ = order.origin_y_;
  scale_ = order.scale_;
  grid_bits_ = order.grid_bits_;
  const std::vector<MortonOrder::Entry>& zpoints = order.sorted_;
  std::vector<std::uint32_t> zcolors(zpoints.size());
  for (std::size_t i = 0; i < zpoints.size(); ++i) {
    zcolors[i] = colors[zpoints[i].point];
  }

  // Recursive subdivision over the Morton-sorted array. A cell at `depth`
  // spans 2*(grid_bits_ - depth) trailing bits of the Z code.
  struct Frame {
    std::size_t begin, end;
    std::uint64_t z_begin;
    std::uint32_t depth;
  };
  std::vector<Frame> stack;
  stack.push_back({0, zpoints.size(), 0, 0});
  std::unordered_set<std::uint32_t> distinct;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.begin >= frame.end) continue;
    const std::uint32_t shift = 2 * (grid_bits_ - frame.depth);
    const std::uint64_t cell_span = shift >= 64 ? ~0ull : (1ull << shift);

    // Count distinct colours with early exit past max_colors.
    bool small_enough = true;
    if (frame.depth < grid_bits_) {
      distinct.clear();
      for (std::size_t i = frame.begin; i < frame.end; ++i) {
        distinct.insert(zcolors[i]);
        if (distinct.size() > max_colors) {
          small_enough = false;
          break;
        }
      }
    }
    if (small_enough || frame.depth >= grid_bits_) {
      distinct.clear();
      Leaf leaf;
      leaf.z_begin = frame.z_begin;
      leaf.z_end = frame.z_begin + cell_span;
      leaf.color_offset = static_cast<std::uint32_t>(color_pool_.size());
      for (std::size_t i = frame.begin; i < frame.end; ++i) {
        if (distinct.insert(zcolors[i]).second) {
          color_pool_.push_back(zcolors[i]);
        }
      }
      leaf.color_count =
          static_cast<std::uint32_t>(color_pool_.size()) - leaf.color_offset;
      leaves_.push_back(leaf);
      max_leaf_depth_ = std::max(max_leaf_depth_, frame.depth);
      continue;
    }
    // Split into 4 quadrants: find sub-range boundaries by Z prefix.
    const std::uint64_t quarter = cell_span >> 2;
    std::size_t sub_begin = frame.begin;
    for (std::uint32_t quad = 0; quad < 4; ++quad) {
      const std::uint64_t quad_z = frame.z_begin + quad * quarter;
      const std::uint64_t quad_end_z = quad_z + quarter;
      std::size_t sub_end = sub_begin;
      while (sub_end < frame.end && zpoints[sub_end].z < quad_end_z) {
        ++sub_end;
      }
      stack.push_back({sub_begin, sub_end, quad_z, frame.depth + 1});
      sub_begin = sub_end;
    }
  }
  std::sort(leaves_.begin(), leaves_.end(),
            [](const Leaf& a, const Leaf& b) { return a.z_begin < b.z_begin; });
}

std::uint64_t ColorQuadtree::QuantizedZ(const Coordinate& p) const {
  return GridZ(p, origin_x_, origin_y_, scale_, grid_bits_);
}

std::span<const std::uint32_t> ColorQuadtree::Locate(
    const Coordinate& p) const {
  const std::uint64_t z = QuantizedZ(p);
  // Last leaf with z_begin <= z.
  auto it = std::upper_bound(leaves_.begin(), leaves_.end(), z,
                             [](std::uint64_t value, const Leaf& leaf) {
                               return value < leaf.z_begin;
                             });
  if (it == leaves_.begin()) return {};
  --it;
  if (z >= it->z_end) return {};  // Dead space between leaves.
  return {color_pool_.data() + it->color_offset, it->color_count};
}

}  // namespace kspin
