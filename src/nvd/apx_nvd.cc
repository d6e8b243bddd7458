#include "nvd/apx_nvd.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "nvd/nvd.h"

namespace kspin {

ApxNvd::ApxNvd(const Graph& graph, std::vector<SiteObject> sites,
               ApxNvdOptions options)
    : graph_(graph), options_(options) {
  if (options_.rho == 0) {
    throw std::invalid_argument("ApxNvd: rho must be >= 1");
  }
  Build(std::move(sites));
}

void ApxNvd::Build(std::vector<SiteObject> sites) {
  members_.clear();
  node_members_.Clear();
  attached_nodes_.Clear();
  object_members_.clear();
  adjacency_.Clear();
  max_radius_.clear();
  quadtree_.reset();
  rtree_.reset();
  lazy_inserts_ = 0;

  // Objects sharing a vertex collapse onto one Voronoi site: the first
  // becomes the site, the rest ride along as attachments of that node (so
  // they surface whenever the node does; their distances are identical).
  std::unordered_map<VertexId, std::uint32_t> vertex_site;
  std::vector<std::pair<std::uint32_t, SiteObject>> colocated;  // (node, o)
  members_.reserve(sites.size());
  for (const SiteObject& s : sites) {
    auto [it, inserted] = vertex_site.try_emplace(
        s.vertex, static_cast<std::uint32_t>(members_.size()));
    if (inserted) {
      members_.push_back(s);
    } else {
      colocated.emplace_back(it->second, s);
    }
  }
  num_sites_ = static_cast<std::uint32_t>(members_.size());

  // Colocated objects follow the sites, grouped by node (input order
  // within a node); each node's list is its site, then those objects.
  std::stable_sort(colocated.begin(), colocated.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::uint32_t> list;
  std::size_t next = 0;
  for (std::uint32_t node = 0; node < num_sites_; ++node) {
    list.assign(1, node);
    for (; next < colocated.size() && colocated[next].first == node;
         ++next) {
      list.push_back(static_cast<std::uint32_t>(members_.size()));
      members_.push_back(colocated[next].second);
      attached_nodes_.Append(std::span<const std::uint32_t>(&node, 1));
    }
    node_members_.Append(list);
  }
  deleted_.assign(members_.size(), false);
  live_ = members_.size();

  object_members_.reserve(members_.size());
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    object_members_.emplace_back(members_[m].object, m);
  }
  std::sort(object_members_.begin(), object_members_.end());
  for (std::size_t i = 1; i < object_members_.size(); ++i) {
    if (object_members_[i - 1].first == object_members_[i].first) {
      throw std::invalid_argument("ApxNvd: duplicate object id");
    }
  }

  // Observation 1: tiny inverted lists need no Voronoi machinery at all —
  // the "index" is the flat list itself.
  if (num_sites_ <= options_.rho) return;

  if (!graph_.HasCoordinates()) {
    throw std::invalid_argument(
        "ApxNvd: graph coordinates required for Voronoi storage");
  }

  std::vector<VertexId> site_vertices(num_sites_);
  for (std::uint32_t i = 0; i < num_sites_; ++i) {
    site_vertices[i] = members_[i].vertex;
  }
  NetworkVoronoiDiagram nvd = BuildNvd(graph_, site_vertices);
  adjacency_ = FlatLists<std::uint32_t>::FromLists(nvd.adjacency);
  max_radius_ = std::move(nvd.max_radius);

  // Voronoi storage over every vertex's owner colour; the O(|V|) owner
  // array itself is discarded (Observation 2a).
  if (options_.storage == ApxNvdStorage::kQuadtree) {
    quadtree_ = std::make_unique<ColorQuadtree>(
        graph_.Coordinates(), nvd.owner, options_.rho,
        options_.quadtree_max_depth);
  } else {
    rtree_ = std::make_unique<VoronoiRTree>(graph_.Coordinates(), nvd.owner);
  }
}

void ApxNvd::InitialMembers(VertexId q,
                            std::vector<std::uint32_t>* out) const {
  if (!HasVoronoi()) {
    for (std::uint32_t m = 0; m < members_.size(); ++m) out->push_back(m);
    return;
  }
  const Coordinate& coord = graph_.VertexCoordinate(q);
  auto emit_node = [this, out](std::uint32_t node) {
    const std::span<const std::uint32_t> list = node_members_[node];
    out->insert(out->end(), list.begin(), list.end());
  };
  if (quadtree_ != nullptr) {
    for (std::uint32_t color : quadtree_->Locate(coord)) emit_node(color);
  } else {
    // Thread-local so concurrent readers of one ApxNvd don't share scratch.
    thread_local std::vector<std::uint32_t> locate_scratch;
    rtree_->Locate(coord, &locate_scratch);
    for (std::uint32_t color : locate_scratch) emit_node(color);
  }
}

std::uint32_t ApxNvd::FindMember(ObjectId o) const {
  auto it = std::lower_bound(
      object_members_.begin(), object_members_.end(), o,
      [](const auto& entry, ObjectId id) { return entry.first < id; });
  return it != object_members_.end() && it->first == o ? it->second
                                                        : kNoMember;
}

bool ApxNvd::IsDeleted(ObjectId o) const {
  const std::uint32_t m = FindMember(o);
  return m != kNoMember && deleted_[m];
}

std::vector<SiteObject> ApxNvd::LiveObjects() const {
  std::vector<SiteObject> live;
  live.reserve(live_);
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    if (!deleted_[m]) live.push_back(members_[m]);
  }
  return live;
}

std::size_t ApxNvd::MemoryBytes() const {
  std::size_t total = members_.capacity() * sizeof(SiteObject) +
                      node_members_.MemoryBytes() +
                      attached_nodes_.MemoryBytes() +
                      deleted_.capacity() / 8 +
                      object_members_.capacity() *
                          sizeof(object_members_.front()) +
                      max_radius_.capacity() * sizeof(Distance) +
                      adjacency_.MemoryBytes();
  if (quadtree_ != nullptr) total += quadtree_->MemoryBytes();
  if (rtree_ != nullptr) total += rtree_->MemoryBytes();
  return total;
}

}  // namespace kspin
