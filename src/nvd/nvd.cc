#include "nvd/nvd.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace kspin {
namespace {

// Monotone radix heap over (distance, vertex) (Ahuja, Mehlhorn, Orlin and
// Tarjan, 1990): valid while no pushed key is below the last popped one,
// as in Dijkstra. Bucket b > 0 holds the keys whose highest bit differing
// from the last popped key is bit b - 1; bucket 0 holds keys equal to it.
// Pops among equal keys come in no particular order.
class RadixHeap {
 public:
  bool Empty() const { return size_ == 0; }

  void Push(Distance key, VertexId vertex) {
    buckets_[BucketOf(key)].push_back({key, vertex});
    ++size_;
  }

  std::pair<Distance, VertexId> Pop() {
    if (buckets_[0].empty()) {
      // The least key of the first non-empty bucket becomes the new
      // reference; every entry of that bucket then lands strictly lower.
      std::size_t b = 1;
      while (buckets_[b].empty()) ++b;
      std::vector<Entry>& bucket = buckets_[b];
      last_ = std::min_element(bucket.begin(), bucket.end())->first;
      for (const Entry& entry : bucket) {
        buckets_[BucketOf(entry.first)].push_back(entry);
      }
      bucket.clear();
    }
    const Entry top = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return top;
  }

 private:
  using Entry = std::pair<Distance, VertexId>;

  std::size_t BucketOf(Distance key) const {
    return static_cast<std::size_t>(std::bit_width(key ^ last_));
  }

  std::array<std::vector<Entry>, 65> buckets_;
  Distance last_ = 0;
  std::size_t size_ = 0;
};

}  // namespace

NetworkVoronoiDiagram BuildNvd(const Graph& graph,
                               std::span<const VertexId> sites) {
  if (sites.empty()) {
    throw std::invalid_argument("BuildNvd: no sites");
  }
  {
    std::unordered_set<VertexId> unique(sites.begin(), sites.end());
    if (unique.size() != sites.size()) {
      throw std::invalid_argument("BuildNvd: duplicate site vertices");
    }
  }

  const std::size_t n = graph.NumVertices();
  NetworkVoronoiDiagram nvd;
  nvd.owner.assign(n, NetworkVoronoiDiagram::kInvalidSite);
  nvd.owner_distance.assign(n, kInfDistance);
  nvd.adjacency.assign(sites.size(), {});
  nvd.max_radius.assign(sites.size(), 0);

  // Multi-source Dijkstra. A vertex settles with the least site among its
  // minimal-distance offers: weights are strictly positive, so every such
  // offer comes from a vertex settled earlier, before the vertex's first
  // entry pops. An equal-distance offer from a lower site therefore just
  // rewrites the owner, and the queue needs no site and no tie order.
  RadixHeap queue;
  for (std::uint32_t s = 0; s < sites.size(); ++s) {
    const VertexId v = sites[s];
    if (v >= n) throw std::invalid_argument("BuildNvd: site out of range");
    nvd.owner[v] = s;
    nvd.owner_distance[v] = 0;
    queue.Push(0, v);
  }
  while (!queue.Empty()) {
    const auto [d, v] = queue.Pop();
    if (d > nvd.owner_distance[v]) continue;  // Stale entry.
    const std::uint32_t site = nvd.owner[v];
    nvd.max_radius[site] = std::max(nvd.max_radius[site], d);
    for (const Arc& arc : graph.Neighbors(v)) {
      const Distance nd = d + arc.weight;
      Distance& head_distance = nvd.owner_distance[arc.head];
      if (nd < head_distance) {
        head_distance = nd;
        nvd.owner[arc.head] = site;
        queue.Push(nd, arc.head);
      } else if (nd == head_distance && site < nvd.owner[arc.head]) {
        nvd.owner[arc.head] = site;
      }
    }
  }

  // Adjacency: any edge joining two different Voronoi node sets.
  for (VertexId u = 0; u < n; ++u) {
    const std::uint32_t a = nvd.owner[u];
    if (a == NetworkVoronoiDiagram::kInvalidSite) continue;
    for (const Arc& arc : graph.Neighbors(u)) {
      if (u >= arc.head) continue;
      const std::uint32_t b = nvd.owner[arc.head];
      if (b == NetworkVoronoiDiagram::kInvalidSite || a == b) continue;
      nvd.adjacency[a].push_back(b);
      nvd.adjacency[b].push_back(a);
    }
  }
  for (auto& list : nvd.adjacency) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return nvd;
}

}  // namespace kspin
