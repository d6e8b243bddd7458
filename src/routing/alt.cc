#include "routing/alt.h"

#include <algorithm>
#include <stdexcept>

#include "common/random.h"
#include "routing/dijkstra.h"

namespace kspin {

AltIndex::AltIndex(const Graph& graph, std::uint32_t num_landmarks,
                   LandmarkStrategy strategy, std::uint64_t seed) {
  const std::size_t num_vertices = graph.NumVertices();
  if (num_vertices == 0) {
    throw std::invalid_argument("AltIndex: empty graph");
  }
  if (num_landmarks == 0) {
    throw std::invalid_argument("AltIndex: need at least one landmark");
  }
  num_landmarks = static_cast<std::uint32_t>(
      std::min<std::size_t>(num_landmarks, num_vertices));
  num_vertices_ = num_vertices;
  distances_.assign(num_vertices * num_landmarks, 0);

  Rng rng(seed);
  DijkstraWorkspace workspace(num_vertices);
  const auto scatter_column = [this, num_landmarks](
                                  std::size_t l,
                                  const std::vector<Distance>& d) {
    for (std::size_t v = 0; v < d.size(); ++v) {
      distances_[v * num_landmarks + l] = d[v];
    }
  };

  if (strategy == LandmarkStrategy::kRandom) {
    std::vector<std::uint32_t> sample = rng.SampleWithoutReplacement(
        static_cast<std::uint32_t>(num_vertices), num_landmarks);
    for (std::uint32_t v : sample) landmarks_.push_back(v);
    for (std::size_t l = 0; l < landmarks_.size(); ++l) {
      scatter_column(l, workspace.SingleSource(graph, landmarks_[l]));
    }
    return;
  }

  // Farthest-point traversal: start from a random vertex, repeatedly pick
  // the vertex maximizing the minimum distance to chosen landmarks.
  std::vector<Distance> min_dist(num_vertices, kInfDistance);
  VertexId next = static_cast<VertexId>(rng.UniformInt(0, num_vertices - 1));
  for (std::uint32_t i = 0; i < num_landmarks; ++i) {
    landmarks_.push_back(next);
    const std::vector<Distance>& d = workspace.SingleSource(graph, next);
    scatter_column(i, d);
    Distance best = 0;
    VertexId best_vertex = next;
    for (VertexId v = 0; v < num_vertices; ++v) {
      min_dist[v] = std::min(min_dist[v], d[v]);
      if (min_dist[v] != kInfDistance && min_dist[v] > best) {
        best = min_dist[v];
        best_vertex = v;
      }
    }
    next = best_vertex;
  }
}

}  // namespace kspin
