// Exact Network Voronoi Diagram tests: owners, adjacency, MaxRadius.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "nvd/nvd.h"
#include "routing/dijkstra.h"
#include "test_util.h"

namespace kspin {
namespace {

TEST(Nvd, HandCheckedOwnersOnTinyGrid) {
  Graph graph = testing::TinyGrid();
  // Sites at corners 0 and 8.
  const std::vector<VertexId> sites = {0, 8};
  NetworkVoronoiDiagram nvd = BuildNvd(graph, sites);
  EXPECT_EQ(nvd.owner[0], 0u);
  EXPECT_EQ(nvd.owner[1], 0u);   // d=1 vs d=3.
  EXPECT_EQ(nvd.owner[8], 1u);
  EXPECT_EQ(nvd.owner[5], 1u);   // d(0,5)=3, d(8,5)=1.
  EXPECT_EQ(nvd.owner[4], 0u);   // d=2 vs d=3.
  // Vertex 2: d(0,2)=2, d(8,2)=2 -> tie broken to lower site index.
  EXPECT_EQ(nvd.owner[2], 0u);
  // The two regions touch.
  ASSERT_EQ(nvd.adjacency.size(), 2u);
  EXPECT_EQ(nvd.adjacency[0], std::vector<std::uint32_t>{1});
  EXPECT_EQ(nvd.adjacency[1], std::vector<std::uint32_t>{0});
}

TEST(Nvd, OwnersMatchBruteForceNearestSite) {
  Graph graph = testing::SmallRoadNetwork();
  Rng rng(31);
  std::vector<std::uint32_t> sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), 12);
  std::vector<VertexId> sites(sample.begin(), sample.end());
  NetworkVoronoiDiagram nvd = BuildNvd(graph, sites);

  DijkstraWorkspace workspace(graph.NumVertices());
  std::vector<std::vector<Distance>> site_dist;
  for (VertexId s : sites) {
    const auto& d = workspace.SingleSource(graph, s);
    site_dist.emplace_back(d.begin(), d.end());
  }
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    Distance best = kInfDistance;
    for (std::size_t s = 0; s < sites.size(); ++s) {
      best = std::min(best, site_dist[s][v]);
    }
    ASSERT_EQ(nvd.owner_distance[v], best) << "v=" << v;
    ASSERT_EQ(site_dist[nvd.owner[v]][v], best) << "v=" << v;
  }
}

// A unit-weight grid is full of equal-distance ties. The sites are listed
// in descending vertex order, so the lowest site index and the lowest
// vertex id disagree on every tie: each vertex must go to the lowest site
// index among its nearest sites, and MaxRadius and the adjacency must
// follow from those owners.
TEST(Nvd, TiesGoToTheLowestSiteIndexOnAUnitGrid) {
  constexpr VertexId kSide = 12;
  GraphBuilder builder(kSide * kSide);
  for (VertexId row = 0; row < kSide; ++row) {
    for (VertexId col = 0; col < kSide; ++col) {
      const VertexId v = row * kSide + col;
      if (col + 1 < kSide) builder.AddEdge(v, v + 1, 1);
      if (row + 1 < kSide) builder.AddEdge(v, v + kSide, 1);
    }
  }
  const Graph graph = builder.Build();
  Rng rng(35);
  std::vector<std::uint32_t> sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), 11);
  std::vector<VertexId> sites(sample.begin(), sample.end());
  std::sort(sites.rbegin(), sites.rend());
  const NetworkVoronoiDiagram nvd = BuildNvd(graph, sites);

  DijkstraWorkspace workspace(graph.NumVertices());
  std::vector<std::vector<Distance>> site_dist;
  for (VertexId s : sites) {
    const auto& d = workspace.SingleSource(graph, s);
    site_dist.emplace_back(d.begin(), d.end());
  }
  std::vector<std::uint32_t> owner(graph.NumVertices());
  std::vector<Distance> max_radius(sites.size(), 0);
  std::size_t ties = 0;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    std::uint32_t best = 0;
    std::size_t nearest = 0;
    for (std::uint32_t s = 0; s < sites.size(); ++s) {
      if (site_dist[s][v] < site_dist[best][v]) {
        best = s;
        nearest = 1;
      } else if (site_dist[s][v] == site_dist[best][v]) {
        ++nearest;
      }
    }
    if (nearest > 1) ++ties;
    owner[v] = best;
    max_radius[best] = std::max(max_radius[best], site_dist[best][v]);
    ASSERT_EQ(nvd.owner[v], best) << "v=" << v;
    ASSERT_EQ(nvd.owner_distance[v], site_dist[best][v]) << "v=" << v;
  }
  EXPECT_GT(ties, graph.NumVertices() / 10);
  EXPECT_EQ(nvd.max_radius, max_radius);

  std::vector<std::vector<std::uint32_t>> adjacency(sites.size());
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const Arc& arc : graph.Neighbors(u)) {
      if (owner[u] != owner[arc.head]) {
        adjacency[owner[u]].push_back(owner[arc.head]);
      }
    }
  }
  for (auto& list : adjacency) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  EXPECT_EQ(nvd.adjacency, adjacency);
}

TEST(Nvd, MaxRadiusIsTightPerSite) {
  Graph graph = testing::SmallRoadNetwork(5);
  Rng rng(32);
  std::vector<std::uint32_t> sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), 8);
  std::vector<VertexId> sites(sample.begin(), sample.end());
  NetworkVoronoiDiagram nvd = BuildNvd(graph, sites);
  std::vector<Distance> observed(sites.size(), 0);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    observed[nvd.owner[v]] =
        std::max(observed[nvd.owner[v]], nvd.owner_distance[v]);
  }
  EXPECT_EQ(observed, nvd.max_radius);
}

TEST(Nvd, AdjacencyMatchesEdgeCrossings) {
  Graph graph = testing::SmallRoadNetwork(6);
  Rng rng(33);
  std::vector<std::uint32_t> sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), 10);
  std::vector<VertexId> sites(sample.begin(), sample.end());
  NetworkVoronoiDiagram nvd = BuildNvd(graph, sites);
  // Recompute adjacency from scratch and compare.
  std::vector<std::set<std::uint32_t>> expected(sites.size());
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const Arc& arc : graph.Neighbors(u)) {
      const std::uint32_t a = nvd.owner[u];
      const std::uint32_t b = nvd.owner[arc.head];
      if (a != b) {
        expected[a].insert(b);
        expected[b].insert(a);
      }
    }
  }
  for (std::size_t s = 0; s < sites.size(); ++s) {
    std::set<std::uint32_t> got(nvd.adjacency[s].begin(),
                                nvd.adjacency[s].end());
    EXPECT_EQ(got, expected[s]) << "site " << s;
  }
}

TEST(Nvd, AverageAdjacencyDegreeIsSmall) {
  // Observation 2a: the adjacency graph degree is a small constant.
  Graph graph = testing::MediumRoadNetwork();
  Rng rng(34);
  std::vector<std::uint32_t> sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), 120);
  std::vector<VertexId> sites(sample.begin(), sample.end());
  NetworkVoronoiDiagram nvd = BuildNvd(graph, sites);
  std::size_t total_degree = 0;
  for (const auto& list : nvd.adjacency) total_degree += list.size();
  const double avg = static_cast<double>(total_degree) / sites.size();
  EXPECT_LT(avg, 12.0);  // Paper reports ~6 on real road networks.
  EXPECT_GT(avg, 2.0);
}

TEST(Nvd, ValidatesInput) {
  Graph graph = testing::TinyGrid();
  EXPECT_THROW(BuildNvd(graph, {}), std::invalid_argument);
  const std::vector<VertexId> dup = {1, 1};
  EXPECT_THROW(BuildNvd(graph, dup), std::invalid_argument);
  const std::vector<VertexId> oob = {99};
  EXPECT_THROW(BuildNvd(graph, oob), std::invalid_argument);
}

TEST(Nvd, SingleSiteOwnsEverything) {
  Graph graph = testing::TinyGrid();
  const std::vector<VertexId> sites = {4};
  NetworkVoronoiDiagram nvd = BuildNvd(graph, sites);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    EXPECT_EQ(nvd.owner[v], 0u);
  }
  EXPECT_TRUE(nvd.adjacency[0].empty());
}

}  // namespace
}  // namespace kspin
