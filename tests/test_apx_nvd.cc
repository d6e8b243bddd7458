// rho-Approximate NVD tests: Definition 1 (the 1NN is always among the
// candidates), flat small-list mode (Observation 1), expansion supply for
// Algorithm 4, both storage backends, and co-located objects.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "nvd/apx_nvd.h"
#include "routing/dijkstra.h"
#include "test_util.h"

namespace kspin {
namespace {

std::vector<SiteObject> RandomSites(const Graph& graph, std::uint32_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  auto sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), count);
  std::vector<SiteObject> sites;
  for (std::uint32_t i = 0; i < count; ++i) {
    sites.push_back({static_cast<ObjectId>(i), sample[i]});
  }
  return sites;
}

class ApxNvdStorageTest : public ::testing::TestWithParam<ApxNvdStorage> {};

TEST_P(ApxNvdStorageTest, InitialMembersContainThe1Nn) {
  Graph graph = testing::SmallRoadNetwork();
  const auto sites = RandomSites(graph, 30, 41);
  ApxNvdOptions options;
  options.rho = 4;
  options.storage = GetParam();
  ApxNvd nvd(graph, sites, options);
  ASSERT_TRUE(nvd.HasVoronoi());

  DijkstraWorkspace workspace(graph.NumVertices());
  for (VertexId q = 0; q < graph.NumVertices(); q += 5) {
    const auto& dist = workspace.SingleSource(graph, q);
    Distance best = kInfDistance;
    for (const SiteObject& s : sites) best = std::min(best, dist[s.vertex]);

    const std::vector<SiteObject> candidates =
        testing::InitialObjects(nvd, q);
    ASSERT_FALSE(candidates.empty()) << "q=" << q;
    bool has_1nn = false;
    for (const SiteObject& c : candidates) {
      if (dist[c.vertex] == best) has_1nn = true;
    }
    EXPECT_TRUE(has_1nn) << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ApxNvdStorageTest,
                         ::testing::Values(ApxNvdStorage::kQuadtree,
                                           ApxNvdStorage::kRTree));

TEST(ApxNvd, QuadtreeCandidatesRespectRho) {
  Graph graph = testing::MediumRoadNetwork();
  const auto sites = RandomSites(graph, 80, 42);
  ApxNvdOptions options;
  options.rho = 5;
  ApxNvd nvd(graph, sites, options);
  std::vector<std::uint32_t> candidates;
  for (VertexId q = 0; q < graph.NumVertices(); q += 13) {
    candidates.clear();
    nvd.InitialMembers(q, &candidates);
    EXPECT_LE(candidates.size(), 5u) << "q=" << q;
  }
}

TEST(ApxNvd, SmallListsStayFlat) {
  Graph graph = testing::SmallRoadNetwork();
  const auto sites = RandomSites(graph, 4, 43);
  ApxNvdOptions options;
  options.rho = 5;
  ApxNvd nvd(graph, sites, options);
  EXPECT_FALSE(nvd.HasVoronoi());  // Observation 1: no Voronoi built.
  // The whole inverted list, and nothing more to add.
  EXPECT_EQ(testing::InitialObjects(nvd, 0).size(), 4u);
  EXPECT_TRUE(testing::ExpansionObjects(nvd, sites[0].object).empty());
}

TEST(ApxNvd, ExpansionSuppliesAdjacentObjects) {
  Graph graph = testing::SmallRoadNetwork();
  const auto sites = RandomSites(graph, 25, 44);
  ApxNvdOptions options;
  options.rho = 3;
  ApxNvd nvd(graph, sites, options);
  // Expanding from every site and chaining must eventually reach all
  // objects (the adjacency graph of a connected network is connected).
  std::set<ObjectId> reached;
  std::vector<ObjectId> frontier = {sites[0].object};
  reached.insert(sites[0].object);
  while (!frontier.empty()) {
    const ObjectId o = frontier.back();
    frontier.pop_back();
    for (const SiteObject& s : testing::ExpansionObjects(nvd, o)) {
      if (reached.insert(s.object).second) frontier.push_back(s.object);
    }
  }
  EXPECT_EQ(reached.size(), sites.size());
}

TEST(ApxNvd, ColocatedObjectsAllSurface) {
  Graph graph = testing::SmallRoadNetwork();
  auto sites = RandomSites(graph, 20, 45);
  // Two extra objects share vertex with site 0.
  sites.push_back({100, sites[0].vertex});
  sites.push_back({101, sites[0].vertex});
  ApxNvdOptions options;
  options.rho = 3;
  ApxNvd nvd(graph, sites, options);
  // Wherever site 0 appears, the co-located objects ride along.
  // Gather full reachable set from any start.
  std::set<ObjectId> reached;
  std::vector<ObjectId> frontier = {sites[1].object};
  while (!frontier.empty()) {
    const ObjectId o = frontier.back();
    frontier.pop_back();
    for (const SiteObject& s : testing::ExpansionObjects(nvd, o)) {
      if (reached.insert(s.object).second) frontier.push_back(s.object);
    }
  }
  EXPECT_TRUE(reached.contains(100));
  EXPECT_TRUE(reached.contains(101));
  EXPECT_EQ(nvd.NumLiveObjects(), sites.size());
}

TEST(ApxNvd, RejectsDuplicateObjectIds) {
  Graph graph = testing::TinyGrid();
  std::vector<SiteObject> sites = {{1, 0}, {1, 8}};
  EXPECT_THROW(ApxNvd(graph, sites, {}), std::invalid_argument);
}

TEST(ApxNvd, RejectsZeroRho) {
  Graph graph = testing::TinyGrid();
  ApxNvdOptions options;
  options.rho = 0;
  EXPECT_THROW(ApxNvd(graph, {{0, 1}}, options), std::invalid_argument);
}

// A shared Z-order must be of the graph's vertices at the options'
// quadtree depth (capped at 16); any other would build the tree at
// another depth or over other points.
TEST(ApxNvd, RejectsAMismatchedSharedOrder) {
  Graph graph = testing::SmallRoadNetwork();
  const auto sites = RandomSites(graph, 20, 47);
  ApxNvdOptions options;
  options.quadtree_max_depth = 12;
  const MortonOrder at_12(graph.Coordinates(), 12);
  const MortonOrder at_16(graph.Coordinates(), 16);
  const std::vector<Coordinate> fewer(graph.Coordinates().begin(),
                                      graph.Coordinates().end() - 1);
  const MortonOrder short_12(fewer, 12);
  EXPECT_TRUE(ApxNvd(graph, sites, options, &at_12).HasVoronoi());
  EXPECT_THROW(ApxNvd(graph, sites, options, &at_16), std::invalid_argument);
  EXPECT_THROW(ApxNvd(graph, sites, options, &short_12),
               std::invalid_argument);
  options.quadtree_max_depth = 20;
  EXPECT_TRUE(ApxNvd(graph, sites, options, &at_16).HasVoronoi());
  EXPECT_THROW(ApxNvd(graph, sites, options, &at_12), std::invalid_argument);
}

TEST(ApxNvd, MemoryShrinksWithLargerRho) {
  Graph graph = testing::MediumRoadNetwork();
  const auto sites = RandomSites(graph, 100, 46);
  ApxNvdOptions exact_options;
  exact_options.rho = 1;
  ApxNvdOptions apx_options;
  apx_options.rho = 5;
  ApxNvd exact(graph, sites, exact_options);
  ApxNvd apx(graph, sites, apx_options);
  EXPECT_GT(exact.MemoryBytes(), apx.MemoryBytes());
}

}  // namespace
}  // namespace kspin
