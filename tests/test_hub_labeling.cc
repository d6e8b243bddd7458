// Hub labeling correctness and structure: exactness against Dijkstra, the
// label set pinned to its definition (the exact entries of the upward CH
// search space), 32-bit label distances, and the 2-hop cover property.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/random.h"
#include "routing/dijkstra.h"
#include "routing/hub_labeling.h"
#include "test_util.h"

namespace kspin {
namespace {

class HlExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HlExactness, MatchesDijkstra) {
  Graph graph = testing::SmallRoadNetwork(GetParam());
  ContractionHierarchy ch(graph);
  HubLabeling labels(graph, ch);
  DijkstraWorkspace workspace(graph.NumVertices());
  Rng rng(GetParam() + 100);
  for (int i = 0; i < 8; ++i) {
    const VertexId s =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const auto& dist = workspace.SingleSource(graph, s);
    for (VertexId t = 0; t < graph.NumVertices(); t += 11) {
      ASSERT_EQ(labels.Query(s, t), dist[t]) << "s=" << s << " t=" << t;
    }
  }
}

// L(v) is exactly the set of entries of v's upward CH search space whose
// upward distance equals the network distance, in hub order: a build that
// keeps an inexact entry or drops an exact one fails here.
TEST_P(HlExactness, LabelIsTheExactPartOfTheUpwardSearchSpace) {
  Graph graph = testing::SmallRoadNetwork(GetParam());
  ContractionHierarchy ch(graph);
  HubLabeling labels(graph, ch);
  ContractionHierarchy::SearchSpace space;
  DijkstraWorkspace workspace(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    const auto& dist = workspace.SingleSource(graph, v);
    std::vector<std::pair<VertexId, Distance>> expected;
    for (const auto& [d, h] : ch.UpwardSearch(space, v)) {
      if (d == dist[h]) expected.emplace_back(h, d);
    }
    std::ranges::sort(expected);
    std::vector<std::pair<VertexId, Distance>> actual;
    for (const LabelEntry& e : labels.Label(v)) {
      actual.emplace_back(e.hub, e.distance);
    }
    ASSERT_EQ(actual, expected) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HlExactness, ::testing::Values(1, 2, 3));

// Unit weights make many equal-length paths: the stalled upward search
// may skip a vertex only when a strictly shorter path reaches it, or an
// exact entry (a label entry) goes missing.
TEST(HubLabeling, UpwardSearchKeepsExactEntriesUnderTies) {
  Graph graph = testing::TinyGrid();
  ContractionHierarchy ch(graph);
  HubLabeling labels(graph, ch);
  ContractionHierarchy::SearchSpace space;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    std::vector<std::pair<VertexId, Distance>> searched;
    for (const auto& [d, h] : ch.UpwardSearch(space, v)) {
      searched.emplace_back(h, d);
    }
    std::ranges::sort(searched);
    for (const LabelEntry& e : labels.Label(v)) {
      EXPECT_TRUE(std::ranges::binary_search(
          searched, std::pair<VertexId, Distance>(e.hub, e.distance)))
          << "v=" << v << " hub=" << e.hub;
    }
  }
}

TEST(HubLabeling, LabelsSortedByHub) {
  Graph graph = testing::SmallRoadNetwork(2);
  ContractionHierarchy ch(graph);
  HubLabeling labels(graph, ch);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    const auto label = labels.Label(v);
    for (std::size_t i = 1; i < label.size(); ++i) {
      EXPECT_LT(label[i - 1].hub, label[i].hub);
    }
  }
}

TEST(HubLabeling, EveryVertexIsItsOwnHubAtDistanceZero) {
  Graph graph = testing::SmallRoadNetwork(2);
  ContractionHierarchy ch(graph);
  HubLabeling labels(graph, ch);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    bool found = false;
    for (const LabelEntry& e : labels.Label(v)) {
      if (e.hub == v) {
        EXPECT_EQ(e.distance, 0u);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "v=" << v;
  }
}

TEST(HubLabeling, PrunedEntriesCarryExactDistances) {
  Graph graph = testing::SmallRoadNetwork(3);
  ContractionHierarchy ch(graph);
  HubLabeling labels(graph, ch);
  DijkstraWorkspace workspace(graph.NumVertices());
  Rng rng(4);
  for (int i = 0; i < 5; ++i) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const auto& dist = workspace.SingleSource(graph, v);
    for (const LabelEntry& e : labels.Label(v)) {
      EXPECT_EQ(e.distance, dist[e.hub]) << "v=" << v << " hub=" << e.hub;
    }
  }
}

TEST(HubLabeling, AverageLabelSizeIsModest) {
  Graph graph = testing::MediumRoadNetwork();
  ContractionHierarchy ch(graph);
  HubLabeling labels(graph, ch);
  EXPECT_GT(labels.AverageLabelSize(), 1.0);
  // Pruned CH labels on a ~2.5k-vertex road network should stay far below
  // the vertex count.
  EXPECT_LT(labels.AverageLabelSize(), graph.NumVertices() / 4.0);
  EXPECT_GT(labels.MemoryBytes(), 0u);
}

TEST(HubLabeling, DisconnectedVerticesAreInfinitelyFar) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 5);
  Graph graph = builder.Build();
  ContractionHierarchy ch(graph);
  HubLabeling labels(graph, ch);
  EXPECT_EQ(labels.Query(0, 1), 5u);
  EXPECT_EQ(labels.Query(0, 2), kInfDistance);
  EXPECT_EQ(labels.Query(2, 0), kInfDistance);
}

TEST(HubLabeling, ThrowsWhenALabelDistanceExceeds32Bits) {
  // Every arc of this path's hierarchy fits in 32 bits (the CH throws on
  // a shortcut that does not), and its answers are exact; but the
  // top-ranked vertex is in every label, and an end of the path is more
  // than 2^32 - 1 from it.
  constexpr Weight kEdge = 1'500'000'000;
  GraphBuilder builder(5);
  for (VertexId v = 0; v + 1 < 5; ++v) {
    builder.AddEdge(v, v + 1, kEdge);
  }
  Graph graph = builder.Build();
  ContractionHierarchy ch(graph);
  Weight longest_arc = 0;
  for (VertexId v = 0; v < 5; ++v) {
    for (const Arc& arc : ch.UpwardArcs(v)) {
      longest_arc = std::max(longest_arc, arc.weight);
    }
  }
  EXPECT_EQ(longest_arc, 2 * kEdge);
  for (VertexId s = 0; s < 5; ++s) {
    for (VertexId t = 0; t < 5; ++t) {
      EXPECT_EQ(ch.Query(s, t), (s < t ? t - s : s - t) * Distance{kEdge})
          << "s=" << s << " t=" << t;
    }
  }
  EXPECT_THROW(HubLabeling labels(graph, ch), std::overflow_error);
}

TEST(HubLabeling, QueryWidensBeforeAdding) {
  // A star: every leaf label holds the centre at 3e9, which fits in 32
  // bits; the leaf-to-leaf sum does not.
  GraphBuilder builder(4);
  for (VertexId leaf = 1; leaf < 4; ++leaf) {
    builder.AddEdge(0, leaf, 3'000'000'000);
  }
  Graph graph = builder.Build();
  ContractionHierarchy ch(graph);
  HubLabeling labels(graph, ch);
  EXPECT_EQ(labels.Query(1, 2), 6'000'000'000u);
  EXPECT_EQ(labels.Query(3, 1), 6'000'000'000u);
}

TEST(HubLabeling, RejectsAHierarchyOfAnotherGraph) {
  Graph graph = testing::TinyGrid();
  ContractionHierarchy ch(testing::SmallRoadNetwork(2));
  EXPECT_THROW(HubLabeling labels(graph, ch), std::invalid_argument);
}

TEST(HubLabelOracle, ImplementsOracleInterface) {
  Graph graph = testing::TinyGrid();
  ContractionHierarchy ch(graph);
  HubLabeling labels(graph, ch);
  HubLabelOracle oracle(labels);
  EXPECT_EQ(oracle.Name(), "hl");
  EXPECT_EQ(oracle.NetworkDistance(0, 8), 4u);
  EXPECT_GT(oracle.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace kspin
