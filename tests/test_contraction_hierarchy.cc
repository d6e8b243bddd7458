// Contraction Hierarchies correctness: CH queries must equal Dijkstra on
// every graph we throw at them — the witness search is budget-limited and
// conservative, so exactness must survive any witness budget.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/random.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "test_util.h"

namespace kspin {
namespace {

void ExpectMatchesDijkstra(const Graph& graph,
                           const ContractionHierarchy& ch,
                           int num_sources, std::uint64_t seed) {
  DijkstraWorkspace workspace(graph.NumVertices());
  Rng rng(seed);
  std::vector<VertexId> sources;
  std::vector<std::vector<Distance>> dists;
  for (int i = 0; i < num_sources; ++i) {
    const VertexId s =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const auto& dist = workspace.SingleSource(graph, s);
    for (VertexId t = 0; t < graph.NumVertices(); t += 13) {
      ASSERT_EQ(ch.Query(s, t), dist[t]) << "s=" << s << " t=" << t;
    }
    sources.push_back(s);
    dists.push_back(dist);
  }
  // The same pairs through one oracle workspace, alternating two sources
  // per target (s1 t1, s2 t1, s1 t2, ...), so the per-source cache is
  // replaced on every call.
  ChOracle oracle(ch);
  auto oracle_workspace = oracle.MakeWorkspace();
  for (int i = 0; i < num_sources; ++i) {
    const int pair[] = {i, (i + 1) % num_sources};
    for (VertexId t = 0; t < graph.NumVertices(); t += 13) {
      for (const int j : pair) {
        ASSERT_EQ(oracle.NetworkDistance(*oracle_workspace, sources[j], t),
                  dists[j][t])
            << "s=" << sources[j] << " t=" << t;
      }
    }
  }
  // Again through the same workspace, sources in reverse order: every
  // target is memoized by now, so each call is a memo hit.
  for (int j = num_sources - 1; j >= 0; --j) {
    for (VertexId t = 0; t < graph.NumVertices(); t += 13) {
      ASSERT_EQ(oracle.NetworkDistance(*oracle_workspace, sources[j], t),
                dists[j][t])
          << "memo hit, s=" << sources[j] << " t=" << t;
    }
  }
}

TEST(ContractionHierarchy, ExactOnTinyGrid) {
  Graph graph = testing::TinyGrid();
  ContractionHierarchy ch(graph);
  DijkstraWorkspace workspace(graph.NumVertices());
  for (VertexId s = 0; s < graph.NumVertices(); ++s) {
    const auto& dist = workspace.SingleSource(graph, s);
    for (VertexId t = 0; t < graph.NumVertices(); ++t) {
      ASSERT_EQ(ch.Query(s, t), dist[t]) << "s=" << s << " t=" << t;
    }
  }
}

class ChExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChExactness, MatchesDijkstraOnRandomRoadNetworks) {
  Graph graph = testing::SmallRoadNetwork(GetParam());
  ContractionHierarchy ch(graph);
  ExpectMatchesDijkstra(graph, ch, 10, GetParam() + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChExactness,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ContractionHierarchy, TinyWitnessBudgetStaysExact) {
  Graph graph = testing::SmallRoadNetwork(9);
  ContractionHierarchyOptions options;
  options.witness_settle_limit = 2;  // Nearly always inconclusive.
  ContractionHierarchy ch(graph, options);
  ExpectMatchesDijkstra(graph, ch, 5, 10);
}

TEST(ContractionHierarchy, SmallerWitnessBudgetAddsMoreShortcuts) {
  Graph graph = testing::SmallRoadNetwork(9);
  ContractionHierarchyOptions tight;
  tight.witness_settle_limit = 2;
  ContractionHierarchyOptions generous;
  generous.witness_settle_limit = 256;
  ContractionHierarchy ch_tight(graph, tight);
  ContractionHierarchy ch_generous(graph, generous);
  EXPECT_GE(ch_tight.NumShortcuts(), ch_generous.NumShortcuts());
}

TEST(ContractionHierarchy, RanksFormPermutation) {
  Graph graph = testing::SmallRoadNetwork(4);
  ContractionHierarchy ch(graph);
  std::vector<bool> seen(graph.NumVertices(), false);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    ASSERT_LT(ch.Rank(v), graph.NumVertices());
    ASSERT_FALSE(seen[ch.Rank(v)]);
    seen[ch.Rank(v)] = true;
  }
  const auto order = ch.VerticesByDescendingRank();
  EXPECT_EQ(ch.Rank(order.front()),
            static_cast<std::uint32_t>(graph.NumVertices() - 1));
  EXPECT_EQ(ch.Rank(order.back()), 0u);
}

TEST(ContractionHierarchy, UpwardArcsPointUpward) {
  Graph graph = testing::SmallRoadNetwork(4);
  ContractionHierarchy ch(graph);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    for (const Arc& arc : ch.UpwardArcs(v)) {
      EXPECT_GT(ch.Rank(arc.head), ch.Rank(v));
    }
  }
}

TEST(ContractionHierarchy, SelfDistanceIsZeroAndSymmetric) {
  Graph graph = testing::SmallRoadNetwork(4);
  ContractionHierarchy ch(graph);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const VertexId s =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const VertexId t =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    EXPECT_EQ(ch.Query(s, s), 0u);
    EXPECT_EQ(ch.Query(s, t), ch.Query(t, s));
  }
}

void ExpectValidPath(const Graph& graph, const std::vector<VertexId>& path,
                     VertexId s, VertexId t, Distance expected) {
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), s);
  EXPECT_EQ(path.back(), t);
  Distance total = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const Distance w = graph.EdgeWeight(path[i - 1], path[i]);
    ASSERT_NE(w, kInfDistance)
        << "path uses non-edge " << path[i - 1] << "-" << path[i];
    total += w;
  }
  EXPECT_EQ(total, expected);
}

TEST(ContractionHierarchy, PathQueryUnpacksToValidShortestPaths) {
  Graph graph = testing::SmallRoadNetwork(31);
  ContractionHierarchy ch(graph);
  DijkstraWorkspace workspace(graph.NumVertices());
  Rng rng(32);
  for (int i = 0; i < 8; ++i) {
    const VertexId s =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const auto& dist = workspace.SingleSource(graph, s);
    for (VertexId t = 0; t < graph.NumVertices(); t += 47) {
      const auto path = ch.PathQuery(s, t);
      if (s == t) {
        ASSERT_EQ(path, std::vector<VertexId>{s});
        continue;
      }
      ExpectValidPath(graph, path, s, t, dist[t]);
    }
  }
}

// PathQuery reuses the scratch target side that fills the memo, so
// interleaving it with two-argument queries over a few fixed targets
// catches a memo that refers to that side instead of owning its entries.
TEST(ContractionHierarchy, MemoHitsStayExactBetweenPathQueries) {
  Graph graph = testing::SmallRoadNetwork(33);
  ContractionHierarchy ch(graph);
  DijkstraWorkspace workspace(graph.NumVertices());
  Rng rng(34);
  const auto random_vertex = [&] {
    return static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
  };
  std::vector<VertexId> targets(20);
  for (VertexId& t : targets) t = random_vertex();
  for (std::size_t i = 0; i < 30; ++i) {
    const VertexId s = random_vertex();
    const auto& dist = workspace.SingleSource(graph, s);
    for (std::size_t j = 0; j < targets.size(); ++j) {
      const VertexId t = targets[j];
      ASSERT_EQ(ch.Query(s, t), dist[t]) << "s=" << s << " t=" << t;
      if (j % 4 == i % 4 && s != t) {
        const VertexId other = targets[(j + 1) % targets.size()];
        ExpectValidPath(graph, ch.PathQuery(s, other), s, other, dist[other]);
      }
    }
  }
}

TEST(ContractionHierarchy, PathQueryOnTinyGridHandChecked) {
  Graph graph = testing::TinyGrid();
  ContractionHierarchy ch(graph);
  const auto path = ch.PathQuery(0, 8);
  ExpectValidPath(graph, path, 0, 8, 4);  // 0-1-2-5-8.
}

TEST(Dijkstra, PathToReconstructsShortestPaths) {
  Graph graph = testing::TinyGrid();
  DijkstraWorkspace workspace(graph.NumVertices());
  workspace.PointToPoint(graph, 0, 8);
  const auto path = workspace.PathTo(8);
  ExpectValidPath(graph, path, 0, 8, 4);
  EXPECT_EQ(DijkstraShortestPath(graph, 0, 8).size(), path.size());
  // Unreached target: empty path.
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1);
  Graph disconnected = builder.Build();
  EXPECT_TRUE(DijkstraShortestPath(disconnected, 0, 2).empty());
}

TEST(ContractionHierarchy, DisconnectedPairsAreInfiniteAndPathless) {
  GraphBuilder builder(3);  // Vertex 2 is isolated.
  builder.AddEdge(0, 1, 1);
  Graph graph = builder.Build();
  ContractionHierarchy ch(graph);
  EXPECT_EQ(ch.Query(0, 2), kInfDistance);
  EXPECT_EQ(ch.Query(2, 0), kInfDistance);
  EXPECT_TRUE(ch.PathQuery(0, 2).empty());
  ASSERT_EQ(ch.Query(0, 1), 1u);  // Caches source 0.
  EXPECT_EQ(ch.Query(0, 2), kInfDistance);
  EXPECT_TRUE(ch.PathQuery(0, 2).empty());
  EXPECT_EQ(ch.Query(2, 0), kInfDistance);
}

TEST(ContractionHierarchy, ThrowsWhenAShortcutExceeds32Bits) {
  // Path 1-0-2: vertex 0 ties the leaves' priority and is contracted
  // first (lowest id), which needs the 6e9 shortcut 1-2.
  GraphBuilder builder(3);
  builder.AddEdge(1, 0, 3'000'000'000);
  builder.AddEdge(0, 2, 3'000'000'000);
  Graph graph = builder.Build();
  EXPECT_THROW(ContractionHierarchy ch(graph), std::overflow_error);
}

TEST(ChOracle, ReportsNameAndMemory) {
  Graph graph = testing::TinyGrid();
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  EXPECT_EQ(oracle.Name(), "ch");
  EXPECT_GT(oracle.MemoryBytes(), 0u);
  EXPECT_EQ(oracle.NetworkDistance(0, 8), 4u);
}

}  // namespace
}  // namespace kspin
