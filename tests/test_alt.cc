// Tests for the ALT landmark index: the Lower Bounding Module must never
// overestimate a distance (Property 1 of the inverted heaps depends on it).
#include <gtest/gtest.h>

#include <tuple>

#include "common/random.h"
#include "routing/alt.h"
#include "routing/dijkstra.h"
#include "test_util.h"

namespace kspin {
namespace {

// (strategy, landmark count): the odd counts 3 and 13 catch a row-stride
// bug that m = 8 would hide.
class AltLowerBoundProperty
    : public ::testing::TestWithParam<
          std::tuple<LandmarkStrategy, std::uint32_t>> {};

TEST_P(AltLowerBoundProperty, NeverExceedsTrueDistance) {
  Graph graph = testing::SmallRoadNetwork();
  const auto [strategy, num_landmarks] = GetParam();
  AltIndex alt(graph, num_landmarks, strategy);
  ASSERT_EQ(alt.Landmarks().size(), num_landmarks);
  DijkstraWorkspace workspace(graph.NumVertices());
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const VertexId s =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const auto& dist = workspace.SingleSource(graph, s);
    for (VertexId t = 0; t < graph.NumVertices(); t += 17) {
      EXPECT_LE(alt.LowerBound(s, t), dist[t])
          << "s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, AltLowerBoundProperty,
    ::testing::Combine(::testing::Values(LandmarkStrategy::kFarthest,
                                         LandmarkStrategy::kRandom),
                       ::testing::Values(3u, 8u, 13u)));

TEST(AltIndex, ExactAtLandmarks) {
  Graph graph = testing::SmallRoadNetwork();
  AltIndex alt(graph, 6);
  DijkstraWorkspace workspace(graph.NumVertices());
  for (VertexId landmark : alt.Landmarks()) {
    const auto& dist = workspace.SingleSource(graph, landmark);
    for (VertexId t = 0; t < graph.NumVertices(); t += 23) {
      EXPECT_EQ(alt.LowerBound(landmark, t), dist[t]);
    }
  }
}

TEST(AltIndex, SelfLowerBoundIsZero) {
  Graph graph = testing::SmallRoadNetwork();
  AltIndex alt(graph, 4);
  for (VertexId v = 0; v < graph.NumVertices(); v += 31) {
    EXPECT_EQ(alt.LowerBound(v, v), 0u);
  }
}

TEST(AltIndex, SymmetricOnUndirectedGraphs) {
  Graph graph = testing::SmallRoadNetwork();
  AltIndex alt(graph, 4);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const VertexId s =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const VertexId t =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    EXPECT_EQ(alt.LowerBound(s, t), alt.LowerBound(t, s));
  }
}

TEST(AltIndex, FarthestLandmarksAreSpread) {
  Graph graph = testing::SmallRoadNetwork();
  AltIndex alt(graph, 5, LandmarkStrategy::kFarthest);
  const auto& landmarks = alt.Landmarks();
  // All distinct.
  for (std::size_t i = 0; i < landmarks.size(); ++i) {
    for (std::size_t j = i + 1; j < landmarks.size(); ++j) {
      EXPECT_NE(landmarks[i], landmarks[j]);
    }
  }
}

TEST(AltIndex, MoreLandmarksTightenBounds) {
  Graph graph = testing::MediumRoadNetwork();
  AltIndex small(graph, 2, LandmarkStrategy::kFarthest, 3);
  AltIndex large(graph, 16, LandmarkStrategy::kFarthest, 3);
  Rng rng(7);
  std::uint64_t improved = 0, total = 0;
  double small_sum = 0, large_sum = 0;
  for (int i = 0; i < 300; ++i) {
    const VertexId s =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const VertexId t =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const Distance lb_small = small.LowerBound(s, t);
    const Distance lb_large = large.LowerBound(s, t);
    EXPECT_GE(lb_large, lb_small);  // Superset of landmarks: never worse.
    small_sum += static_cast<double>(lb_small);
    large_sum += static_cast<double>(lb_large);
    if (lb_large > lb_small) ++improved;
    ++total;
  }
  EXPECT_GT(large_sum, small_sum);
  EXPECT_GT(improved, total / 10);
}

TEST(AltIndex, ValidatesArguments) {
  Graph graph = testing::TinyGrid();
  EXPECT_THROW(AltIndex(graph, 0), std::invalid_argument);
  // Requesting more landmarks than vertices clamps instead of throwing.
  AltIndex alt(graph, 100);
  EXPECT_EQ(alt.Landmarks().size(), graph.NumVertices());
}

}  // namespace
}  // namespace kspin
