// Tests for the ALT landmark index: the Lower Bounding Module must never
// overestimate a distance (Property 1 of the inverted heaps depends on it),
// and every SIMD batch kernel must be bit-identical to the scalar loop.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "common/random.h"
#include "routing/alt.h"
#include "routing/alt_kernels.h"
#include "routing/dijkstra.h"
#include "test_util.h"

namespace kspin {
namespace {

class AltLowerBoundProperty
    : public ::testing::TestWithParam<LandmarkStrategy> {};

TEST_P(AltLowerBoundProperty, NeverExceedsTrueDistance) {
  Graph graph = testing::SmallRoadNetwork();
  AltIndex alt(graph, 8, GetParam());
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

INSTANTIATE_TEST_SUITE_P(Strategies, AltLowerBoundProperty,
                         ::testing::Values(LandmarkStrategy::kFarthest,
                                           LandmarkStrategy::kRandom));

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

// Every kernel this binary can run (scalar, AVX2, AVX-512 where the
// CPU supports them) must produce bit-identical bounds to the per-pair
// scalar loop, across landmark counts that exercise row padding (m not a
// multiple of any vector width), s == t pairs, and landmark vertices.
TEST(AltKernels, EveryKernelMatchesPerPairScalar) {
  Graph graph = testing::SmallRoadNetwork(90);
  Rng rng(91);
  const auto kernels = detail::AvailableAltKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "scalar");
  for (const std::uint32_t m : {3u, 5u, 8u, 13u, 16u}) {
    AltIndex alt(graph, m);
    ASSERT_EQ(alt.RowStride() % 8, 0u);
    ASSERT_GE(alt.RowStride(), alt.Landmarks().size());
    for (const VertexId src :
         {alt.Landmarks().front(),
          static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1))}) {
      // Padding lanes must be zero so they contribute |0-0| = 0.
      const auto row = alt.LandmarkRow(src);
      for (std::size_t l = alt.Landmarks().size(); l < row.size(); ++l) {
        ASSERT_EQ(row[l], 0u);
      }
      // 57 random targets (odd: not a multiple of any lane count), the
      // source itself, and every landmark.
      std::vector<VertexId> targets;
      for (int i = 0; i < 57; ++i) {
        targets.push_back(
            static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1)));
      }
      targets.push_back(src);
      for (const VertexId l : alt.Landmarks()) targets.push_back(l);

      std::vector<Distance> expected(targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        expected[i] = alt.LowerBound(src, targets[i]);
      }
      const Distance* rows = alt.LandmarkRow(0).data();
      for (const auto& kernel : kernels) {
        std::vector<Distance> out(targets.size(), 0xdead);
        kernel.fn(alt.LandmarkRow(src).data(), rows, alt.RowStride(),
                  targets.data(), targets.size(), out.data());
        for (std::size_t i = 0; i < targets.size(); ++i) {
          ASSERT_EQ(out[i], expected[i])
              << kernel.name << " m=" << m << " src=" << src
              << " target=" << targets[i];
        }
      }
    }
  }
}

TEST(AltKernels, SelectedKernelIsListedAndHandlesEmptyBlocks) {
  const auto kernels = detail::AvailableAltKernels();
  bool listed = false;
  for (const auto& kernel : kernels) {
    if (std::string_view(kernel.name) == detail::AltBatchKernelName()) {
      listed = true;
      EXPECT_EQ(kernel.fn, detail::AltBatchKernel());
    }
  }
  EXPECT_TRUE(listed) << detail::AltBatchKernelName();

  Graph graph = testing::TinyGrid();
  AltIndex alt(graph, 2);
  alt.LowerBoundBatch(0, {}, {});  // Empty block: must be a no-op.
}

TEST(AltIndex, BatchMatchesPerPairThroughPublicApi) {
  Graph graph = testing::SmallRoadNetwork(92);
  AltIndex alt(graph, 7);
  Rng rng(93);
  std::vector<VertexId> targets(33);
  for (VertexId& t : targets) {
    t = static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
  }
  std::vector<Distance> out(targets.size());
  const VertexId src =
      static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
  alt.LowerBoundBatch(src, targets, out);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(out[i], alt.LowerBound(src, targets[i]));
  }
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
