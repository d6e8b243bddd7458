// Lower Bounding Module tests: the Euclidean heuristic and the tightest-of
// composite must stay admissible (never exceed true distances) — the
// property every heap and pseudo-bound proof rests on.
#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "kspin/kspin.h"
#include "routing/alt.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "routing/lower_bound.h"
#include "test_util.h"

namespace kspin {
namespace {

TEST(EuclideanLowerBound, AdmissibleEverywhere) {
  Graph graph = testing::SmallRoadNetwork(71);
  EuclideanLowerBound euclid(graph);
  EXPECT_GT(euclid.CostRatio(), 0.0);
  DijkstraWorkspace workspace(graph.NumVertices());
  Rng rng(72);
  for (int i = 0; i < 20; ++i) {
    const VertexId s =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const auto& dist = workspace.SingleSource(graph, s);
    for (VertexId t = 0; t < graph.NumVertices(); t += 19) {
      ASSERT_LE(euclid.LowerBound(s, t), dist[t])
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(EuclideanLowerBound, NonTrivialOnStraightLines) {
  Graph graph = testing::SmallRoadNetwork(73);
  EuclideanLowerBound euclid(graph);
  // The bound must be positive for distinct, distant vertices.
  std::size_t positive = 0, total = 0;
  Rng rng(74);
  for (int i = 0; i < 200; ++i) {
    const VertexId s =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const VertexId t =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    if (s == t) continue;
    ++total;
    if (euclid.LowerBound(s, t) > 0) ++positive;
  }
  EXPECT_GT(positive, total * 9 / 10);
  EXPECT_EQ(euclid.LowerBound(5, 5), 0u);
}

TEST(EuclideanLowerBound, RequiresCoordinates) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1);
  Graph graph = builder.Build();
  EXPECT_THROW(EuclideanLowerBound{graph}, std::invalid_argument);
}

TEST(MaxLowerBound, DominatesItsChildrenAndStaysAdmissible) {
  Graph graph = testing::SmallRoadNetwork(75);
  AltIndex alt(graph, 4);
  EuclideanLowerBound euclid(graph);
  MaxLowerBound composite({&alt, &euclid});
  EXPECT_EQ(composite.Name(), "max(alt,euclidean)");
  EXPECT_GE(composite.MemoryBytes(), alt.MemoryBytes());
  DijkstraWorkspace workspace(graph.NumVertices());
  Rng rng(76);
  for (int i = 0; i < 10; ++i) {
    const VertexId s =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const auto& dist = workspace.SingleSource(graph, s);
    for (VertexId t = 0; t < graph.NumVertices(); t += 23) {
      const Distance lb = composite.LowerBound(s, t);
      ASSERT_LE(lb, dist[t]);
      ASSERT_GE(lb, alt.LowerBound(s, t));
      ASSERT_GE(lb, euclid.LowerBound(s, t));
    }
  }
}

TEST(MaxLowerBound, RejectsEmptyChildList) {
  EXPECT_THROW(MaxLowerBound{{}}, std::invalid_argument);
}

// LowerBoundBatch must be value-identical to the per-pair loop for every
// module: perfbench's timing decorator forwards batches to it.
TEST(LowerBoundBatch, MatchesPerPairForEveryModule) {
  Graph graph = testing::SmallRoadNetwork(78);
  AltIndex alt(graph, 5);
  EuclideanLowerBound euclid(graph);
  const MaxLowerBound alt_only({&alt});          // Devirtualized ALT path.
  const MaxLowerBound composite({&alt, &euclid});
  const std::vector<const LowerBoundModule*> modules = {&alt, &euclid,
                                                        &alt_only, &composite};
  Rng rng(79);
  const VertexId src =
      static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
  std::vector<VertexId> targets(41);
  for (VertexId& t : targets) {
    t = static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
  }
  targets.push_back(src);  // s == t must come back as 0.
  for (const LowerBoundModule* module : modules) {
    std::vector<Distance> out(targets.size(), ~Distance{0});
    module->LowerBoundBatch(src, targets, out);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      ASSERT_EQ(out[i], module->LowerBound(src, targets[i]))
          << module->Name() << " target=" << targets[i];
    }
  }
  EXPECT_EQ(alt_only.Name(), "max(alt)");
}

TEST(KSpinEuclideanComposite, QueriesStayExactAndDoNoMoreWork) {
  Graph graph = testing::SmallRoadNetwork(77);
  DocumentStore store = testing::TestDocuments(graph, 40, 0.2, 177);
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);

  KSpinOptions plain_options;
  plain_options.num_landmarks = 4;  // Weak ALT so the heuristic matters.
  KSpin plain(graph, store, oracle, plain_options);
  KSpinOptions composite_options = plain_options;
  composite_options.use_euclidean_heuristic = true;
  KSpin composite(graph, store, oracle, composite_options);
  EXPECT_EQ(composite.LowerBounds().Name(), "max(alt,euclidean)");

  std::vector<KeywordId> keywords;
  for (KeywordId t = 0; t < plain.Inverted().NumKeywords() &&
                        keywords.size() < 2;
       ++t) {
    if (plain.Inverted().ListSize(t) >= 8) keywords.push_back(t);
  }
  ASSERT_EQ(keywords.size(), 2u);
  std::uint64_t plain_ndist = 0, composite_ndist = 0;
  for (VertexId q = 0; q < graph.NumVertices(); q += 37) {
    QueryStats plain_stats, composite_stats;
    auto a = plain.BooleanKnn(q, 5, keywords, BooleanOp::kDisjunctive,
                              &plain_stats);
    auto b = composite.BooleanKnn(q, 5, keywords, BooleanOp::kDisjunctive,
                                  &composite_stats);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].distance, b[i].distance);
    }
    plain_ndist += plain_stats.network_distance_computations;
    composite_ndist += composite_stats.network_distance_computations;
  }
  // Tighter bounds can only reduce distance computations.
  EXPECT_LE(composite_ndist, plain_ndist);
}

}  // namespace
}  // namespace kspin
