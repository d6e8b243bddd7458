// Differential fuzz harness: random graphs, random Zipf datasets, random
// queries (including degenerate ones), random update interleavings — every
// engine must agree with the brute-force expansion baseline on result
// sizes, distances, and scores. This is the repository's broadest
// regression net.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/fs_fbs.h"
#include "baselines/gtree_spatial_keyword.h"
#include "baselines/network_expansion.h"
#include "baselines/road.h"
#include "common/random.h"
#include "graph/road_network_generator.h"
#include "kspin/kspin.h"
#include "routing/contraction_hierarchy.h"
#include "routing/gtree.h"
#include "routing/hub_labeling.h"
#include "text/zipf_generator.h"

namespace kspin {
namespace {

struct FuzzCase {
  std::uint64_t seed;
};

class DifferentialFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DifferentialFuzz, AllEnginesAgree) {
  Rng rng(GetParam().seed);

  // Random graph shape.
  RoadNetworkOptions road;
  road.grid_width = static_cast<std::uint32_t>(rng.UniformInt(8, 24));
  road.grid_height = static_cast<std::uint32_t>(rng.UniformInt(8, 24));
  road.edge_keep_probability = 0.7 + rng.UniformDouble() * 0.3;
  road.diagonal_fraction = rng.UniformDouble() * 0.05;
  road.arterial_spacing = static_cast<std::uint32_t>(rng.UniformInt(0, 6));
  road.seed = GetParam().seed * 31 + 1;
  const Graph graph = GenerateRoadNetwork(road);

  // Random dataset shape.
  KeywordDatasetOptions kw;
  kw.num_keywords = static_cast<std::uint32_t>(rng.UniformInt(10, 80));
  kw.object_fraction = 0.05 + rng.UniformDouble() * 0.3;
  kw.min_doc_keywords = 1;
  kw.max_doc_keywords = static_cast<std::uint32_t>(rng.UniformInt(2, 9));
  kw.zipf_alpha = 0.6 + rng.UniformDouble();
  kw.seed = GetParam().seed * 31 + 2;
  DocumentStore store = GenerateKeywordDataset(graph, kw);

  // All distance techniques + engines.
  ContractionHierarchy ch(graph);
  ChOracle ch_oracle(ch);
  HubLabeling hl(graph, ch);
  GTreeOptions gt;
  gt.leaf_size = static_cast<std::uint32_t>(rng.UniformInt(8, 48));
  gt.strategy = rng.Bernoulli(0.5) ? PartitionStrategy::kKdTree
                                   : PartitionStrategy::kBfsGrowth;
  GTree gtree(graph, gt);
  InvertedIndex inverted(store, kw.num_keywords);
  RelevanceModel relevance(store, inverted);
  NetworkExpansionBaseline expansion(graph, store, inverted, relevance);
  GTreeSpatialKeyword gtree_sk(graph, gtree, store, inverted, relevance,
                               false);
  GTreeSpatialKeyword gtree_opt(graph, gtree, store, inverted, relevance,
                                true);
  RoadBaseline road_baseline(graph, gtree, store, relevance,
                             gtree_sk.Aggregates());
  FsFbsOptions fso;
  fso.frequent_threshold =
      static_cast<std::uint32_t>(rng.UniformInt(2, 30));
  fso.block_size = static_cast<std::uint32_t>(rng.UniformInt(1, 32));
  FsFbs fsfbs(graph, hl, store, inverted, fso);
  KSpinOptions kso;
  kso.rho = static_cast<std::uint32_t>(rng.UniformInt(1, 8));
  kso.num_landmarks = static_cast<std::uint32_t>(rng.UniformInt(2, 12));
  KSpin kspin(graph, store, ch_oracle, kso);

  // Random queries.
  for (int trial = 0; trial < 25; ++trial) {
    const VertexId q =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    const auto k = static_cast<std::uint32_t>(rng.UniformInt(1, 12));
    std::vector<KeywordId> keywords;
    const auto num_terms = rng.UniformInt(1, 4);
    for (std::uint64_t i = 0; i < num_terms; ++i) {
      // Mostly real keywords; occasionally out-of-corpus ones.
      keywords.push_back(static_cast<KeywordId>(
          rng.UniformInt(0, kw.num_keywords + 3)));
    }
    const BooleanOp op = rng.Bernoulli(0.5) ? BooleanOp::kDisjunctive
                                            : BooleanOp::kConjunctive;

    const auto want = expansion.BooleanKnn(q, k, keywords, op);
    auto check_bknn = [&](const std::vector<BkNNResult>& got,
                          const char* engine) {
      ASSERT_EQ(got.size(), want.size())
          << engine << " seed=" << GetParam().seed << " trial=" << trial;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].distance, want[i].distance)
            << engine << " seed=" << GetParam().seed << " trial=" << trial
            << " rank=" << i;
      }
    };
    check_bknn(kspin.BooleanKnn(q, k, keywords, op), "kspin");
    check_bknn(gtree_sk.BooleanKnn(q, k, keywords, op), "gtree_sk");
    check_bknn(gtree_opt.BooleanKnn(q, k, keywords, op), "gtree_opt");
    check_bknn(road_baseline.BooleanKnn(q, k, keywords, op), "road");
    check_bknn(fsfbs.BooleanKnn(q, k, keywords, op), "fsfbs");

    const auto want_topk = expansion.TopK(q, k, keywords);
    auto check_topk = [&](const std::vector<TopKResult>& got,
                          const char* engine) {
      ASSERT_EQ(got.size(), want_topk.size())
          << engine << " seed=" << GetParam().seed << " trial=" << trial;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i].score, want_topk[i].score,
                    1e-9 * std::max(1.0, want_topk[i].score))
            << engine << " seed=" << GetParam().seed << " trial=" << trial
            << " rank=" << i;
      }
    };
    check_topk(kspin.TopK(q, k, keywords), "kspin");
    check_topk(gtree_sk.TopK(q, k, keywords), "gtree_sk");
    check_topk(gtree_opt.TopK(q, k, keywords), "gtree_opt");
    check_topk(road_baseline.TopK(q, k, keywords), "road");
  }
}

TEST_P(DifferentialFuzz, KspinAgreesThroughRandomUpdates) {
  Rng rng(GetParam().seed * 7 + 5);
  RoadNetworkOptions road;
  road.grid_width = 14;
  road.grid_height = 14;
  road.seed = GetParam().seed;
  const Graph graph = GenerateRoadNetwork(road);
  KeywordDatasetOptions kw;
  kw.num_keywords = 25;
  kw.object_fraction = 0.2;
  kw.seed = GetParam().seed;
  DocumentStore store = GenerateKeywordDataset(graph, kw);

  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  KSpinOptions kso;
  kso.rho = static_cast<std::uint32_t>(rng.UniformInt(1, 6));
  kso.lazy_insert_threshold =
      static_cast<std::uint32_t>(rng.UniformInt(1, 12));
  KSpin engine(graph, store, oracle, kso);
  std::vector<ObjectId> live;
  for (ObjectId o = 0; o < engine.Store().NumSlots(); ++o) live.push_back(o);

  for (int step = 0; step < 40; ++step) {
    // Random mutation.
    const double dice = rng.UniformDouble();
    if (dice < 0.45 || live.empty()) {
      const KeywordId t = static_cast<KeywordId>(rng.UniformInt(0, 24));
      live.push_back(engine.InsertObject(
          static_cast<VertexId>(
              rng.UniformInt(0, graph.NumVertices() - 1)),
          {{t, static_cast<std::uint32_t>(rng.UniformInt(1, 3))}}));
    } else if (dice < 0.7) {
      const std::size_t pick = rng.UniformInt(0, live.size() - 1);
      engine.DeleteObject(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (dice < 0.85) {
      const std::size_t pick = rng.UniformInt(0, live.size() - 1);
      engine.AddKeywordToObject(
          live[pick], static_cast<KeywordId>(rng.UniformInt(0, 24)));
    } else {
      engine.MaintainIndexes();
    }

    // Verify a random query against a fresh brute force.
    InvertedIndex inverted(engine.Store(),
                           engine.Inverted().NumKeywords());
    RelevanceModel relevance(engine.Store(), inverted);
    NetworkExpansionBaseline expansion(graph, engine.Store(), inverted,
                                       relevance);
    const VertexId q =
        static_cast<VertexId>(rng.UniformInt(0, graph.NumVertices() - 1));
    std::vector<KeywordId> keywords = {
        static_cast<KeywordId>(rng.UniformInt(0, 24)),
        static_cast<KeywordId>(rng.UniformInt(0, 24))};
    const BooleanOp op = rng.Bernoulli(0.5) ? BooleanOp::kDisjunctive
                                            : BooleanOp::kConjunctive;
    const auto got = engine.BooleanKnn(q, 4, keywords, op);
    const auto want = expansion.BooleanKnn(q, 4, keywords, op);
    ASSERT_EQ(got.size(), want.size()) << "step=" << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].distance, want[i].distance)
          << "step=" << step << " rank=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Values(FuzzCase{1}, FuzzCase{2},
                                           FuzzCase{3}, FuzzCase{4},
                                           FuzzCase{5}, FuzzCase{6},
                                           FuzzCase{7}, FuzzCase{8},
                                           FuzzCase{9}, FuzzCase{10}));

}  // namespace
}  // namespace kspin
