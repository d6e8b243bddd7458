// Baseline correctness: every competitor (G-tree spatial keyword in both
// variants, ROAD-style overlay, FS-FBS) must return exact results — the
// paper's comparison is about *cost*, not accuracy — all validated against
// the network-expansion brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "baselines/fs_fbs.h"
#include "baselines/gtree_spatial_keyword.h"
#include "baselines/network_expansion.h"
#include "baselines/road.h"
#include "routing/contraction_hierarchy.h"
#include "routing/gtree.h"
#include "routing/hub_labeling.h"
#include "test_util.h"
#include "text/query_workload.h"

namespace kspin {
namespace {

class BaselineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = testing::SmallRoadNetwork(9);
    store_ = testing::TestDocuments(graph_, 50, 0.2, 109);
    inverted_ = std::make_unique<InvertedIndex>(store_, 50);
    relevance_ = std::make_unique<RelevanceModel>(store_, *inverted_);
    GTreeOptions gt;
    gt.leaf_size = 32;
    gt.num_threads = 2;
    gtree_ = std::make_unique<GTree>(graph_, gt);
    expansion_ = std::make_unique<NetworkExpansionBaseline>(
        graph_, store_, *inverted_, *relevance_);
    workload_ = MakeWorkload();
  }

  std::vector<SpatialKeywordQuery> MakeWorkload() {
    WorkloadOptions wl;
    wl.vector_lengths = {1, 2, 3};
    wl.num_seed_terms = 3;
    wl.objects_per_term = 2;
    wl.vertices_per_vector = 3;
    QueryWorkload workload(graph_, store_, *inverted_, wl);
    std::vector<SpatialKeywordQuery> queries;
    for (std::uint32_t len : wl.vector_lengths) {
      const auto batch = workload.QueriesForLength(len);
      queries.insert(queries.end(), batch.begin(), batch.end());
    }
    return queries;
  }

  Graph graph_;
  DocumentStore store_;
  std::unique_ptr<InvertedIndex> inverted_;
  std::unique_ptr<RelevanceModel> relevance_;
  std::unique_ptr<GTree> gtree_;
  std::unique_ptr<NetworkExpansionBaseline> expansion_;
  std::vector<SpatialKeywordQuery> workload_;
};

TEST_F(BaselineFixture, GtreeSpatialKeywordTopKExact) {
  for (bool opt : {false, true}) {
    GTreeSpatialKeyword baseline(graph_, *gtree_, store_, *inverted_,
                                 *relevance_, opt);
    for (const auto& query : workload_) {
      auto got = baseline.TopK(query.vertex, 5, query.keywords);
      auto expected = expansion_->TopK(query.vertex, 5, query.keywords);
      ASSERT_EQ(got.size(), expected.size())
          << "opt=" << opt << " q=" << query.vertex;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].score, expected[i].score,
                    1e-9 * std::max(1.0, expected[i].score))
            << "opt=" << opt << " rank " << i;
      }
    }
  }
}

TEST_F(BaselineFixture, GtreeSpatialKeywordBknnExact) {
  for (bool opt : {false, true}) {
    GTreeSpatialKeyword baseline(graph_, *gtree_, store_, *inverted_,
                                 *relevance_, opt);
    for (const auto& query : workload_) {
      for (BooleanOp op :
           {BooleanOp::kDisjunctive, BooleanOp::kConjunctive}) {
        auto got = baseline.BooleanKnn(query.vertex, 4, query.keywords, op);
        auto expected =
            expansion_->BooleanKnn(query.vertex, 4, query.keywords, op);
        ASSERT_EQ(got.size(), expected.size()) << "opt=" << opt;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].distance, expected[i].distance)
              << "opt=" << opt << " rank " << i;
        }
      }
    }
  }
}

TEST_F(BaselineFixture, RoadTopKAndBknnExact) {
  GTreeSpatialKeyword aggregates_holder(graph_, *gtree_, store_, *inverted_,
                                        *relevance_, false);
  RoadBaseline road(graph_, *gtree_, store_, *relevance_,
                    aggregates_holder.Aggregates());
  for (const auto& query : workload_) {
    auto got_topk = road.TopK(query.vertex, 5, query.keywords);
    auto expected_topk = expansion_->TopK(query.vertex, 5, query.keywords);
    ASSERT_EQ(got_topk.size(), expected_topk.size()) << "q=" << query.vertex;
    for (std::size_t i = 0; i < got_topk.size(); ++i) {
      EXPECT_NEAR(got_topk[i].score, expected_topk[i].score,
                  1e-9 * std::max(1.0, expected_topk[i].score));
    }
    for (BooleanOp op : {BooleanOp::kDisjunctive, BooleanOp::kConjunctive}) {
      auto got = road.BooleanKnn(query.vertex, 4, query.keywords, op);
      auto expected =
          expansion_->BooleanKnn(query.vertex, 4, query.keywords, op);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].distance, expected[i].distance) << "rank " << i;
      }
    }
  }
}

TEST_F(BaselineFixture, FsFbsBknnExact) {
  ContractionHierarchy ch(graph_);
  HubLabeling labels(graph_, ch);
  FsFbsOptions options;
  options.frequent_threshold = 8;  // Exercise both paths on the test data.
  FsFbs fsfbs(graph_, labels, store_, *inverted_, options);
  std::uint64_t scan_false_positives = 0;
  for (const auto& query : workload_) {
    // k = 1 leaves conjunctive list scans with more distances than results.
    for (std::uint32_t k : {1u, 4u}) {
      for (BooleanOp op :
           {BooleanOp::kDisjunctive, BooleanOp::kConjunctive}) {
        QueryStats stats;
        auto got =
            fsfbs.BooleanKnn(query.vertex, k, query.keywords, op, &stats);
        auto expected =
            expansion_->BooleanKnn(query.vertex, k, query.keywords, op);
        ASSERT_EQ(got.size(), expected.size()) << "q=" << query.vertex;
        EXPECT_EQ(stats.results_returned, got.size())
            << "q=" << query.vertex;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].distance, expected[i].distance) << "rank " << i;
        }
        EXPECT_LE(stats.false_positive_distances,
                  stats.network_distance_computations)
            << "q=" << query.vertex;
        // Conjunctive with an infrequent keyword: one list scan pays every
        // distance, and each result is one of them.
        const bool scans_one_list =
            op == BooleanOp::kConjunctive &&
            std::any_of(query.keywords.begin(), query.keywords.end(),
                        [&](KeywordId t) {
                          return inverted_->ListSize(t) <
                                 options.frequent_threshold;
                        });
        if (scans_one_list) {
          EXPECT_EQ(stats.false_positive_distances,
                    stats.network_distance_computations - got.size())
              << "q=" << query.vertex << " k=" << k;
          scan_false_positives += stats.false_positive_distances;
        }
      }
    }
  }
  EXPECT_GT(scan_false_positives, 0u) << "no list scan paid a false positive";
}

TEST_F(BaselineFixture, FsFbsMemoryBudgetGuardFires) {
  ContractionHierarchy ch(graph_);
  HubLabeling labels(graph_, ch);
  FsFbsOptions options;
  options.max_backward_entries = 10;  // Far below any real label count.
  EXPECT_THROW(FsFbs(graph_, labels, store_, *inverted_, options),
               std::runtime_error);
}

TEST_F(BaselineFixture, NodeAggregatesAreConsistent) {
  NodeKeywordAggregates aggregates(*gtree_, store_);
  // Root pseudo-document covers exactly the keywords of all live objects.
  for (KeywordId t = 0; t < inverted_->NumKeywords(); ++t) {
    EXPECT_EQ(aggregates.NodeContains(gtree_->RootNode(), t),
              inverted_->ListSize(t) > 0)
        << "keyword " << t;
  }
  // Frequencies aggregate bottom-up: root frequency equals the corpus sum.
  std::vector<std::uint64_t> corpus(inverted_->NumKeywords(), 0);
  for (ObjectId o = 0; o < store_.NumSlots(); ++o) {
    if (!store_.IsLive(o)) continue;
    for (const DocEntry& e : store_.Document(o)) {
      corpus[e.keyword] += e.frequency;
    }
  }
  for (KeywordId t = 0; t < inverted_->NumKeywords(); ++t) {
    EXPECT_EQ(aggregates.NodeFrequency(gtree_->RootNode(), t), corpus[t]);
  }
  // Keyword occupancy masks refine plain occupancy.
  for (GTree::NodeId n = 0; n < gtree_->NumNodes(); ++n) {
    if (gtree_->IsLeaf(n)) continue;
    for (KeywordId t = 0; t < inverted_->NumKeywords(); t += 7) {
      const std::uint32_t mask = aggregates.KeywordOccupancyMask(n, t);
      EXPECT_EQ(mask & ~aggregates.OccupancyMask(n), 0u)
          << "keyword mask not a subset of occupancy at node " << n;
    }
  }
}

TEST_F(BaselineFixture, GtreeOptDoesNotBeatAggregationOnMatrixOps) {
  // Section 7.4.2's finding: per-keyword occurrence lists do not reduce
  // matrix operations, because the hierarchy is still evaluated to the
  // same depth. Allow a little slack for borderline pruning differences.
  GTreeSpatialKeyword original(graph_, *gtree_, store_, *inverted_,
                               *relevance_, false);
  GTreeSpatialKeyword optimized(graph_, *gtree_, store_, *inverted_,
                                *relevance_, true);
  std::uint64_t ops_original = 0, ops_optimized = 0;
  for (const auto& query : workload_) {
    gtree_->ResetMatrixOps();
    original.TopK(query.vertex, 5, query.keywords);
    ops_original += gtree_->MatrixOps();
    gtree_->ResetMatrixOps();
    optimized.TopK(query.vertex, 5, query.keywords);
    ops_optimized += gtree_->MatrixOps();
  }
  EXPECT_LE(ops_optimized, ops_original);
  EXPECT_GE(ops_optimized * 10, ops_original * 7)
      << "opt should not dramatically reduce matrix ops";
}

}  // namespace
}  // namespace kspin
