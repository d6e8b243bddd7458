// End-to-end invariant sweeps parameterized over the framework's central
// tuning knob rho: results must be exact for every rho, the rho candidate
// guarantee must hold, and the documented monotonicities (index size down,
// initialization candidates up) must follow.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baselines/network_expansion.h"
#include "kspin/kspin.h"
#include "routing/contraction_hierarchy.h"
#include "test_util.h"
#include "text/query_workload.h"

namespace kspin {
namespace {

class RhoSweep : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    graph_ = testing::SmallRoadNetwork(201);
    store_ = testing::TestDocuments(graph_, 45, 0.22, 301);
    ch_ = std::make_unique<ContractionHierarchy>(graph_);
    oracle_ = std::make_unique<ChOracle>(*ch_);
    inverted_ = std::make_unique<InvertedIndex>(store_, 45);
    relevance_ = std::make_unique<RelevanceModel>(store_, *inverted_);
    expansion_ = std::make_unique<NetworkExpansionBaseline>(
        graph_, store_, *inverted_, *relevance_);
  }

  Graph graph_;
  DocumentStore store_;
  std::unique_ptr<ContractionHierarchy> ch_;
  std::unique_ptr<ChOracle> oracle_;
  std::unique_ptr<InvertedIndex> inverted_;
  std::unique_ptr<RelevanceModel> relevance_;
  std::unique_ptr<NetworkExpansionBaseline> expansion_;
};

TEST_P(RhoSweep, AllQueryTypesExactAtThisRho) {
  KSpinOptions options;
  options.rho = GetParam();
  options.num_threads = 2;
  KSpin engine(graph_, store_, *oracle_, options);

  WorkloadOptions wl;
  wl.vector_lengths = {1, 2, 3};
  wl.num_seed_terms = 2;
  wl.objects_per_term = 2;
  wl.vertices_per_vector = 2;
  QueryWorkload workload(graph_, store_, *inverted_, wl);
  for (std::uint32_t len : wl.vector_lengths) {
    for (const auto& query : workload.QueriesForLength(len)) {
      for (BooleanOp op :
           {BooleanOp::kDisjunctive, BooleanOp::kConjunctive}) {
        const auto got =
            engine.BooleanKnn(query.vertex, 4, query.keywords, op);
        const auto want =
            expansion_->BooleanKnn(query.vertex, 4, query.keywords, op);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].distance, want[i].distance)
              << "rho=" << GetParam() << " len=" << len;
        }
      }
      const auto got_topk = engine.TopK(query.vertex, 4, query.keywords);
      const auto want_topk =
          expansion_->TopK(query.vertex, 4, query.keywords);
      ASSERT_EQ(got_topk.size(), want_topk.size());
      for (std::size_t i = 0; i < got_topk.size(); ++i) {
        ASSERT_NEAR(got_topk[i].score, want_topk[i].score,
                    1e-9 * std::max(1.0, want_topk[i].score))
            << "rho=" << GetParam();
      }
    }
  }
}

TEST_P(RhoSweep, CandidateBoundRespectedByVoronoiIndexes) {
  const std::uint32_t rho = GetParam();
  KeywordIndexOptions options;
  options.nvd.rho = rho;
  options.num_threads = 2;
  KeywordIndex index(graph_, store_, *inverted_, options);
  for (KeywordId t = 0; t < 45; ++t) {
    const ApxNvd* nvd = index.Index(t);
    if (nvd == nullptr || !nvd->HasVoronoi()) continue;
    for (VertexId q = 0; q < graph_.NumVertices(); q += 29) {
      const std::vector<SiteObject> candidates =
          testing::InitialObjects(*nvd, q);
      EXPECT_LE(candidates.size(), rho)
          << "keyword " << t << " q=" << q << " rho=" << rho;
      // No duplicates among initial candidates.
      std::set<ObjectId> unique;
      for (const SiteObject& c : candidates) {
        EXPECT_TRUE(unique.insert(c.object).second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rho, RhoSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 16u));

TEST(RhoMonotonicity, IndexSizeShrinksAsRhoGrows) {
  Graph graph = testing::MediumRoadNetwork(202);
  DocumentStore store = testing::TestDocuments(graph, 80, 0.2, 302);
  InvertedIndex inverted(store, 80);
  std::size_t previous = SIZE_MAX;
  for (std::uint32_t rho : {1u, 3u, 5u, 9u}) {
    KeywordIndexOptions options;
    options.nvd.rho = rho;
    options.num_threads = 2;
    KeywordIndex index(graph, store, inverted, options);
    EXPECT_LE(index.MemoryBytes(), previous) << "rho=" << rho;
    previous = index.MemoryBytes();
  }
}

}  // namespace
}  // namespace kspin
