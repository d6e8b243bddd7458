// Dynamic update tests (paper Section 6.2): lazy insertions via Theorem-2
// affected sets, tombstone deletions, keyword add/remove, rebuild
// thresholds — queries must stay exact through every mutation.
#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"

#include "baselines/network_expansion.h"
#include "kspin/kspin.h"
#include "nvd/apx_nvd.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "test_util.h"

namespace kspin {
namespace {

class UpdateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = testing::SmallRoadNetwork(15);
    store_ = testing::TestDocuments(graph_, 40, 0.2, 115);
    ch_ = std::make_unique<ContractionHierarchy>(graph_);
    oracle_ = std::make_unique<ChOracle>(*ch_);
    KSpinOptions options;
    options.rho = 4;
    options.num_threads = 2;
    options.lazy_insert_threshold = 16;
    engine_ = std::make_unique<KSpin>(graph_, store_, *oracle_, options);
  }

  // Brute-force checker reflecting the engine's CURRENT store.
  std::vector<BkNNResult> Expected(VertexId q, std::uint32_t k,
                                   std::span<const KeywordId> keywords,
                                   BooleanOp op) {
    InvertedIndex inverted(engine_->Store(),
                           engine_->Inverted().NumKeywords());
    RelevanceModel relevance(engine_->Store(), inverted);
    NetworkExpansionBaseline expansion(graph_, engine_->Store(), inverted,
                                       relevance);
    return expansion.BooleanKnn(q, k, keywords, op);
  }

  void ExpectConsistent(std::span<const KeywordId> keywords) {
    for (VertexId q = 1; q < graph_.NumVertices(); q += 53) {
      for (BooleanOp op :
           {BooleanOp::kDisjunctive, BooleanOp::kConjunctive}) {
        auto got = engine_->BooleanKnn(q, 5, keywords, op);
        auto expected = Expected(q, 5, keywords, op);
        ASSERT_EQ(got.size(), expected.size()) << "q=" << q;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].distance, expected[i].distance)
              << "q=" << q << " rank " << i;
        }
      }
    }
  }

  KeywordId FrequentKeyword(std::size_t min_size = 10) {
    for (KeywordId t = 0; t < engine_->Inverted().NumKeywords(); ++t) {
      if (engine_->Inverted().ListSize(t) >= min_size) return t;
    }
    ADD_FAILURE();
    return 0;
  }

  Graph graph_;
  DocumentStore store_;
  std::unique_ptr<ContractionHierarchy> ch_;
  std::unique_ptr<ChOracle> oracle_;
  std::unique_ptr<KSpin> engine_;
};

TEST_F(UpdateFixture, InsertionsKeepQueriesExact) {
  const KeywordId t = FrequentKeyword();
  const std::vector<KeywordId> keywords = {t};
  // Insert a batch of objects carrying keyword t at fresh vertices.
  for (int i = 0; i < 10; ++i) {
    const VertexId v = static_cast<VertexId>((i * 997 + 13) %
                                             graph_.NumVertices());
    engine_->InsertObject(v, {{t, 1}, {static_cast<KeywordId>(i % 5), 2}});
    ExpectConsistent(keywords);
  }
}

TEST_F(UpdateFixture, DeletionsKeepQueriesExact) {
  const KeywordId t = FrequentKeyword();
  const std::vector<KeywordId> keywords = {t};
  // Delete half of the keyword's objects.
  std::vector<ObjectId> victims(engine_->Inverted().Objects(t).begin(),
                                engine_->Inverted().Objects(t).end());
  for (std::size_t i = 0; i < victims.size(); i += 2) {
    engine_->DeleteObject(victims[i]);
    ExpectConsistent(keywords);
  }
}

TEST_F(UpdateFixture, MixedInsertDeleteAddRemoveKeyword) {
  const KeywordId t = FrequentKeyword();
  const KeywordId other = FrequentKeyword(3);
  const std::vector<KeywordId> keywords = {t, other};

  const ObjectId fresh = engine_->InsertObject(17, {{t, 2}});
  engine_->AddKeywordToObject(fresh, other);
  ExpectConsistent(keywords);

  engine_->RemoveKeywordFromObject(fresh, t);
  ExpectConsistent(keywords);

  const ObjectId victim = engine_->Inverted().Objects(t)[0];
  engine_->DeleteObject(victim);
  ExpectConsistent(keywords);

  engine_->AddKeywordToObject(fresh, t, 3);
  ExpectConsistent(keywords);
}

TEST_F(UpdateFixture, TopKStaysExactAfterUpdates) {
  const KeywordId t = FrequentKeyword();
  const KeywordId other = FrequentKeyword(5);
  const std::vector<KeywordId> keywords = {t, other};
  for (int i = 0; i < 6; ++i) {
    engine_->InsertObject(
        static_cast<VertexId>((i * 577 + 7) % graph_.NumVertices()),
        {{t, 1}, {other, 1}});
  }
  InvertedIndex inverted(engine_->Store(), engine_->Inverted().NumKeywords());
  RelevanceModel relevance(engine_->Store(), inverted);
  NetworkExpansionBaseline expansion(graph_, engine_->Store(), inverted,
                                     relevance);
  for (VertexId q = 2; q < graph_.NumVertices(); q += 71) {
    auto got = engine_->TopK(q, 5, keywords);
    auto expected = expansion.TopK(q, 5, keywords);
    ASSERT_EQ(got.size(), expected.size()) << "q=" << q;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i].score, expected[i].score,
                  1e-9 * std::max(1.0, expected[i].score))
          << "q=" << q << " rank " << i;
    }
  }
}

TEST_F(UpdateFixture, RebuildAbsorbsLazyUpdatesAndStaysExact) {
  const KeywordId t = FrequentKeyword();
  const std::vector<KeywordId> keywords = {t};
  for (int i = 0; i < 20; ++i) {
    engine_->InsertObject(
        static_cast<VertexId>((i * 331 + 3) % graph_.NumVertices()),
        {{t, 1}});
  }
  const ApxNvd* index = engine_->Keywords().Index(t);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(index->NeedsRebuild());  // 20 > threshold of 16.
  const std::size_t rebuilt = engine_->MaintainIndexes();
  EXPECT_GE(rebuilt, 1u);
  EXPECT_FALSE(index->NeedsRebuild());
  EXPECT_EQ(index->NumLazyInserts(), 0u);
  ExpectConsistent(keywords);
}

TEST_F(UpdateFixture, NewKeywordGrowsUniverse) {
  const KeywordId fresh_keyword =
      static_cast<KeywordId>(engine_->Inverted().NumKeywords() + 5);
  const ObjectId o = engine_->InsertObject(9, {{fresh_keyword, 1}});
  const std::vector<KeywordId> keywords = {fresh_keyword};
  auto results = engine_->BooleanKnn(9, 1, keywords,
                                     BooleanOp::kDisjunctive);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].object, o);
  EXPECT_EQ(results[0].distance, 0u);
}

TEST(ApxNvdUpdates, AffectedSetsFollowTheorem2) {
  Graph graph = testing::SmallRoadNetwork(16);
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  // Build an index over 30 random sites.
  Rng rng(117);
  auto sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), 31);
  std::vector<SiteObject> sites;
  for (std::uint32_t i = 0; i < 30; ++i) {
    sites.push_back({i, sample[i]});
  }
  ApxNvdOptions options;
  options.rho = 4;
  ApxNvd nvd(graph, sites, options);

  nvd.Insert(999, sample[30], oracle);
  EXPECT_GE(nvd.LastAffectedSetSize(), 1u);
  // The affected set is a small local neighbourhood, not the whole index.
  EXPECT_LT(nvd.LastAffectedSetSize(), sites.size());

  // The inserted object must now surface near its vertex: its own vertex's
  // initial candidates or their expansions must include it. More simply,
  // the 1NN query semantics: object 999 is at distance 0 from sample[30].
  bool found = false;
  for (const SiteObject& c : testing::InitialObjects(nvd, sample[30])) {
    if (c.object == 999) found = true;
  }
  EXPECT_TRUE(found) << "lazily inserted object missing from candidates at "
                        "its own vertex";
  EXPECT_THROW(nvd.Insert(999, sample[30], oracle), std::invalid_argument);
}

TEST(ApxNvdUpdates, DeleteValidation) {
  Graph graph = testing::TinyGrid();
  std::vector<SiteObject> sites = {{0, 0}, {1, 8}};
  ApxNvd nvd(graph, sites, {});
  EXPECT_THROW(nvd.Delete(77), std::invalid_argument);
  nvd.Delete(0);
  EXPECT_TRUE(nvd.IsDeleted(0));
  EXPECT_THROW(nvd.Delete(0), std::invalid_argument);
  EXPECT_EQ(nvd.NumLiveObjects(), 1u);
}

TEST(ApxNvdUpdates, FlatIndexGrowsIntoVoronoiOnRebuild) {
  Graph graph = testing::SmallRoadNetwork(17);
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  ApxNvdOptions options;
  options.rho = 3;
  options.lazy_insert_threshold = 4;
  std::vector<SiteObject> sites = {{0, 5}, {1, 9}};
  ApxNvd nvd(graph, sites, options);
  EXPECT_FALSE(nvd.HasVoronoi());
  for (std::uint32_t i = 0; i < 10; ++i) {
    nvd.Insert(100 + i, static_cast<VertexId>(20 + i * 7), oracle);
  }
  EXPECT_TRUE(nvd.NeedsRebuild());
  nvd.Rebuild();
  EXPECT_TRUE(nvd.HasVoronoi());  // 12 live objects > rho.
  EXPECT_EQ(nvd.NumLiveObjects(), 12u);
}

TEST(ApxNvdUpdates, FlatIndexPastRhoVerticesNeedsRebuild) {
  // Build gives a keyword with more than rho distinct site vertices an
  // APX-NVD (Observation 1), so a flat index that lazy inserts grew past
  // that cutoff needs a rebuild, well before rho + the lazy threshold.
  Graph graph = testing::SmallRoadNetwork();
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  ApxNvdOptions options;
  options.rho = 3;  // Default lazy_insert_threshold (64).
  ApxNvd nvd(graph, {{0, 5}, {1, 9}}, options);
  EXPECT_FALSE(nvd.NeedsRebuild());
  for (std::uint32_t i = 0; i < 10; ++i) {
    nvd.Insert(100 + i, static_cast<VertexId>(20 + i * 7), oracle);
  }
  EXPECT_FALSE(nvd.HasVoronoi());
  EXPECT_EQ(nvd.NumLiveObjects(), 12u);
  EXPECT_TRUE(nvd.NeedsRebuild());
  nvd.Rebuild();
  EXPECT_TRUE(nvd.HasVoronoi());
  EXPECT_FALSE(nvd.NeedsRebuild());  // One rebuild settles it.
}

TEST(ApxNvdUpdates, ColocatedObjectsOnRhoVerticesStayFlat) {
  // Six objects on three vertices: flat by construction at rho = 3, and a
  // rebuild would build the same flat index, so none is needed — even
  // when the objects arrived as lazy inserts.
  Graph graph = testing::SmallRoadNetwork();
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  ApxNvdOptions options;
  options.rho = 3;
  std::vector<SiteObject> sites;
  for (ObjectId o = 0; o < 6; ++o) {
    sites.push_back({o, static_cast<VertexId>(10 + 10 * (o % 3))});
  }
  ApxNvd built(graph, sites, options);
  EXPECT_FALSE(built.HasVoronoi());
  EXPECT_FALSE(built.NeedsRebuild());

  ApxNvd grown(graph, {sites[0]}, options);
  for (std::size_t i = 1; i < sites.size(); ++i) {
    grown.Insert(sites[i].object, sites[i].vertex, oracle);
  }
  EXPECT_EQ(grown.NumLiveObjects(), 6u);
  EXPECT_FALSE(grown.NeedsRebuild());
  grown.Rebuild();
  EXPECT_FALSE(grown.HasVoronoi());
  EXPECT_FALSE(grown.NeedsRebuild());

  // A Voronoi index whose live objects shrink onto rho vertices flattens.
  sites.push_back({6, 70});
  ApxNvd voronoi(graph, sites, options);  // Four distinct vertices.
  ASSERT_TRUE(voronoi.HasVoronoi());
  EXPECT_FALSE(voronoi.NeedsRebuild());
  voronoi.Delete(6);
  EXPECT_TRUE(voronoi.NeedsRebuild());  // Six live objects, 3 vertices.
  voronoi.Rebuild();
  EXPECT_FALSE(voronoi.HasVoronoi());
  EXPECT_FALSE(voronoi.NeedsRebuild());
}

TEST(ApxNvdUpdates, DeleteReviveAndLiveCount) {
  Graph graph = testing::SmallRoadNetwork();
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  Rng rng(118);
  auto sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), 20);
  std::vector<SiteObject> sites;
  for (std::uint32_t i = 0; i < 20; ++i) sites.push_back({i, sample[i]});
  sites.push_back({20, sample[3]});  // Colocated attachment.
  ApxNvdOptions options;
  options.rho = 3;
  ApxNvd nvd(graph, sites, options);
  ASSERT_TRUE(nvd.HasVoronoi());
  nvd.Insert(50, sample[7], oracle);  // Lazy attachment.
  EXPECT_EQ(nvd.NumLiveObjects(), 22u);
  for (ObjectId o : {ObjectId{3}, ObjectId{20}, ObjectId{50}}) {
    nvd.Delete(o);
    EXPECT_TRUE(nvd.IsDeleted(o));
    EXPECT_TRUE(nvd.IsDeletedMember(testing::MemberOf(nvd, o)));
  }
  EXPECT_EQ(nvd.NumLiveObjects(), 19u);
  // Re-inserting a tombstoned object revives it under the same member;
  // a live one is rejected.
  const std::uint32_t member = testing::MemberOf(nvd, 20);
  const std::size_t members = nvd.NumMembers();
  nvd.Insert(20, sample[3], oracle);
  EXPECT_FALSE(nvd.IsDeleted(20));
  EXPECT_EQ(testing::MemberOf(nvd, 20), member);
  EXPECT_EQ(nvd.NumMembers(), members);
  EXPECT_EQ(nvd.NumLiveObjects(), 20u);
  EXPECT_THROW(nvd.Insert(20, sample[3], oracle), std::invalid_argument);
  EXPECT_FALSE(nvd.IsDeleted(12345));
}

}  // namespace
}  // namespace kspin
