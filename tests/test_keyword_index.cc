// Direct tests for the Keyword Separated Index collection: per-keyword
// index creation, the Observation-1 split, update routing, rebuild
// batching, and memory accounting.
#include <gtest/gtest.h>

#include <memory>

#include "kspin/keyword_index.h"
#include "routing/contraction_hierarchy.h"
#include "test_util.h"
#include "text/inverted_index.h"

namespace kspin {
namespace {

class KeywordIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = testing::SmallRoadNetwork(44);
    store_ = testing::TestDocuments(graph_, 50, 0.25, 144);
    inverted_ = std::make_unique<InvertedIndex>(store_, 50);
    ch_ = std::make_unique<ContractionHierarchy>(graph_);
    oracle_ = std::make_unique<ChOracle>(*ch_);
    KeywordIndexOptions options;
    options.nvd.rho = 4;
    options.nvd.lazy_insert_threshold = 3;
    options.num_threads = 2;
    index_ = std::make_unique<KeywordIndex>(graph_, store_, *inverted_,
                                            options);
  }

  Graph graph_;
  DocumentStore store_;
  std::unique_ptr<InvertedIndex> inverted_;
  std::unique_ptr<ContractionHierarchy> ch_;
  std::unique_ptr<ChOracle> oracle_;
  std::unique_ptr<KeywordIndex> index_;
};

TEST_F(KeywordIndexTest, IndexExistsExactlyForNonEmptyKeywords) {
  for (KeywordId t = 0; t < 50; ++t) {
    EXPECT_EQ(index_->Index(t) != nullptr, inverted_->ListSize(t) > 0)
        << "keyword " << t;
  }
  EXPECT_EQ(index_->Index(999), nullptr);  // Out of universe.
}

TEST_F(KeywordIndexTest, ObservationOneSplit) {
  std::size_t expected_voronoi = 0;
  for (KeywordId t = 0; t < 50; ++t) {
    if (inverted_->ListSize(t) > 4) ++expected_voronoi;  // rho = 4.
    if (const ApxNvd* nvd = index_->Index(t)) {
      EXPECT_EQ(nvd->HasVoronoi(), inverted_->ListSize(t) > 4)
          << "keyword " << t;
    }
  }
  EXPECT_EQ(index_->NumVoronoiIndexes(), expected_voronoi);
  EXPECT_GT(index_->NumIndexes(), index_->NumVoronoiIndexes());
}

TEST_F(KeywordIndexTest, UpdateRoutingCreatesAndMaintainsIndexes) {
  // A brand-new keyword gets a fresh (flat) index on first insert.
  const KeywordId fresh = 49;
  const bool was_empty = index_->Index(fresh) == nullptr;
  const std::vector<KeywordId> keywords = {fresh};
  index_->OnObjectInserted(9001, 5, keywords, *oracle_);
  ASSERT_NE(index_->Index(fresh), nullptr);
  if (was_empty) {
    EXPECT_FALSE(index_->Index(fresh)->HasVoronoi());
  }
  EXPECT_EQ(index_->Index(fresh)->NumLazyInserts(),
            was_empty ? 1u : index_->Index(fresh)->NumLazyInserts());

  index_->OnObjectDeleted(9001, keywords);
  EXPECT_TRUE(index_->Index(fresh)->IsDeleted(9001));

  // Keyword add/remove on an existing object.
  index_->OnKeywordAdded(9002, 7, fresh, *oracle_);
  EXPECT_EQ(index_->Index(fresh)->IsDeleted(9002), false);
  index_->OnKeywordRemoved(9002, fresh);
  EXPECT_TRUE(index_->Index(fresh)->IsDeleted(9002));
}

TEST_F(KeywordIndexTest, RebuildPendingBatchesSaturatedIndexes) {
  // Push one busy keyword over its lazy threshold (3).
  KeywordId busy = 0;
  for (KeywordId t = 0; t < 50; ++t) {
    if (inverted_->ListSize(t) > 8) {
      busy = t;
      break;
    }
  }
  const std::vector<KeywordId> keywords = {busy};
  for (ObjectId o = 5000; o < 5005; ++o) {
    index_->OnObjectInserted(o, static_cast<VertexId>(o % 50), keywords,
                             *oracle_);
  }
  ASSERT_TRUE(index_->Index(busy)->NeedsRebuild());
  const std::size_t rebuilt = index_->RebuildPending();
  EXPECT_GE(rebuilt, 1u);
  EXPECT_FALSE(index_->Index(busy)->NeedsRebuild());
  EXPECT_EQ(index_->RebuildPending(), 0u);
}

TEST_F(KeywordIndexTest, MemoryAndBuildAccounting) {
  EXPECT_GT(index_->MemoryBytes(), 0u);
  EXPECT_GE(index_->BuildSeconds(), 0.0);
  // Voronoi-less collections are much smaller: compare against a rho so
  // large that every keyword stays flat.
  KeywordIndexOptions flat;
  flat.nvd.rho = 100000;
  KeywordIndex flat_index(graph_, store_, *inverted_, flat);
  EXPECT_EQ(flat_index.NumVoronoiIndexes(), 0u);
  EXPECT_LT(flat_index.MemoryBytes(), index_->MemoryBytes());
}

}  // namespace
}  // namespace kspin
