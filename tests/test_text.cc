// Text substrate tests: vocabulary, document store mutations, inverted
// index consistency, relevance formulas (Equations 1-3), the Zipfian
// generator's statistical shape (Observation 1), and workload generation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.h"
#include "text/document_store.h"
#include "text/inverted_index.h"
#include "text/query_workload.h"
#include "text/relevance.h"
#include "text/vocabulary.h"
#include "text/zipf_generator.h"
#include "test_util.h"

namespace kspin {
namespace {

TEST(Vocabulary, InternsAndResolves) {
  Vocabulary vocab;
  const KeywordId thai = vocab.AddOrGet("thai");
  const KeywordId rest = vocab.AddOrGet("restaurant");
  EXPECT_NE(thai, rest);
  EXPECT_EQ(vocab.AddOrGet("thai"), thai);
  EXPECT_EQ(vocab.IdOf("restaurant"), rest);
  EXPECT_EQ(vocab.IdOf("takeaway"), kInvalidKeyword);
  EXPECT_EQ(vocab.TermOf(thai), "thai");
  EXPECT_EQ(vocab.Size(), 2u);
  EXPECT_THROW(vocab.TermOf(99), std::out_of_range);
}

TEST(DocumentStore, AddMergesDuplicatesAndSorts) {
  DocumentStore store;
  const ObjectId o = store.AddObject(3, {{5, 2}, {1, 1}, {5, 3}});
  const auto doc = store.Document(o);
  ASSERT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc[0].keyword, 1u);
  EXPECT_EQ(doc[1].keyword, 5u);
  EXPECT_EQ(doc[1].frequency, 5u);
  EXPECT_EQ(store.ObjectVertex(o), 3u);
  EXPECT_EQ(store.TotalKeywordSlots(), 2u);
}

TEST(DocumentStore, MutationsAndTombstones) {
  DocumentStore store;
  const ObjectId o = store.AddObject(0, {{1, 1}});
  store.AddKeyword(o, 2);
  store.AddKeyword(o, 1, 4);  // Bumps frequency.
  EXPECT_EQ(store.Frequency(o, 1), 5u);
  EXPECT_TRUE(store.Contains(o, 2));
  store.RemoveKeyword(o, 2);
  EXPECT_FALSE(store.Contains(o, 2));
  EXPECT_THROW(store.RemoveKeyword(o, 2), std::invalid_argument);
  store.DeleteObject(o);
  EXPECT_FALSE(store.IsLive(o));
  EXPECT_EQ(store.NumLiveObjects(), 0u);
  EXPECT_THROW(store.DeleteObject(o), std::invalid_argument);
  EXPECT_THROW(store.AddKeyword(o, 1), std::invalid_argument);
  EXPECT_EQ(store.Frequency(o, 1), 0u);
}

TEST(DocumentStore, RejectsZeroFrequency) {
  DocumentStore store;
  EXPECT_THROW(store.AddObject(0, {{1, 0}}), std::invalid_argument);
  const ObjectId o = store.AddObject(0, {{1, 1}});
  EXPECT_THROW(store.AddKeyword(o, 2, 0), std::invalid_argument);
}

TEST(InvertedIndex, MirrorsStoreAndUpdates) {
  DocumentStore store;
  const ObjectId a = store.AddObject(0, {{1, 1}, {2, 1}});
  const ObjectId b = store.AddObject(1, {{2, 2}});
  InvertedIndex index(store, 4);
  EXPECT_EQ(index.ListSize(1), 1u);
  EXPECT_EQ(index.ListSize(2), 2u);
  EXPECT_EQ(index.ListSize(3), 0u);
  ASSERT_EQ(index.Objects(2).size(), 2u);
  EXPECT_EQ(index.Objects(2)[0], a);
  EXPECT_EQ(index.Objects(2)[1], b);

  index.Remove(2, a);
  EXPECT_EQ(index.ListSize(2), 1u);
  EXPECT_THROW(index.Remove(2, a), std::invalid_argument);
  index.Add(2, a);
  index.Add(2, a);  // Idempotent.
  EXPECT_EQ(index.ListSize(2), 2u);
  EXPECT_THROW(index.Add(9, a), std::out_of_range);
}

TEST(InvertedIndex, RejectsOutOfUniverseKeywords) {
  DocumentStore store;
  store.AddObject(0, {{7, 1}});
  EXPECT_THROW(InvertedIndex(store, 3), std::invalid_argument);
}

TEST(RelevanceModel, MatchesHandComputedCosine) {
  // Object doc: {t0: f=1, t1: f=e} -> weights {1, 2}; norm = sqrt(5).
  DocumentStore store;
  const std::uint32_t f_e = 3;  // 1 + ln(3) ~ 2.0986.
  const ObjectId o = store.AddObject(0, {{0, 1}, {1, f_e}});
  store.AddObject(1, {{0, 1}});  // Second object so IDF is finite.
  InvertedIndex index(store, 2);
  RelevanceModel model(store, index);

  const double w0 = 1.0;
  const double w1 = 1.0 + std::log(3.0);
  const double norm = std::sqrt(w0 * w0 + w1 * w1);
  EXPECT_NEAR(model.ObjectImpact(o, 0), w0 / norm, 1e-12);
  EXPECT_NEAR(model.ObjectImpact(o, 1), w1 / norm, 1e-12);
  EXPECT_DOUBLE_EQ(model.ObjectImpact(o, 5), 0.0);

  // Query impacts: w_{t,psi} = ln(1 + |O|/|inv(t)|).
  const std::vector<KeywordId> query = {0, 1};
  PreparedQuery prepared = model.PrepareQuery(query);
  const double q0 = std::log(1.0 + 2.0 / 2.0);
  const double q1 = std::log(1.0 + 2.0 / 1.0);
  const double qnorm = std::sqrt(q0 * q0 + q1 * q1);
  EXPECT_NEAR(prepared.impacts[0], q0 / qnorm, 1e-12);
  EXPECT_NEAR(prepared.impacts[1], q1 / qnorm, 1e-12);

  const double tr = prepared.impacts[0] * (w0 / norm) +
                    prepared.impacts[1] * (w1 / norm);
  EXPECT_NEAR(model.TextualRelevance(prepared, o), tr, 1e-12);

  // Equation 1: weighted distance.
  EXPECT_NEAR(RelevanceModel::Score(100, tr), 100.0 / tr, 1e-9);
  EXPECT_TRUE(std::isinf(RelevanceModel::Score(100, 0.0)));
}

TEST(RelevanceModel, MaxImpactBoundsAllObjects) {
  Graph graph = testing::SmallRoadNetwork();
  DocumentStore store = testing::TestDocuments(graph);
  InvertedIndex index(store, 60);
  RelevanceModel model(store, index);
  for (KeywordId t = 0; t < 60; ++t) {
    for (ObjectId o : index.Objects(t)) {
      EXPECT_LE(model.ObjectImpact(o, t), model.MaxImpact(t) + 1e-12);
    }
  }
}

TEST(RelevanceModel, RefreshTracksMutations) {
  DocumentStore store;
  const ObjectId o = store.AddObject(0, {{0, 1}});
  InvertedIndex index(store, 2);
  RelevanceModel model(store, index);
  const double before = model.ObjectImpact(o, 0);
  store.AddKeyword(o, 1, 5);
  model.RefreshObject(o);
  // Adding a second keyword grows the norm, shrinking t0's impact.
  EXPECT_LT(model.ObjectImpact(o, 0), before);
  EXPECT_GT(model.ObjectImpact(o, 1), 0.0);
}

// TR from the precomputed impact runs must equal, bit for bit, the
// document formula sum_i lambda_{t_i,psi} * (1 + ln f) / ||w_o|| evaluated
// in query-keyword order — on a fresh model and through refreshes that
// rewrite runs in place, move them to the end of the pool and compact it.
TEST(RelevanceModel, ImpactRunsMatchTheDocumentFormulaExactly) {
  Graph graph = testing::SmallRoadNetwork();
  DocumentStore store = testing::TestDocuments(graph, 30, 0.1, 23);
  InvertedIndex index(store, 40);
  RelevanceModel model(store, index);
  auto reference = [&store](const PreparedQuery& query, ObjectId o) {
    double tr = 0.0;
    for (std::size_t i = 0; i < query.keywords.size(); ++i) {
      const std::uint32_t f = store.Frequency(o, query.keywords[i]);
      double impact = 0.0;
      if (f > 0) {
        double sum_sq = 0.0;
        for (const DocEntry& e : store.Document(o)) {
          const double w = 1.0 + std::log(static_cast<double>(e.frequency));
          sum_sq += w * w;
        }
        impact =
            (1.0 + std::log(static_cast<double>(f))) / std::sqrt(sum_sq);
      }
      tr += query.impacts[i] * impact;
    }
    return tr;
  };
  Rng rng(24);
  auto check = [&](int round) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<KeywordId> keywords;
      for (int j = 0; j < 1 + trial % 4; ++j) {
        keywords.push_back(static_cast<KeywordId>(rng.UniformInt(0, 39)));
      }
      const PreparedQuery query = model.PrepareQuery(keywords);
      for (std::size_t j = 0; j < query.keywords.size(); ++j) {
        ASSERT_EQ(query.max_terms[j],
                  query.impacts[j] * model.MaxImpact(query.keywords[j]));
      }
      for (ObjectId o = 0; o < store.NumSlots(); ++o) {
        ASSERT_EQ(model.TextualRelevance(query, o), reference(query, o))
            << "round " << round << " object " << o;
      }
    }
  };
  check(0);
  for (int round = 1; round <= 150; ++round) {
    const auto o = static_cast<ObjectId>(
        rng.UniformInt(0, store.NumSlots() - 1));
    if (!store.IsLive(o)) continue;
    const auto t = static_cast<KeywordId>(rng.UniformInt(0, 39));
    if (round % 37 == 0) {
      store.DeleteObject(o);
    } else if (store.Contains(o, t) && store.Document(o).size() > 1) {
      store.RemoveKeyword(o, t);  // Shrinks the run in place.
    } else {
      store.AddKeyword(o, t, 1 + round % 3);  // May move it to the end.
    }
    model.RefreshObject(o);
    check(round);
  }
}

TEST(ZipfGenerator, ProducesZipfianFrequencies) {
  Graph graph = testing::MediumRoadNetwork();
  KeywordDatasetOptions options;
  options.num_keywords = 200;
  options.object_fraction = 0.3;
  options.seed = 5;
  DocumentStore store = GenerateKeywordDataset(graph, options);
  InvertedIndex index(store, 200);

  // Keyword 0 (rank 1) should dominate keyword 50.
  EXPECT_GT(index.ListSize(0), index.ListSize(50) * 3);
  // Observation 1: the vast majority of keywords have tiny lists.
  std::size_t tiny = 0, nonempty = 0;
  for (KeywordId t = 0; t < 200; ++t) {
    if (index.ListSize(t) > 0) ++nonempty;
    if (index.ListSize(t) <= 15) ++tiny;
  }
  EXPECT_GT(nonempty, 100u);
  EXPECT_GT(tiny, 140u);
}

TEST(ZipfGenerator, ObjectsOnDistinctVerticesWithBoundedDocs) {
  Graph graph = testing::SmallRoadNetwork();
  KeywordDatasetOptions options;
  options.num_keywords = 50;
  options.object_fraction = 0.2;
  options.min_doc_keywords = 2;
  options.max_doc_keywords = 6;
  DocumentStore store = GenerateKeywordDataset(graph, options);
  std::set<VertexId> vertices;
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    ASSERT_TRUE(store.IsLive(o));
    EXPECT_TRUE(vertices.insert(store.ObjectVertex(o)).second);
    EXPECT_GE(store.Document(o).size(), 2u);
    EXPECT_LE(store.Document(o).size(), 6u);
  }
  EXPECT_NEAR(static_cast<double>(store.NumLiveObjects()),
              graph.NumVertices() * 0.2, graph.NumVertices() * 0.02);
}

TEST(ZipfGenerator, ValidatesOptions) {
  Graph graph = testing::SmallRoadNetwork();
  KeywordDatasetOptions options;
  options.num_keywords = 0;
  EXPECT_THROW(GenerateKeywordDataset(graph, options),
               std::invalid_argument);
  options = {};
  options.object_fraction = 0.0;
  EXPECT_THROW(GenerateKeywordDataset(graph, options),
               std::invalid_argument);
  options = {};
  options.min_doc_keywords = 5;
  options.max_doc_keywords = 2;
  EXPECT_THROW(GenerateKeywordDataset(graph, options),
               std::invalid_argument);
}

TEST(QueryWorkload, GeneratesCorrelatedVectorsPerLength) {
  Graph graph = testing::SmallRoadNetwork();
  DocumentStore store = testing::TestDocuments(graph);
  InvertedIndex index(store, 60);
  WorkloadOptions options;
  options.vector_lengths = {1, 2, 3};
  options.num_seed_terms = 3;
  options.objects_per_term = 4;
  options.vertices_per_vector = 5;
  QueryWorkload workload(graph, store, index, options);

  for (std::uint32_t len : options.vector_lengths) {
    const auto queries = workload.QueriesForLength(len);
    EXPECT_EQ(queries.size(), 3u * 4u * 5u);
    for (const auto& query : queries) {
      EXPECT_EQ(query.keywords.size(), len);
      EXPECT_LT(query.vertex, graph.NumVertices());
      // Keywords are distinct within a vector.
      std::set<KeywordId> unique(query.keywords.begin(),
                                 query.keywords.end());
      EXPECT_EQ(unique.size(), len);
    }
  }
  EXPECT_THROW(workload.QueriesForLength(9), std::invalid_argument);
}

TEST(QueryWorkload, DensityBucketsSelectByListSize) {
  Graph graph = testing::MediumRoadNetwork();
  DocumentStore store = testing::TestDocuments(graph, 120, 0.2);
  InvertedIndex index(store, 120);
  QueryWorkload workload(graph, store, index);
  const double n = static_cast<double>(graph.NumVertices());
  auto queries = workload.SingleKeywordDensityBucket(0.001, 0.1, 5, 3);
  for (const auto& query : queries) {
    ASSERT_EQ(query.keywords.size(), 1u);
    const double density = index.ListSize(query.keywords[0]) / n;
    EXPECT_GE(density, 0.001);
    EXPECT_LT(density, 0.1);
  }
}

}  // namespace
}  // namespace kspin
