// Golden cost counters: the paper's per-query work measures — kappa heap
// pops, lower-bound evaluations, heap insertions and exact network
// distances — summed over a fixed fixture and query set, for top-k,
// disjunctive and conjunctive BkNN and the keyword-free KnnEngine, on a
// bulk-built index and again after lazy inserts and deletes.
//
// The totals pin the candidate supply of the APX-NVD + inverted-heap
// layer: a representation or layout change that adds, drops or reorders
// candidates fails here rather than only in a traced benchmark run. The
// expected values were recorded on the object-keyed hash-map layout that
// the dense member-id layout replaced; change them only together with a
// deliberate change to the algorithms themselves.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "kspin/knn_engine.h"
#include "kspin/kspin.h"
#include "routing/alt.h"
#include "routing/contraction_hierarchy.h"
#include "test_util.h"

namespace kspin {
namespace {

struct Totals {
  std::uint64_t kappa = 0;
  std::uint64_t lower_bounds = 0;
  std::uint64_t insertions = 0;
  std::uint64_t distances = 0;

  void Add(const QueryStats& stats) {
    kappa += stats.candidates_extracted;
    lower_bounds += stats.lower_bounds_computed;
    insertions += stats.heap_insertions;
    distances += stats.network_distance_computations;
  }
};

void ExpectTotals(const Totals& got, const Totals& want) {
  EXPECT_EQ(got.kappa, want.kappa);
  EXPECT_EQ(got.lower_bounds, want.lower_bounds);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.distances, want.distances);
}

struct Query {
  VertexId vertex;
  std::vector<KeywordId> keywords;
};

class GoldenCounters : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kNumKeywords = 40;

  void SetUp() override {
    graph_ = testing::MediumRoadNetwork(12);
    ch_ = std::make_unique<ContractionHierarchy>(graph_);
    oracle_ = std::make_unique<ChOracle>(*ch_);
    KSpinOptions options;
    options.rho = 4;
    options.num_threads = 2;
    engine_ = std::make_unique<KSpin>(
        graph_, testing::TestDocuments(graph_, kNumKeywords, 0.2, 31),
        *oracle_, options);
    Rng rng(2020);
    for (int i = 0; i < 48; ++i) {
      Query query;
      query.vertex =
          static_cast<VertexId>(rng.UniformInt(0, graph_.NumVertices() - 1));
      const int terms = 1 + i % 3;
      for (int j = 0; j < terms; ++j) {
        query.keywords.push_back(
            static_cast<KeywordId>(rng.UniformInt(0, kNumKeywords / 2)));
      }
      queries_.push_back(std::move(query));
    }
  }

  Totals RunTopK() {
    Totals totals;
    for (const Query& query : queries_) {
      QueryStats stats;
      engine_->TopK(query.vertex, 5, query.keywords, &stats);
      totals.Add(stats);
    }
    return totals;
  }

  Totals RunBooleanKnn(BooleanOp op) {
    Totals totals;
    for (const Query& query : queries_) {
      QueryStats stats;
      engine_->BooleanKnn(query.vertex, 5, query.keywords, op, &stats);
      totals.Add(stats);
    }
    return totals;
  }

  // Lazy inserts (new objects with two keywords each, some colocated with
  // existing objects) and deletes, routed through the engine.
  void ApplyLazyUpdates() {
    Rng rng(4040);
    for (int i = 0; i < 40; ++i) {
      const VertexId vertex =
          i % 4 == 0
              ? engine_->Store().ObjectVertex(static_cast<ObjectId>(i))
              : static_cast<VertexId>(
                    rng.UniformInt(0, graph_.NumVertices() - 1));
      const auto a = static_cast<KeywordId>(rng.UniformInt(0, 12));
      const auto b = static_cast<KeywordId>(rng.UniformInt(13, 30));
      const auto frequency = static_cast<std::uint32_t>(1 + i % 3);
      engine_->InsertObject(vertex, {{a, frequency}, {b, 1}});
    }
    for (ObjectId o = 3; o < 120; o += 9) {
      if (engine_->Store().IsLive(o)) engine_->DeleteObject(o);
    }
  }

  Graph graph_;
  std::unique_ptr<ContractionHierarchy> ch_;
  std::unique_ptr<ChOracle> oracle_;
  std::unique_ptr<KSpin> engine_;
  std::vector<Query> queries_;
};

TEST_F(GoldenCounters, TopK) {
  ExpectTotals(RunTopK(), {4175, 5242, 5242, 808});
}

TEST_F(GoldenCounters, DisjunctiveBkNN) {
  ExpectTotals(RunBooleanKnn(BooleanOp::kDisjunctive),
               {765, 1805, 1805, 697});
}

TEST_F(GoldenCounters, ConjunctiveBkNN) {
  ExpectTotals(RunBooleanKnn(BooleanOp::kConjunctive),
               {1343, 1835, 1835, 422});
}

TEST_F(GoldenCounters, AfterLazyUpdates) {
  ApplyLazyUpdates();
  ExpectTotals(RunTopK(), {4523, 6517, 6517, 817});
  ExpectTotals(RunBooleanKnn(BooleanOp::kDisjunctive),
               {778, 3026, 3026, 690});
}

TEST(GoldenKnnEngine, BulkAndLazy) {
  Graph graph = testing::MediumRoadNetwork(13);
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  AltIndex alt(graph, 8);
  Rng rng(515);
  const auto sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), 200);
  std::vector<SiteObject> objects;
  for (std::uint32_t i = 0; i < 150; ++i) objects.push_back({i, sample[i]});
  objects.push_back({150, sample[0]});  // Colocated with object 0.
  ApxNvdOptions options;
  options.rho = 4;
  KnnEngine engine(graph, objects, alt, oracle, options);

  auto run = [&graph, &engine] {
    Totals totals;
    for (VertexId q = 0; q < graph.NumVertices(); q += 97) {
      QueryStats stats;
      engine.Knn(q, 7, &stats);
      totals.Add(stats);
    }
    return totals;
  };
  ExpectTotals(run(), {485, 934, 934, 485});

  for (std::uint32_t i = 150; i < 200; ++i) {
    engine.Insert(1000 + i, sample[i]);
  }
  for (ObjectId o = 0; o < 150; o += 11) engine.Delete(o);
  ExpectTotals(run(), {607, 4981, 4981, 566});
}

}  // namespace
}  // namespace kspin
