// End-to-end correctness of the K-SPIN Query Processor: Boolean kNN
// (disjunctive/conjunctive), top-k with pseudo lower bounds, and the CNF
// extension — all validated against the brute-force network-expansion
// baseline, across every pluggable Network Distance Module.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/network_expansion.h"
#include "kspin/kspin.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "routing/gtree.h"
#include "routing/hub_labeling.h"
#include "test_util.h"
#include "text/query_workload.h"

namespace kspin {
namespace {

enum class OracleKind { kDijkstra, kCh, kHubLabels, kGTree };

// Owns a graph + dataset + one of each distance technique, handing out the
// oracle selected by the test parameter.
class Fixture {
 public:
  explicit Fixture(std::uint64_t seed = 1) {
    graph_ = testing::SmallRoadNetwork(seed);
    store_ = testing::TestDocuments(graph_, 50, 0.2, seed + 100);
    ch_ = std::make_unique<ContractionHierarchy>(graph_);
    labels_ = std::make_unique<HubLabeling>(graph_, *ch_);
    GTreeOptions gt_options;
    gt_options.leaf_size = 32;
    gt_options.num_threads = 2;
    gtree_ = std::make_unique<GTree>(graph_, gt_options);
    dijkstra_oracle_ = std::make_unique<DijkstraOracle>(graph_);
    ch_oracle_ = std::make_unique<ChOracle>(*ch_);
    hl_oracle_ = std::make_unique<HubLabelOracle>(*labels_);
    gtree_oracle_ = std::make_unique<GTreeOracle>(*gtree_);

    inverted_ = std::make_unique<InvertedIndex>(store_, 50);
    relevance_ = std::make_unique<RelevanceModel>(store_, *inverted_);
    expansion_ = std::make_unique<NetworkExpansionBaseline>(
        graph_, store_, *inverted_, *relevance_);
  }

  DistanceOracle& Oracle(OracleKind kind) {
    switch (kind) {
      case OracleKind::kDijkstra:
        return *dijkstra_oracle_;
      case OracleKind::kCh:
        return *ch_oracle_;
      case OracleKind::kHubLabels:
        return *hl_oracle_;
      case OracleKind::kGTree:
        return *gtree_oracle_;
    }
    __builtin_unreachable();
  }

  KSpin MakeEngine(OracleKind kind) {
    KSpinOptions options;
    options.rho = 4;
    options.num_threads = 2;
    return KSpin(graph_, store_, Oracle(kind), options);
  }

  const Graph& graph() const { return graph_; }
  const DocumentStore& store() const { return store_; }
  const InvertedIndex& inverted() const { return *inverted_; }
  NetworkExpansionBaseline& expansion() { return *expansion_; }

 private:
  Graph graph_;
  DocumentStore store_;
  std::unique_ptr<ContractionHierarchy> ch_;
  std::unique_ptr<HubLabeling> labels_;
  std::unique_ptr<GTree> gtree_;
  std::unique_ptr<DijkstraOracle> dijkstra_oracle_;
  std::unique_ptr<ChOracle> ch_oracle_;
  std::unique_ptr<HubLabelOracle> hl_oracle_;
  std::unique_ptr<GTreeOracle> gtree_oracle_;
  std::unique_ptr<InvertedIndex> inverted_;
  std::unique_ptr<RelevanceModel> relevance_;
  std::unique_ptr<NetworkExpansionBaseline> expansion_;
};

// Result-set comparison tolerant of distance ties: the distance sequences
// must match exactly; objects must genuinely satisfy the criteria.
void ExpectSameBknn(const std::vector<BkNNResult>& got,
                    const std::vector<BkNNResult>& expected,
                    const char* context) {
  ASSERT_EQ(got.size(), expected.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].distance, expected[i].distance)
        << context << " rank " << i;
  }
}

void ExpectSameTopK(const std::vector<TopKResult>& got,
                    const std::vector<TopKResult>& expected,
                    const char* context) {
  ASSERT_EQ(got.size(), expected.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, expected[i].score,
                1e-9 * std::max(1.0, expected[i].score))
        << context << " rank " << i;
  }
}

class QueryProcessorAllOracles
    : public ::testing::TestWithParam<OracleKind> {};

TEST_P(QueryProcessorAllOracles, BooleanKnnMatchesExpansion) {
  Fixture fixture(3);
  KSpin engine = fixture.MakeEngine(GetParam());
  WorkloadOptions wl;
  wl.vector_lengths = {1, 2, 3};
  wl.num_seed_terms = 3;
  wl.objects_per_term = 2;
  wl.vertices_per_vector = 4;
  QueryWorkload workload(fixture.graph(), fixture.store(),
                         fixture.inverted(), wl);
  for (std::uint32_t len : wl.vector_lengths) {
    for (const auto& query : workload.QueriesForLength(len)) {
      for (BooleanOp op :
           {BooleanOp::kDisjunctive, BooleanOp::kConjunctive}) {
        for (std::uint32_t k : {1u, 5u}) {
          auto got = engine.BooleanKnn(query.vertex, k, query.keywords, op);
          auto expected = fixture.expansion().BooleanKnn(
              query.vertex, k, query.keywords, op);
          ExpectSameBknn(got, expected,
                         op == BooleanOp::kDisjunctive ? "disjunctive"
                                                       : "conjunctive");
        }
      }
    }
  }
}

TEST_P(QueryProcessorAllOracles, TopKMatchesExpansion) {
  Fixture fixture(4);
  KSpin engine = fixture.MakeEngine(GetParam());
  WorkloadOptions wl;
  wl.vector_lengths = {1, 2, 4};
  wl.num_seed_terms = 3;
  wl.objects_per_term = 2;
  wl.vertices_per_vector = 3;
  QueryWorkload workload(fixture.graph(), fixture.store(),
                         fixture.inverted(), wl);
  for (std::uint32_t len : wl.vector_lengths) {
    for (const auto& query : workload.QueriesForLength(len)) {
      for (std::uint32_t k : {1u, 3u, 10u}) {
        auto got = engine.TopK(query.vertex, k, query.keywords);
        auto expected =
            fixture.expansion().TopK(query.vertex, k, query.keywords);
        ExpectSameTopK(got, expected, "topk");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Oracles, QueryProcessorAllOracles,
                         ::testing::Values(OracleKind::kDijkstra,
                                           OracleKind::kCh,
                                           OracleKind::kHubLabels,
                                           OracleKind::kGTree));

TEST(QueryProcessor, CnfQueriesMatchBruteForce) {
  Fixture fixture(5);
  KSpin engine = fixture.MakeEngine(OracleKind::kCh);
  // Build CNF clauses from existing keywords.
  const auto& inverted = fixture.inverted();
  std::vector<KeywordId> frequent;
  for (KeywordId t = 0; t < inverted.NumKeywords() && frequent.size() < 4;
       ++t) {
    if (inverted.ListSize(t) >= 5) frequent.push_back(t);
  }
  ASSERT_GE(frequent.size(), 3u);
  std::vector<std::vector<KeywordId>> clauses = {
      {frequent[0]}, {frequent[1], frequent[2]}};

  auto satisfies = [&](ObjectId o) {
    const DocumentStore& store = fixture.store();
    return store.Contains(o, frequent[0]) &&
           (store.Contains(o, frequent[1]) ||
            store.Contains(o, frequent[2]));
  };
  DijkstraWorkspace workspace(fixture.graph().NumVertices());
  for (VertexId q = 3; q < fixture.graph().NumVertices(); q += 67) {
    auto got = engine.BooleanKnnCnf(q, 3, clauses);
    // Brute force.
    const auto& dist = workspace.SingleSource(fixture.graph(), q);
    std::vector<Distance> expected;
    for (ObjectId o = 0; o < fixture.store().NumSlots(); ++o) {
      if (fixture.store().IsLive(o) && satisfies(o)) {
        expected.push_back(dist[fixture.store().ObjectVertex(o)]);
      }
    }
    std::sort(expected.begin(), expected.end());
    if (expected.size() > 3) expected.resize(3);
    ASSERT_EQ(got.size(), expected.size()) << "q=" << q;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].distance, expected[i]) << "q=" << q << " rank " << i;
      EXPECT_TRUE(satisfies(got[i].object));
    }
  }
}

TEST(QueryProcessor, EdgeCases) {
  Fixture fixture(6);
  KSpin engine = fixture.MakeEngine(OracleKind::kDijkstra);
  const std::vector<KeywordId> keywords = {0, 1};
  EXPECT_TRUE(engine.BooleanKnn(0, 0, keywords, BooleanOp::kDisjunctive)
                  .empty());
  EXPECT_TRUE(engine.TopK(0, 0, keywords).empty());
  EXPECT_TRUE(
      engine.BooleanKnn(0, 5, {}, BooleanOp::kDisjunctive).empty());
  EXPECT_TRUE(engine.TopK(0, 5, {}).empty());
  // Duplicate keywords behave like the deduplicated query.
  const std::vector<KeywordId> dup = {0, 0, 1};
  auto a = engine.TopK(2, 3, dup);
  auto b = engine.TopK(2, 3, keywords);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].score, b[i].score, 1e-9);
  }
}

TEST(QueryProcessor, KLargerThanMatchingObjects) {
  Fixture fixture(7);
  KSpin engine = fixture.MakeEngine(OracleKind::kCh);
  // Find a rare keyword.
  KeywordId rare = kInvalidKeyword;
  for (KeywordId t = 0; t < fixture.inverted().NumKeywords(); ++t) {
    const std::size_t size = fixture.inverted().ListSize(t);
    if (size >= 1 && size <= 3) {
      rare = t;
      break;
    }
  }
  ASSERT_NE(rare, kInvalidKeyword);
  const std::vector<KeywordId> keywords = {rare};
  auto results =
      engine.BooleanKnn(0, 50, keywords, BooleanOp::kDisjunctive);
  EXPECT_EQ(results.size(), fixture.inverted().ListSize(rare));
}

TEST(QueryProcessor, WeightedSumScoringMatchesExpansion) {
  Fixture fixture(9);
  KSpin engine = fixture.MakeEngine(OracleKind::kCh);
  // Normalize by an (over)estimate of the network diameter.
  ScoringFunction scoring;
  scoring.kind = ScoringFunction::Kind::kWeightedSum;
  scoring.max_distance = 200000.0;
  WorkloadOptions wl;
  wl.vector_lengths = {2, 3};
  wl.num_seed_terms = 2;
  wl.objects_per_term = 2;
  wl.vertices_per_vector = 3;
  QueryWorkload workload(fixture.graph(), fixture.store(),
                         fixture.inverted(), wl);
  for (double alpha : {0.2, 0.5, 0.8}) {
    scoring.alpha = alpha;
    for (std::uint32_t len : wl.vector_lengths) {
      for (const auto& query : workload.QueriesForLength(len)) {
        auto got = engine.TopK(query.vertex, 5, query.keywords, scoring);
        auto expected = fixture.expansion().TopK(query.vertex, 5,
                                                 query.keywords, scoring);
        ExpectSameTopK(got, expected, "weighted-sum");
      }
    }
  }
}

TEST(QueryProcessor, WeightedSumExtremesOrderAsExpected) {
  Fixture fixture(10);
  KSpin engine = fixture.MakeEngine(OracleKind::kCh);
  std::vector<KeywordId> keywords;
  for (KeywordId t = 0; t < fixture.inverted().NumKeywords() &&
                        keywords.size() < 2;
       ++t) {
    if (fixture.inverted().ListSize(t) >= 8) keywords.push_back(t);
  }
  ASSERT_EQ(keywords.size(), 2u);
  // alpha -> 1: ranking approaches pure nearest-neighbour order.
  ScoringFunction near_distance;
  near_distance.kind = ScoringFunction::Kind::kWeightedSum;
  near_distance.alpha = 0.999;
  near_distance.max_distance = 200000.0;
  auto by_score = engine.TopK(3, 5, keywords, near_distance);
  for (std::size_t i = 1; i < by_score.size(); ++i) {
    EXPECT_GE(by_score[i].distance, by_score[i - 1].distance);
  }
  // alpha -> 0: ranking approaches pure relevance order.
  ScoringFunction near_text;
  near_text.kind = ScoringFunction::Kind::kWeightedSum;
  near_text.alpha = 0.001;
  near_text.max_distance = 200000.0;
  auto by_text = engine.TopK(3, 5, keywords, near_text);
  for (std::size_t i = 1; i < by_text.size(); ++i) {
    EXPECT_LE(by_text[i].relevance, by_text[i - 1].relevance + 1e-6);
  }
}

TEST(QueryProcessor, ValidLowerBoundAblationStaysExact) {
  Fixture fixture(11);
  KSpin engine = fixture.MakeEngine(OracleKind::kCh);
  std::vector<KeywordId> keywords;
  for (KeywordId t = 0; t < fixture.inverted().NumKeywords() &&
                        keywords.size() < 3;
       ++t) {
    if (fixture.inverted().ListSize(t) >= 5) keywords.push_back(t);
  }
  ASSERT_GE(keywords.size(), 2u);
  for (VertexId q = 0; q < fixture.graph().NumVertices(); q += 59) {
    QueryStats pseudo_stats;
    auto with_pseudo = engine.TopK(q, 5, keywords, &pseudo_stats);
    // Disable pseudo lower bounds: results identical, work never smaller.
    // (On a processor of its own, so the facade's keeps pseudo bounds.)
    QueryStats valid_stats;
    QueryProcessor processor(engine.Store(), engine.Inverted(),
                             engine.Relevance(), engine.Keywords(),
                             engine.Alt(), engine.Oracle());
    processor.SetUsePseudoLowerBounds(false);
    auto with_valid = processor.TopK(q, 5, keywords, &valid_stats);
    ASSERT_EQ(with_pseudo.size(), with_valid.size());
    for (std::size_t i = 0; i < with_pseudo.size(); ++i) {
      EXPECT_NEAR(with_pseudo[i].score, with_valid[i].score, 1e-9);
    }
    EXPECT_LE(pseudo_stats.candidates_extracted,
              valid_stats.candidates_extracted);
  }
}

// A hand-built 10-vertex path network with a known object layout, so every
// QueryStats invariant can be checked against exact expectations:
//
//   0 -1- 1 -1- 2 -1- ... -1- 9      (all edge weights 1)
//
// keyword 0 on the objects at odd vertices {1,3,5,7,9}; keyword 1 on the
// objects at {3,6,9}. Union = {1,3,5,6,7,9}, intersection = {3,9}.
class StatsNetwork {
 public:
  StatsNetwork() {
    GraphBuilder builder(10);
    std::vector<Coordinate> coords;
    for (VertexId v = 0; v < 10; ++v) {
      if (v > 0) builder.AddEdge(v - 1, v, 1);
      coords.push_back({static_cast<std::int32_t>(v) * 10, 0});
    }
    builder.SetCoordinates(std::move(coords));
    graph_ = builder.Build();
    for (VertexId v : {1, 3, 5, 7, 9}) {
      store_.AddObject(v, {{0, 1}});
    }
    for (VertexId v : {3, 6, 9}) {
      if (v == 3 || v == 9) {
        store_.AddKeyword(v == 3 ? 1u : 4u, 1);  // Objects 1 and 4.
      } else {
        store_.AddObject(v, {{1, 1}});
      }
    }
    oracle_ = std::make_unique<DijkstraOracle>(graph_);
    KSpinOptions options;
    options.rho = 2;  // Both keywords are above the rho cutoff.
    options.num_threads = 1;
    engine_ = std::make_unique<KSpin>(graph_, store_, *oracle_, options);
  }

  KSpin& engine() { return *engine_; }

 private:
  Graph graph_;
  DocumentStore store_;
  std::unique_ptr<DijkstraOracle> oracle_;
  std::unique_ptr<KSpin> engine_;
};

TEST(QueryStatsInvariants, DisjunctiveCountsOnHandBuiltNetwork) {
  StatsNetwork net;
  QueryStats stats;
  const std::vector<KeywordId> keywords = {0, 1};
  const auto results = net.engine().BooleanKnn(
      0, 3, keywords, BooleanOp::kDisjunctive, &stats);
  // Nearest three of the union {1,3,5,6,7,9} from vertex 0.
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].distance, 1u);
  EXPECT_EQ(results[1].distance, 3u);
  EXPECT_EQ(results[2].distance, 5u);
  // Counter invariants.
  EXPECT_EQ(stats.results_returned, results.size());
  EXPECT_EQ(stats.heaps_created, 2u);  // One inverted heap per keyword.
  EXPECT_GE(stats.candidates_extracted, results.size());
  EXPECT_GE(stats.network_distance_computations, results.size());
  // Every result paid one exact distance; the rest were false positives.
  EXPECT_EQ(stats.false_positive_distances,
            stats.network_distance_computations - results.size());
  EXPECT_LE(stats.false_positive_distances,
            stats.network_distance_computations);
  EXPECT_GT(stats.search_ns, 0u);
}

TEST(QueryStatsInvariants, ConjunctiveCountsOnHandBuiltNetwork) {
  StatsNetwork net;
  QueryStats stats;
  const std::vector<KeywordId> keywords = {0, 1};
  const auto results = net.engine().BooleanKnn(
      0, 3, keywords, BooleanOp::kConjunctive, &stats);
  // Intersection is {3, 9}: fewer results than k.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].distance, 3u);
  EXPECT_EQ(results[1].distance, 9u);
  EXPECT_EQ(stats.results_returned, 2u);
  EXPECT_EQ(stats.false_positive_distances,
            stats.network_distance_computations - results.size());
  EXPECT_GE(stats.network_distance_computations, results.size());
}

TEST(QueryStatsInvariants, ConjunctiveNeverBeatsDisjunctiveOnResults) {
  StatsNetwork net;
  QueryStats dis_stats;
  QueryStats con_stats;
  const std::vector<KeywordId> keywords = {0, 1};
  const auto dis = net.engine().BooleanKnn(0, 10, keywords,
                                           BooleanOp::kDisjunctive,
                                           &dis_stats);
  const auto con = net.engine().BooleanKnn(0, 10, keywords,
                                           BooleanOp::kConjunctive,
                                           &con_stats);
  EXPECT_EQ(dis.size(), 6u);  // |union|.
  EXPECT_EQ(con.size(), 2u);  // |intersection|.
  EXPECT_LE(con_stats.results_returned, dis_stats.results_returned);
  // Exhausting the union with k past the population touches everything:
  // distance computations equal the live matching objects, so no false
  // positives remain.
  EXPECT_EQ(dis_stats.false_positive_distances, 0u);
}

TEST(QueryStatsInvariants, StatsAccumulateAcrossQueries) {
  StatsNetwork net;
  QueryStats stats;  // Deliberately reused: += semantics.
  const std::vector<KeywordId> keywords = {0};
  (void)net.engine().BooleanKnn(0, 2, keywords, BooleanOp::kDisjunctive,
                                &stats);
  const std::uint64_t after_first = stats.network_distance_computations;
  EXPECT_GT(after_first, 0u);
  (void)net.engine().BooleanKnn(0, 2, keywords, BooleanOp::kDisjunctive,
                                &stats);
  EXPECT_EQ(stats.network_distance_computations, 2 * after_first);
  EXPECT_EQ(stats.heaps_created, 2u);
}

TEST(QueryProcessor, StatsArePopulated) {
  Fixture fixture(8);
  KSpin engine = fixture.MakeEngine(OracleKind::kCh);
  std::vector<KeywordId> keywords;
  for (KeywordId t = 0; t < fixture.inverted().NumKeywords() &&
                        keywords.size() < 2;
       ++t) {
    if (fixture.inverted().ListSize(t) >= 8) keywords.push_back(t);
  }
  ASSERT_EQ(keywords.size(), 2u);
  QueryStats stats;
  auto results = engine.TopK(1, 5, keywords, &stats);
  ASSERT_FALSE(results.empty());
  EXPECT_GT(stats.candidates_extracted, 0u);
  EXPECT_GT(stats.network_distance_computations, 0u);
  EXPECT_EQ(stats.heaps_created, 2u);
  EXPECT_GT(stats.lower_bounds_computed, 0u);
  // The point of K-SPIN: distance computations stay near k, far below the
  // total candidate population (kappa <= 5k in the paper's experiments).
  EXPECT_LE(stats.network_distance_computations,
            stats.lower_bounds_computed + 5);
}

}  // namespace
}  // namespace kspin
