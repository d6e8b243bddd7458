// Concurrency tests: several threads, each with its own processor from
// KSpin::MakeProcessor() over one shared engine (the server's worker
// model), must return exactly the results of serial execution, for every
// query, on every oracle backend, and must do so without data races (this
// test is part of the TSan CI job). The Dijkstra oracle doubles as the
// distance ground truth.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kspin/kspin.h"
#include "kspin/query_processor.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "routing/hub_labeling.h"
#include "service/poi_service.h"
#include "test_util.h"

namespace kspin {
namespace {

constexpr unsigned kThreads = 4;
constexpr std::uint32_t kNumKeywords = 60;

struct BknnQuery {
  VertexId vertex = kInvalidVertex;
  std::uint32_t k = 0;
  std::vector<KeywordId> keywords;
  BooleanOp op = BooleanOp::kDisjunctive;
};

struct TopKQuery {
  VertexId vertex = kInvalidVertex;
  std::uint32_t k = 0;
  std::vector<KeywordId> keywords;
};

// Deterministic mixed workload over the test keyword universe.
std::vector<BknnQuery> BknnWorkload(const Graph& graph, std::size_t count) {
  std::vector<BknnQuery> queries(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries[i].vertex =
        static_cast<VertexId>((i * 37 + 5) % graph.NumVertices());
    queries[i].k = 3 + static_cast<std::uint32_t>(i % 5);
    queries[i].keywords = {static_cast<KeywordId>(i % kNumKeywords),
                           static_cast<KeywordId>((i * 7 + 3) % kNumKeywords)};
    queries[i].op = (i % 3 == 0) ? BooleanOp::kConjunctive
                                 : BooleanOp::kDisjunctive;
  }
  return queries;
}

std::vector<TopKQuery> TopKWorkload(const Graph& graph, std::size_t count) {
  std::vector<TopKQuery> queries(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries[i].vertex =
        static_cast<VertexId>((i * 53 + 11) % graph.NumVertices());
    queries[i].k = 2 + static_cast<std::uint32_t>(i % 6);
    queries[i].keywords = {static_cast<KeywordId>((i * 5) % kNumKeywords),
                           static_cast<KeywordId>((i * 11 + 1) % kNumKeywords),
                           static_cast<KeywordId>((i * 3 + 7) % kNumKeywords)};
  }
  return queries;
}

// One processor's answers to both workloads; element i answers query i.
struct Answers {
  std::vector<std::vector<BkNNResult>> bknn;
  std::vector<std::vector<TopKResult>> topk;
};

// Answers every query on `processor`, starting at query `start` of each
// workload and wrapping around.
Answers AnswerAll(QueryProcessor& processor,
                  const std::vector<BknnQuery>& bknn,
                  const std::vector<TopKQuery>& topk, std::size_t start) {
  Answers answers;
  answers.bknn.resize(bknn.size());
  answers.topk.resize(topk.size());
  for (std::size_t n = 0; n < bknn.size(); ++n) {
    const std::size_t i = (start + n) % bknn.size();
    const BknnQuery& q = bknn[i];
    answers.bknn[i] = processor.BooleanKnn(q.vertex, q.k, q.keywords, q.op);
  }
  for (std::size_t n = 0; n < topk.size(); ++n) {
    const std::size_t i = (start + n) % topk.size();
    const TopKQuery& q = topk[i];
    answers.topk[i] = processor.TopK(q.vertex, q.k, q.keywords);
  }
  return answers;
}

// Runs both workloads on kThreads threads at once, each on its own
// MakeProcessor() result. Thread t starts a t-th of the way into each
// workload, so the threads run different queries at the same time.
std::vector<Answers> RunOnThreads(const KSpin& engine,
                                  const std::vector<BknnQuery>& bknn,
                                  const std::vector<TopKQuery>& topk) {
  std::vector<Answers> answers(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto processor = engine.MakeProcessor();
      answers[t] =
          AnswerAll(*processor, bknn, topk, t * bknn.size() / kThreads);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return answers;
}

void ExpectSameTopK(const std::vector<TopKResult>& a,
                    const std::vector<TopKResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].object, b[i].object);
    EXPECT_EQ(a[i].distance, b[i].distance);
    // Scores come from identical arithmetic on identical inputs, so exact
    // floating-point equality is the assertion, not a tolerance.
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].relevance, b[i].relevance);
  }
}

void ExpectSamePois(const std::vector<PoiResult>& a,
                    const std::vector<PoiResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].travel_time, b[i].travel_time);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

// Checks that every thread of RunOnThreads answers exactly like the
// engine's own processor run serially, and returns the serial answers.
Answers ExpectThreadsMatchSerial(KSpin& engine,
                                 const std::vector<BknnQuery>& bknn,
                                 const std::vector<TopKQuery>& topk) {
  const Answers serial = AnswerAll(engine.Processor(), bknn, topk, 0);
  const std::vector<Answers> threaded = RunOnThreads(engine, bknn, topk);
  for (unsigned t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < bknn.size(); ++i) {
      EXPECT_EQ(threaded[t].bknn[i], serial.bknn[i])
          << "thread " << t << " bknn query " << i;
    }
    for (std::size_t i = 0; i < topk.size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " top-k query " +
                   std::to_string(i));
      ExpectSameTopK(threaded[t].topk[i], serial.topk[i]);
    }
  }
  return serial;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest()
      : graph_(testing::SmallRoadNetwork()),
        store_(testing::TestDocuments(graph_, kNumKeywords)) {}

  Graph graph_;
  DocumentStore store_;
};

TEST_F(ConcurrencyTest, ThreadsMatchSerialOnDijkstra) {
  DijkstraOracle oracle(graph_);
  KSpin engine(graph_, store_, oracle);
  ExpectThreadsMatchSerial(engine, BknnWorkload(graph_, 48),
                           TopKWorkload(graph_, 48));
}

TEST_F(ConcurrencyTest, ThreadsMatchSerialAndDijkstraOnCh) {
  ContractionHierarchy ch(graph_);
  ChOracle ch_oracle(ch);
  KSpin ch_engine(graph_, store_, ch_oracle);
  DijkstraOracle dijkstra_oracle(graph_);
  KSpin dijkstra_engine(graph_, store_, dijkstra_oracle);

  const auto bknn = BknnWorkload(graph_, 40);
  const auto topk = TopKWorkload(graph_, 40);
  const Answers ch_answers = ExpectThreadsMatchSerial(ch_engine, bknn, topk);
  // CH distances are exact: ground-truth them against Dijkstra.
  const Answers truth =
      AnswerAll(dijkstra_engine.Processor(), bknn, topk, 0);
  for (std::size_t i = 0; i < bknn.size(); ++i) {
    EXPECT_EQ(ch_answers.bknn[i], truth.bknn[i]) << "bknn query " << i;
  }
  for (std::size_t i = 0; i < topk.size(); ++i) {
    SCOPED_TRACE("top-k query " + std::to_string(i));
    ExpectSameTopK(ch_answers.topk[i], truth.topk[i]);
  }
}

TEST_F(ConcurrencyTest, ThreadsMatchSerialOnHubLabels) {
  ContractionHierarchy ch(graph_);
  HubLabeling labels(graph_, ch);
  HubLabelOracle oracle(labels);
  KSpin engine(graph_, store_, oracle);
  ExpectThreadsMatchSerial(engine, BknnWorkload(graph_, 40),
                           TopKWorkload(graph_, 40));
}

// The server's read path: SearchOn / SearchRankedOn on one processor per
// thread must answer like Search / SearchRanked.
TEST_F(ConcurrencyTest, PoiServiceSearchOnThreadsMatchesSearch) {
  ContractionHierarchy ch(graph_);
  ChOracle oracle(ch);
  PoiService service(graph_, oracle);
  const std::vector<std::string> tags = {"cafe", "thai",   "bar",
                                         "museum", "park", "hotel"};
  for (std::uint32_t i = 0; i < 40; ++i) {
    const std::vector<std::string> keywords = {
        tags[i % tags.size()], tags[(i * 3 + 1) % tags.size()]};
    service.AddPoi("poi" + std::to_string(i),
                   static_cast<VertexId>((i * 17 + 2) % graph_.NumVertices()),
                   keywords);
  }

  struct Query {
    std::string text;
    VertexId from;
    std::uint32_t k;
  };
  std::vector<Query> queries;
  for (std::uint32_t i = 0; i < 16; ++i) {
    queries.push_back(
        {"thai and (bar or cafe)",
         static_cast<VertexId>((i * 41 + 3) % graph_.NumVertices()),
         3 + i % 4});
    queries.push_back(
        {"park or museum or hotel",
         static_cast<VertexId>((i * 29 + 7) % graph_.NumVertices()),
         2 + i % 5});
  }

  // boolean[t][i] and ranked[t][i] are thread t's answers to query i.
  std::vector<std::vector<std::vector<PoiResult>>> boolean(kThreads);
  std::vector<std::vector<std::vector<PoiResult>>> ranked(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto processor = service.Engine().MakeProcessor();
      boolean[t].resize(queries.size());
      ranked[t].resize(queries.size());
      for (std::size_t n = 0; n < queries.size(); ++n) {
        const std::size_t i =
            (t * queries.size() / kThreads + n) % queries.size();
        const Query& q = queries[i];
        boolean[t][i] = service.SearchOn(*processor, q.text, q.from, q.k);
        ranked[t][i] =
            service.SearchRankedOn(*processor, q.text, q.from, q.k);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const auto serial = service.Search(q.text, q.from, q.k);
    const auto serial_ranked = service.SearchRanked(q.text, q.from, q.k);
    for (unsigned t = 0; t < kThreads; ++t) {
      SCOPED_TRACE("thread " + std::to_string(t) + " query " +
                   std::to_string(i));
      ExpectSamePois(boolean[t][i], serial);
      ExpectSamePois(ranked[t][i], serial_ranked);
    }
  }
}

// Growing the keyword universe rebuilds the inverted index and relevance
// model that MakeProcessor() results reference, so it must bump the
// generation (the server's workers re-create their processors on that
// signal), and a processor made afterwards must see the new keyword.
TEST_F(ConcurrencyTest, KeywordGrowthBumpsGenerationForNewProcessors) {
  DijkstraOracle oracle(graph_);
  KSpin engine(graph_, store_, oracle);

  const std::uint64_t generation = engine.StructureGeneration();
  const KeywordId fresh = kNumKeywords + 5;
  engine.InsertObject(3, {{fresh, 1}});
  EXPECT_NE(engine.StructureGeneration(), generation);

  std::vector<BknnQuery> bknn(4);
  std::vector<TopKQuery> topk(4);
  for (std::size_t i = 0; i < bknn.size(); ++i) {
    const VertexId vertex = static_cast<VertexId>(i * 19 + 1);
    const std::vector<KeywordId> keywords = {
        fresh, static_cast<KeywordId>(i * 7 % kNumKeywords)};
    bknn[i] = {vertex, 4, keywords, BooleanOp::kDisjunctive};
    topk[i] = {vertex, 4, keywords};
  }
  const Answers facade = AnswerAll(engine.Processor(), bknn, topk, 0);
  const auto processor = engine.MakeProcessor();
  const Answers fresh_answers = AnswerAll(*processor, bknn, topk, 0);
  for (std::size_t i = 0; i < bknn.size(); ++i) {
    ASSERT_FALSE(facade.bknn[i].empty());
    EXPECT_EQ(fresh_answers.bknn[i], facade.bknn[i]) << "bknn query " << i;
    SCOPED_TRACE("top-k query " + std::to_string(i));
    ExpectSameTopK(fresh_answers.topk[i], facade.topk[i]);
  }
  // The inserted object carries only the new keyword; a conjunctive query
  // on it alone must find exactly that object.
  const std::vector<KeywordId> only_fresh = {fresh};
  const auto found =
      processor->BooleanKnn(0, 3, only_fresh, BooleanOp::kConjunctive);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(engine.Store().ObjectVertex(found[0].object), 3u);
}

}  // namespace
}  // namespace kspin
