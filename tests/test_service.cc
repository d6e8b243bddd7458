// Service-layer tests: the boolean query parser (grammar, CNF
// normalization, error handling) and the string-level PoiService facade.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>

#include "kspin/query_control.h"
#include "routing/contraction_hierarchy.h"
#include "service/poi_service.h"
#include "service/query_parser.h"
#include "service/service_snapshot.h"
#include "test_util.h"

namespace kspin {
namespace {

class QueryParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thai_ = vocab_.AddOrGet("thai");
    takeaway_ = vocab_.AddOrGet("takeaway");
    restaurant_ = vocab_.AddOrGet("restaurant");
    cafe_ = vocab_.AddOrGet("cafe");
  }

  Vocabulary vocab_;
  KeywordId thai_, takeaway_, restaurant_, cafe_;
};

TEST_F(QueryParserTest, SingleKeyword) {
  const ParsedQuery q = ParseBooleanQuery("thai", vocab_);
  ASSERT_EQ(q.clauses.size(), 1u);
  EXPECT_EQ(q.clauses[0], std::vector<KeywordId>{thai_});
}

TEST_F(QueryParserTest, PaperExampleMixedOperators) {
  // "thai and (takeaway or restaurant)" — the paper's Section 2 example.
  const ParsedQuery q =
      ParseBooleanQuery("thai and (takeaway or restaurant)", vocab_);
  ASSERT_EQ(q.clauses.size(), 2u);
  // Clauses are sorted; the singleton clause sorts after or before
  // depending on content — check as a set.
  bool saw_thai = false, saw_disjunction = false;
  for (const auto& clause : q.clauses) {
    if (clause == std::vector<KeywordId>{thai_}) saw_thai = true;
    std::vector<KeywordId> expected = {takeaway_, restaurant_};
    std::sort(expected.begin(), expected.end());
    if (clause == expected) saw_disjunction = true;
  }
  EXPECT_TRUE(saw_thai);
  EXPECT_TRUE(saw_disjunction);
}

TEST_F(QueryParserTest, JuxtapositionImpliesAnd) {
  const ParsedQuery a = ParseBooleanQuery("thai restaurant", vocab_);
  const ParsedQuery b = ParseBooleanQuery("thai AND restaurant", vocab_);
  EXPECT_EQ(a.clauses, b.clauses);
  EXPECT_EQ(a.clauses.size(), 2u);
}

TEST_F(QueryParserTest, OperatorSynonymsAndCase) {
  const ParsedQuery a = ParseBooleanQuery("thai && (cafe || takeaway)",
                                          vocab_);
  const ParsedQuery b = ParseBooleanQuery("THAI AND (CAFE OR TAKEAWAY)",
                                          vocab_);
  EXPECT_EQ(a.clauses, b.clauses);
}

TEST_F(QueryParserTest, DistributesOrOverAnd) {
  // (thai and cafe) or restaurant ->
  // (thai or restaurant) and (cafe or restaurant).
  const ParsedQuery q =
      ParseBooleanQuery("(thai and cafe) or restaurant", vocab_);
  ASSERT_EQ(q.clauses.size(), 2u);
  for (const auto& clause : q.clauses) {
    EXPECT_TRUE(std::find(clause.begin(), clause.end(), restaurant_) !=
                clause.end());
    EXPECT_EQ(clause.size(), 2u);
  }
}

TEST_F(QueryParserTest, AllKeywordsDeduplicates) {
  const ParsedQuery q =
      ParseBooleanQuery("thai and (thai or cafe)", vocab_);
  const auto all = q.AllKeywords();
  EXPECT_EQ(all.size(), 2u);
}

TEST_F(QueryParserTest, SyntaxErrors) {
  EXPECT_THROW(ParseBooleanQuery("", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("thai and", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("(thai", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("thai )", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("or thai", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("thai ? cafe", vocab_), QueryParseError);
}

TEST_F(QueryParserTest, MoreSyntaxErrorPaths) {
  // Whitespace-only input.
  EXPECT_THROW(ParseBooleanQuery("   \t  ", vocab_), QueryParseError);
  // Operators with no operands at all.
  EXPECT_THROW(ParseBooleanQuery("and", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("or", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("and or", vocab_), QueryParseError);
  // Doubled infix operators.
  EXPECT_THROW(ParseBooleanQuery("thai and and cafe", vocab_),
               QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("thai or or cafe", vocab_),
               QueryParseError);
  // Leading infix operator.
  EXPECT_THROW(ParseBooleanQuery("and thai", vocab_), QueryParseError);
  // Empty and unbalanced groups.
  EXPECT_THROW(ParseBooleanQuery("()", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("thai ()", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("((thai)", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("((thai", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("thai))", vocab_), QueryParseError);
  EXPECT_THROW(ParseBooleanQuery(")(", vocab_), QueryParseError);
  // Dangling operator inside a group.
  EXPECT_THROW(ParseBooleanQuery("(thai or) cafe", vocab_),
               QueryParseError);
  EXPECT_THROW(ParseBooleanQuery("(and thai)", vocab_), QueryParseError);
}

TEST_F(QueryParserTest, ErrorMessagesAreInformative) {
  // The serving layer forwards parser messages to clients verbatim, so
  // they should not be empty.
  try {
    ParseBooleanQuery("((thai", vocab_);
    FAIL() << "expected QueryParseError";
  } catch (const QueryParseError& e) {
    EXPECT_STRNE(e.what(), "");
  }
  try {
    ParseBooleanQuery("sushi", vocab_);
    FAIL() << "expected QueryParseError";
  } catch (const QueryParseError& e) {
    EXPECT_STRNE(e.what(), "");
  }
}

TEST_F(QueryParserTest, DeeplyNestedGroupsParse) {
  const ParsedQuery q = ParseBooleanQuery("((((thai))))", vocab_);
  ASSERT_EQ(q.clauses.size(), 1u);
  EXPECT_EQ(q.clauses[0], std::vector<KeywordId>{thai_});
}

TEST_F(QueryParserTest, UnknownKeywordPolicy) {
  EXPECT_THROW(ParseBooleanQuery("sushi", vocab_), QueryParseError);
  ParseOptions lenient;
  lenient.allow_unknown_keywords = true;
  // Unknown AND anything: unsatisfiable (one empty clause).
  const ParsedQuery q = ParseBooleanQuery("sushi and thai", vocab_,
                                          lenient);
  ASSERT_EQ(q.clauses.size(), 1u);
  EXPECT_TRUE(q.clauses[0].empty());
  // Unknown OR known: reduces to the known keyword.
  const ParsedQuery r = ParseBooleanQuery("sushi or thai", vocab_, lenient);
  ASSERT_EQ(r.clauses.size(), 1u);
  EXPECT_EQ(r.clauses[0], std::vector<KeywordId>{thai_});
}

TEST_F(QueryParserTest, ClauseBlowupIsCapped) {
  ParseOptions tight;
  tight.max_clauses = 3;
  EXPECT_THROW(ParseBooleanQuery(
                   "(thai and cafe) or (takeaway and restaurant)", vocab_,
                   tight),
               QueryParseError);
}

class PoiServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = testing::SmallRoadNetwork(99);
    ch_ = std::make_unique<ContractionHierarchy>(graph_);
    oracle_ = std::make_unique<ChOracle>(*ch_);
    service_ = std::make_unique<PoiService>(graph_, *oracle_);
    const std::vector<std::string> thai_rest = {"thai", "restaurant"};
    const std::vector<std::string> thai_take = {"Thai", "takeaway"};
    const std::vector<std::string> cafe = {"cafe", "bakery"};
    bangkok_ = service_->AddPoi("Bangkok Palace", 10, thai_rest);
    wok_ = service_->AddPoi("Wok Express", 200, thai_take);
    beans_ = service_->AddPoi("Beans", 40, cafe);
  }

  Graph graph_;
  std::unique_ptr<ContractionHierarchy> ch_;
  std::unique_ptr<ChOracle> oracle_;
  std::unique_ptr<PoiService> service_;
  ObjectId bangkok_, wok_, beans_;
};

TEST_F(PoiServiceTest, BooleanStringSearch) {
  const auto hits =
      service_->Search("thai and (takeaway or restaurant)", 15, 5);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].name, "Bangkok Palace");  // Closest to vertex 15.
  EXPECT_EQ(hits[1].name, "Wok Express");
  EXPECT_LE(hits[0].travel_time, hits[1].travel_time);
}

TEST_F(PoiServiceTest, CaseInsensitiveTags) {
  // "Thai" tag on Wok Express was lowercased at insert.
  const auto hits = service_->Search("THAI", 15, 5);
  EXPECT_EQ(hits.size(), 2u);
}

TEST_F(PoiServiceTest, UnknownKeywordsYieldNoResults) {
  EXPECT_TRUE(service_->Search("sushi", 15, 5).empty());
  EXPECT_EQ(service_->Search("sushi or cafe", 15, 5).size(), 1u);
}

TEST_F(PoiServiceTest, RankedSearchScoresAndNames) {
  const auto hits = service_->SearchRanked("thai restaurant", 15, 3);
  ASSERT_FALSE(hits.empty());
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i].score, hits[i - 1].score);
  }
  EXPECT_FALSE(hits[0].name.empty());
}

TEST_F(PoiServiceTest, ExpiredControlCancelsSearch) {
  QueryControl control = QueryControl::AfterMillis(0);  // Already expired.
  EXPECT_THROW(service_->Search("thai", 15, 5, &control),
               QueryCancelledError);
  EXPECT_THROW(service_->SearchRanked("thai restaurant", 15, 5, &control),
               QueryCancelledError);
}

TEST_F(PoiServiceTest, CancelFlagAbortsSearch) {
  std::atomic<bool> cancel{true};
  QueryControl control;
  control.cancel = &cancel;
  EXPECT_THROW(service_->Search("thai", 15, 5, &control),
               QueryCancelledError);

  cancel = false;
  const auto hits = service_->Search("thai", 15, 5, &control);
  EXPECT_EQ(hits.size(), 2u);
}

TEST_F(PoiServiceTest, GenerousDeadlineDoesNotPerturbResults) {
  QueryControl control = QueryControl::AfterMillis(60'000);
  const auto limited = service_->Search("thai", 15, 5, &control);
  const auto unlimited = service_->Search("thai", 15, 5);
  ASSERT_EQ(limited.size(), unlimited.size());
  for (std::size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i].id, unlimited[i].id);
    EXPECT_EQ(limited[i].travel_time, unlimited[i].travel_time);
  }
}

TEST_F(PoiServiceTest, SearchOnMatchesSearch) {
  auto processor = service_->Engine().MakeProcessor();
  const auto on = service_->SearchOn(*processor, "thai", 15, 5);
  const auto direct = service_->Search("thai", 15, 5);
  ASSERT_EQ(on.size(), direct.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i].id, direct[i].id);
    EXPECT_EQ(on[i].travel_time, direct[i].travel_time);
  }
  // SearchOn is lenient about unknown keywords (serving path): no throw.
  EXPECT_TRUE(service_->SearchOn(*processor, "sushi", 15, 5).empty());
}

TEST_F(PoiServiceTest, LifecycleUpdatesAffectSearch) {
  service_->ClosePoi(wok_);
  EXPECT_EQ(service_->Search("thai", 15, 5).size(), 1u);
  service_->TagPoi(beans_, "thai");
  EXPECT_EQ(service_->Search("thai", 15, 5).size(), 2u);
  service_->UntagPoi(beans_, "thai");
  EXPECT_EQ(service_->Search("thai", 15, 5).size(), 1u);
  EXPECT_THROW(service_->UntagPoi(beans_, "nonexistent-keyword"),
               std::invalid_argument);
  EXPECT_EQ(service_->NumLivePois(), 2u);
  service_->Maintain();
  EXPECT_EQ(service_->Search("thai", 15, 5).size(), 1u);
}

TEST(PoiServiceRestoreTest, RestoreCatalogKeepsTheServiceOptions) {
  const Graph graph = testing::SmallRoadNetwork(99);
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  KSpinOptions options;
  options.use_euclidean_heuristic = true;
  PoiService service(graph, oracle, options);
  const std::vector<std::string> tags = {"thai", "restaurant"};
  service.AddPoi("Bangkok Palace", 10, tags);
  const std::string lower_bounds = service.Engine().LowerBounds().Name();
  ASSERT_EQ(lower_bounds, "max(alt,euclidean)");

  // RELOAD's path: snapshot the service, then restore it in place.
  std::stringstream image;
  WriteServiceSnapshot(service, image);
  RestoredServiceState state = ReadServiceSnapshot(image, &graph);
  service.RestoreCatalog(
      std::move(state.catalog.vocabulary), std::move(state.catalog.names),
      std::move(state.store), std::move(state.alt),
      std::move(state.keyword_index));
  EXPECT_EQ(service.Engine().LowerBounds().Name(), lower_bounds);
  EXPECT_EQ(service.Search("thai", 15, 5).size(), 1u);
}

}  // namespace
}  // namespace kspin
