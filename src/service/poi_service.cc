#include "service/poi_service.h"

#include <algorithm>
#include <cctype>

namespace kspin {
namespace {

std::string Lowercase(std::string_view term) {
  std::string out;
  out.reserve(term.size());
  for (char c : term) {
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

}  // namespace

PoiService::PoiService(const Graph& graph, DistanceOracle& oracle,
                       KSpinOptions options)
    : graph_(&graph), oracle_(&oracle) {
  engine_ = std::make_unique<KSpin>(graph, DocumentStore{}, oracle, options);
}

PoiService::PoiService(const Graph& graph, DistanceOracle& oracle,
                       Vocabulary vocabulary, std::vector<std::string> names,
                       DocumentStore store, std::unique_ptr<AltIndex> alt,
                       std::unique_ptr<KeywordIndex> keyword_index,
                       KSpinOptions options)
    : graph_(&graph),
      oracle_(&oracle),
      vocabulary_(std::move(vocabulary)),
      names_(std::move(names)) {
  engine_ = std::make_unique<KSpin>(graph, std::move(store), oracle,
                                    std::move(alt), std::move(keyword_index),
                                    options, /*initial_generation=*/0);
}

void PoiService::RestoreCatalog(Vocabulary vocabulary,
                                std::vector<std::string> names,
                                DocumentStore store,
                                std::unique_ptr<AltIndex> alt,
                                std::unique_ptr<KeywordIndex> keyword_index,
                                KSpinOptions options) {
  const std::uint64_t next_generation = engine_->StructureGeneration() + 1;
  auto engine = std::make_unique<KSpin>(
      *graph_, std::move(store), *oracle_, std::move(alt),
      std::move(keyword_index), options, next_generation);
  // Only swap once the new engine is fully built: an exception above
  // leaves the service serving the old state.
  vocabulary_ = std::move(vocabulary);
  names_ = std::move(names);
  engine_ = std::move(engine);
}

ObjectId PoiService::AddPoi(std::string_view name, VertexId vertex,
                            std::span<const std::string> keywords) {
  std::vector<DocEntry> document;
  document.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    document.push_back({vocabulary_.AddOrGet(Lowercase(keyword)), 1});
  }
  const ObjectId id = engine_->InsertObject(vertex, std::move(document));
  if (names_.size() <= id) names_.resize(id + 1);
  names_[id] = std::string(name);
  return id;
}

void PoiService::ClosePoi(ObjectId id) { engine_->DeleteObject(id); }

void PoiService::TagPoi(ObjectId id, std::string_view keyword) {
  engine_->AddKeywordToObject(id, vocabulary_.AddOrGet(Lowercase(keyword)));
}

void PoiService::UntagPoi(ObjectId id, std::string_view keyword) {
  const KeywordId t = vocabulary_.IdOf(Lowercase(keyword));
  if (t == kInvalidKeyword) {
    throw std::invalid_argument("UntagPoi: unknown keyword");
  }
  engine_->RemoveKeywordFromObject(id, t);
}

bool PoiService::HasTag(ObjectId id, std::string_view keyword) const {
  if (!engine_->Store().IsLive(id)) return false;
  const KeywordId t = vocabulary_.IdOf(Lowercase(keyword));
  if (t == kInvalidKeyword) return false;
  return engine_->Store().Contains(id, t);
}

std::string PoiService::CanonicalKeyword(std::string_view term) {
  return Lowercase(term);
}

std::vector<PoiResult> PoiService::Search(std::string_view query,
                                          VertexId from, std::uint32_t k,
                                          const QueryControl* control) {
  return SearchOn(engine_->Processor(), query, from, k, control);
}

std::vector<PoiResult> PoiService::SearchRanked(std::string_view query,
                                                VertexId from,
                                                std::uint32_t k,
                                                const QueryControl* control) {
  return SearchRankedOn(engine_->Processor(), query, from, k, control);
}

std::vector<PoiResult> PoiService::SearchOn(
    QueryProcessor& processor, std::string_view query, VertexId from,
    std::uint32_t k, const QueryControl* control, QueryStats* stats) const {
  ParseOptions options;
  options.allow_unknown_keywords = true;
  const ParsedQuery parsed = ParseBooleanQuery(query, vocabulary_, options);
  std::vector<PoiResult> results;
  for (const BkNNResult& r :
       processor.BooleanKnnCnf(from, k, parsed.clauses, stats, control)) {
    results.push_back({r.object, names_[r.object], r.distance, 0.0});
  }
  return results;
}

std::vector<PoiResult> PoiService::SearchRankedOn(
    QueryProcessor& processor, std::string_view query, VertexId from,
    std::uint32_t k, const QueryControl* control, QueryStats* stats) const {
  ParseOptions options;
  options.allow_unknown_keywords = true;
  const ParsedQuery parsed = ParseBooleanQuery(query, vocabulary_, options);
  const std::vector<KeywordId> keywords = parsed.AllKeywords();
  std::vector<PoiResult> results;
  for (const TopKResult& r :
       processor.TopK(from, k, keywords, stats, control)) {
    results.push_back({r.object, names_[r.object], r.distance, r.score});
  }
  return results;
}

}  // namespace kspin
