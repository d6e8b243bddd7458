// PoiService: the batteries-included, string-level facade over the K-SPIN
// engine — named POIs, free-text boolean queries ("thai and (takeaway or
// restaurant)"), ranked search, and live updates. This is the layer a map
// application would link against; everything below it works in dense
// integer ids.
#ifndef KSPIN_SERVICE_POI_SERVICE_H_
#define KSPIN_SERVICE_POI_SERVICE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "kspin/kspin.h"
#include "service/query_parser.h"
#include "text/vocabulary.h"

namespace kspin {

/// One search hit, resolved back to human-level identifiers.
struct PoiResult {
  ObjectId id = kInvalidObject;
  std::string name;
  Distance travel_time = kInfDistance;
  double score = 0.0;  ///< Spatio-textual score (ranked search only).
};

/// String-level spatial keyword search service.
class PoiService {
 public:
  /// Starts with an empty POI catalogue. `oracle` (the Network Distance
  /// Module) must outlive the service.
  PoiService(const Graph& graph, DistanceOracle& oracle,
             KSpinOptions options = {});

  /// Restore constructor: adopts a snapshot-loaded catalogue (vocabulary +
  /// names), document store, and prebuilt engine artifacts instead of
  /// starting empty (see service/service_snapshot.h for the load side).
  PoiService(const Graph& graph, DistanceOracle& oracle,
             Vocabulary vocabulary, std::vector<std::string> names,
             DocumentStore store, std::unique_ptr<AltIndex> alt,
             std::unique_ptr<KeywordIndex> keyword_index,
             KSpinOptions options = {});

  /// Replaces the catalogue and engine with snapshot-loaded state (the
  /// RELOAD opcode). The serving graph and oracle are unchanged. The new
  /// engine's StructureGeneration() strictly exceeds the old one's, so
  /// query processors cached against the previous engine are invalidated,
  /// never aliased. Callers must exclude concurrent queries (the server
  /// holds its exclusive update lock).
  void RestoreCatalog(Vocabulary vocabulary, std::vector<std::string> names,
                      DocumentStore store, std::unique_ptr<AltIndex> alt,
                      std::unique_ptr<KeywordIndex> keyword_index,
                      KSpinOptions options = {});

  /// Registers a POI at `vertex` with keyword tags (interned, lowercase
  /// recommended). Returns its id.
  ObjectId AddPoi(std::string_view name, VertexId vertex,
                  std::span<const std::string> keywords);

  /// Removes a POI from search (the catalogue entry stays for result
  /// resolution of historical ids).
  void ClosePoi(ObjectId id);

  /// Adds / removes one keyword tag on an existing POI.
  void TagPoi(ObjectId id, std::string_view keyword);
  void UntagPoi(ObjectId id, std::string_view keyword);

  /// True when `id` is live and currently carries `keyword`
  /// (case-insensitive, like TagPoi / UntagPoi). Never throws — this is
  /// the validation-side counterpart of UntagPoi.
  bool HasTag(ObjectId id, std::string_view keyword) const;

  /// The canonical (lowercased) form a keyword is interned under.
  static std::string CanonicalKeyword(std::string_view term);

  /// Boolean search with full and/or syntax, nearest-first:
  ///   Search("thai and (takeaway or restaurant)", here, 5).
  /// Unknown keywords make the query unsatisfiable (empty result) rather
  /// than erroring. Throws QueryParseError on bad syntax. A non-null
  /// `control` imposes a deadline / cancellation point on the search;
  /// expiry throws QueryCancelledError.
  std::vector<PoiResult> Search(std::string_view query, VertexId from,
                                std::uint32_t k,
                                const QueryControl* control = nullptr);

  /// Relevance-ranked search: all keywords in `query` contribute to the
  /// weighted-distance score (operators are ignored beyond extracting
  /// keywords).
  std::vector<PoiResult> SearchRanked(std::string_view query, VertexId from,
                                      std::uint32_t k,
                                      const QueryControl* control = nullptr);

  /// Search / SearchRanked on a caller-owned QueryProcessor (from
  /// Engine().MakeProcessor()); Search / SearchRanked run these on the
  /// engine's own processor (KSpin::Processor()).
  /// This is the concurrent-serving entry point: many threads may call
  /// SearchOn simultaneously, each with its own processor, while no update
  /// runs (see docs/architecture.md, "Concurrency model").
  /// A non-null `stats` accumulates the engine's QueryStats counters for
  /// this query (the server folds them into its metrics).
  std::vector<PoiResult> SearchOn(QueryProcessor& processor,
                                  std::string_view query, VertexId from,
                                  std::uint32_t k,
                                  const QueryControl* control = nullptr,
                                  QueryStats* stats = nullptr) const;
  std::vector<PoiResult> SearchRankedOn(
      QueryProcessor& processor, std::string_view query, VertexId from,
      std::uint32_t k, const QueryControl* control = nullptr,
      QueryStats* stats = nullptr) const;

  /// Periodic maintenance (rebuilds saturated keyword indexes).
  std::size_t Maintain() { return engine_->MaintainIndexes(); }

  const std::string& NameOf(ObjectId id) const { return names_.at(id); }
  const std::vector<std::string>& Names() const { return names_; }
  const Vocabulary& Keywords() const { return vocabulary_; }
  KSpin& Engine() { return *engine_; }
  const KSpin& Engine() const { return *engine_; }
  std::size_t NumLivePois() const {
    return engine_->Store().NumLiveObjects();
  }

 private:
  const Graph* graph_ = nullptr;      // For RestoreCatalog.
  DistanceOracle* oracle_ = nullptr;  // For RestoreCatalog.
  Vocabulary vocabulary_;
  std::vector<std::string> names_;  // Indexed by ObjectId.
  std::unique_ptr<KSpin> engine_;
};

}  // namespace kspin

#endif  // KSPIN_SERVICE_POI_SERVICE_H_
