// Round-trip tests for the binary index format: every artifact must load
// back to something query-identical, and malformed streams must fail with
// SerializationError rather than yielding a corrupt index.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <tuple>

#include "common/random.h"
#include "io/binary_format.h"
#include "io/checksum.h"
#include "io/fault_injection.h"
#include "io/serialization.h"
#include "kspin/inverted_heap.h"
#include "kspin/keyword_index.h"
#include "routing/alt.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "test_util.h"
#include "text/inverted_index.h"

namespace kspin {
namespace {

TEST(Serialization, GraphRoundTrip) {
  Graph original = testing::SmallRoadNetwork(61);
  std::stringstream buffer;
  SaveGraph(original, buffer);
  Graph loaded = LoadGraph(buffer);
  ASSERT_EQ(loaded.NumVertices(), original.NumVertices());
  ASSERT_EQ(loaded.NumArcs(), original.NumArcs());
  for (VertexId v = 0; v < original.NumVertices(); ++v) {
    EXPECT_EQ(loaded.VertexCoordinate(v), original.VertexCoordinate(v));
    const auto a = original.Neighbors(v);
    const auto b = loaded.Neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].head, b[i].head);
      EXPECT_EQ(a[i].weight, b[i].weight);
    }
  }
}

TEST(Serialization, DocumentStoreRoundTripWithTombstones) {
  Graph graph = testing::SmallRoadNetwork(62);
  DocumentStore original = testing::TestDocuments(graph);
  original.DeleteObject(3);
  original.AddKeyword(5, 7, 2);
  std::stringstream buffer;
  SaveDocumentStore(original, buffer);
  DocumentStore loaded = LoadDocumentStore(buffer);
  ASSERT_EQ(loaded.NumSlots(), original.NumSlots());
  ASSERT_EQ(loaded.NumLiveObjects(), original.NumLiveObjects());
  for (ObjectId o = 0; o < original.NumSlots(); ++o) {
    ASSERT_EQ(loaded.IsLive(o), original.IsLive(o)) << "o=" << o;
    if (!original.IsLive(o)) continue;
    EXPECT_EQ(loaded.ObjectVertex(o), original.ObjectVertex(o));
    const auto a = original.Document(o);
    const auto b = loaded.Document(o);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].keyword, b[i].keyword);
      EXPECT_EQ(a[i].frequency, b[i].frequency);
    }
  }
}

TEST(Serialization, AltRoundTripPreservesBounds) {
  Graph graph = testing::SmallRoadNetwork(63);
  AltIndex original(graph, 6);
  std::stringstream buffer;
  SaveAltIndex(original, buffer);
  AltIndex loaded = LoadAltIndex(buffer);
  for (VertexId s = 0; s < graph.NumVertices(); s += 13) {
    for (VertexId t = 0; t < graph.NumVertices(); t += 29) {
      EXPECT_EQ(loaded.LowerBound(s, t), original.LowerBound(s, t));
    }
  }
}

// Pins the ALT v2 bytes: magic, version 2, |V|, the landmark list, then
// the vertex-major matrix d[v*m + l] as one length-prefixed array. The
// stream is written by hand from Dijkstra distances, so a layout change
// in the index cannot silently change the snapshot format. The same
// matrix written landmark-major under version 1 must be rejected.
TEST(Serialization, AltLoadsHandWrittenV2StreamAndRejectsV1) {
  Graph graph = testing::SmallRoadNetwork(66);
  AltIndex original(graph, 5);
  const std::size_t n = graph.NumVertices();
  const std::vector<VertexId>& landmarks = original.Landmarks();
  const std::size_t m = landmarks.size();
  std::vector<Distance> vertex_major(n * m), landmark_major(m * n);
  DijkstraWorkspace workspace(n);
  for (std::size_t l = 0; l < m; ++l) {
    const auto& dist = workspace.SingleSource(graph, landmarks[l]);
    for (std::size_t v = 0; v < n; ++v) {
      vertex_major[v * m + l] = dist[v];
      landmark_major[l * n + v] = dist[v];
    }
  }
  const auto stream = [&](std::uint32_t version,
                          const std::vector<Distance>& matrix) {
    std::stringstream out;
    out.write("KSPALTI1", 8);
    io::WritePod<std::uint32_t>(out, version);
    io::WritePod<std::uint64_t>(out, n);
    io::WritePodVector(out, landmarks);
    io::WritePodVector(out, matrix);
    return out.str();
  };

  const std::string v2 = stream(2, vertex_major);
  std::stringstream saved;
  SaveAltIndex(original, saved);
  EXPECT_EQ(saved.str(), v2);

  std::stringstream v2_in(v2);
  AltIndex loaded = LoadAltIndex(v2_in);
  ASSERT_EQ(loaded.Landmarks(), landmarks);
  for (VertexId s = 0; s < n; s += 7) {
    for (VertexId t = 0; t < n; t += 11) {
      ASSERT_EQ(loaded.LowerBound(s, t), original.LowerBound(s, t))
          << "s=" << s << " t=" << t;
    }
  }

  std::stringstream v1_in(stream(1, landmark_major));
  EXPECT_THROW(LoadAltIndex(v1_in), io::SerializationError);
}

TEST(Serialization, AltRejectsUnknownFutureVersion) {
  Graph graph = testing::TinyGrid();
  AltIndex alt(graph, 2);
  std::stringstream buffer;
  SaveAltIndex(alt, buffer);
  std::string bytes = buffer.str();
  const std::uint32_t bogus = 99;
  std::memcpy(bytes.data() + 8, &bogus, sizeof(bogus));  // Version field.
  std::stringstream future(bytes);
  EXPECT_THROW(LoadAltIndex(future), io::SerializationError);
}

TEST(Serialization, ChRoundTripAnswersIdentically) {
  Graph graph = testing::SmallRoadNetwork(64);
  ContractionHierarchy original(graph);
  std::stringstream buffer;
  SaveContractionHierarchy(original, buffer);
  ContractionHierarchy loaded = LoadContractionHierarchy(buffer);
  EXPECT_EQ(loaded.NumShortcuts(), original.NumShortcuts());
  DijkstraWorkspace workspace(graph.NumVertices());
  const auto& dist = workspace.SingleSource(graph, 5);
  for (VertexId t = 0; t < graph.NumVertices(); t += 7) {
    EXPECT_EQ(loaded.Query(5, t), dist[t]) << "t=" << t;
  }
}

TEST(Serialization, HubLabelsRoundTripAnswersIdentically) {
  Graph graph = testing::SmallRoadNetwork(65);
  ContractionHierarchy ch(graph);
  HubLabeling original(graph, ch);
  std::stringstream buffer;
  SaveHubLabeling(original, buffer);
  HubLabeling loaded = LoadHubLabeling(buffer);
  EXPECT_EQ(loaded.AverageLabelSize(), original.AverageLabelSize());
  DijkstraWorkspace workspace(graph.NumVertices());
  const auto& dist = workspace.SingleSource(graph, 9);
  for (VertexId t = 0; t < graph.NumVertices(); t += 11) {
    EXPECT_EQ(loaded.Query(9, t), dist[t]) << "t=" << t;
  }
}

TEST(Serialization, IndependentHubLabelBuildsWriteIdenticalBytes) {
  // Labels carry no padding bytes, so equal labels serialize to equal
  // bytes (stable checksums) whatever the heap held before the build.
  Graph graph = testing::SmallRoadNetwork(66);
  ContractionHierarchy ch(graph);
  std::stringstream first, second;
  SaveHubLabeling(HubLabeling(graph, ch), first);
  SaveHubLabeling(HubLabeling(graph, ch), second);
  EXPECT_EQ(first.str(), second.str());
}

// Pins the hub-label v2 bytes: magic, version 2, the u64 offsets, then the
// {u32 hub, u32 distance} entries, each array length-prefixed. The stream
// is written by hand from the labels' own spans, so a layout change cannot
// silently change the format.
TEST(Serialization, HubLabelsLoadHandWrittenV2Stream) {
  Graph graph = testing::SmallRoadNetwork(68);
  ContractionHierarchy ch(graph);
  HubLabeling original(graph, ch);
  const std::size_t n = original.NumVertices();
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> entries;
  for (VertexId v = 0; v < n; ++v) {
    for (const LabelEntry& e : original.Label(v)) {
      entries.push_back(e.hub);
      entries.push_back(e.distance);
    }
    offsets.push_back(entries.size() / 2);
  }
  std::stringstream hand;
  hand.write("KSPHLBL1", 8);
  io::WritePod<std::uint32_t>(hand, 2);
  io::WritePodVector(hand, offsets);
  io::WritePod<std::uint64_t>(hand, entries.size() / 2);
  hand.write(reinterpret_cast<const char*>(entries.data()),
             static_cast<std::streamsize>(entries.size() * 4));
  std::stringstream saved;
  SaveHubLabeling(original, saved);
  ASSERT_EQ(saved.str(), hand.str());

  HubLabeling loaded = LoadHubLabeling(hand);
  ASSERT_EQ(loaded.NumVertices(), n);
  for (VertexId s = 0; s < n; s += 7) {
    for (VertexId t = 0; t < n; t += 11) {
      ASSERT_EQ(loaded.Query(s, t), original.Query(s, t))
          << "s=" << s << " t=" << t;
    }
  }
}

// Malformed hub-label streams: a v1 header, offsets that do not start at 0
// or decrease, a hub outside the vertex range, and a label out of hub
// order each throw instead of loading a labeling that reads out of bounds.
TEST(Serialization, HubLabelsRejectMalformedStreams) {
  // Three vertices: L(0) = {(0,0), (1,4)}, L(1) = {(1,0)}, L(2) = {(2,0)}.
  const auto stream = [](std::uint32_t version,
                         const std::vector<std::uint64_t>& offsets,
                         const std::vector<LabelEntry>& entries) {
    std::stringstream out;
    out.write("KSPHLBL1", 8);
    io::WritePod<std::uint32_t>(out, version);
    io::WritePodVector(out, offsets);
    io::WritePodVector(out, entries);
    return out.str();
  };
  const std::vector<std::uint64_t> offsets = {0, 2, 3, 4};
  const std::vector<LabelEntry> entries = {{0, 0}, {1, 4}, {1, 0}, {2, 0}};
  const auto load = [](const std::string& bytes) {
    std::stringstream in(bytes);
    return LoadHubLabeling(in);
  };
  EXPECT_EQ(load(stream(2, offsets, entries)).Query(0, 1), 4u);

  EXPECT_THROW(load(stream(1, offsets, entries)), io::SerializationError);
  EXPECT_THROW(load(stream(2, {1, 2, 3, 4}, entries)),
               io::SerializationError);
  EXPECT_THROW(load(stream(2, {0, 3, 2, 4}, entries)),
               io::SerializationError);
  EXPECT_THROW(load(stream(2, offsets, {{0, 0}, {3, 4}, {1, 0}, {2, 0}})),
               io::SerializationError);
  EXPECT_THROW(load(stream(2, offsets, {{1, 4}, {0, 0}, {1, 0}, {2, 0}})),
               io::SerializationError);
}

// Malformed CH streams: offsets that do not start at 0 or decrease, ranks
// that are not a permutation, an arc head out of range or not ranked above
// its tail, and a shortcut mid out of range or not ranked below its arc
// each throw instead of loading a hierarchy that reads out of bounds or
// unpacks forever.
TEST(Serialization, ChRejectsMalformedStreams) {
  // Path 1-0-2 (weights 3, 4) plus the isolated vertex 3, ranks 0 < 1 <
  // 3 < 2: up(0) = {0->1 w3, 0->2 w4}, up(1) = {1->2 w7 via 0}.
  struct Stream {
    std::vector<std::uint32_t> rank = {0, 1, 3, 2};
    std::vector<std::uint64_t> offsets = {0, 2, 3, 3, 3};
    std::vector<Arc> arcs = {{1, 3}, {2, 4}, {2, 7}};
    std::vector<VertexId> mids = {kInvalidVertex, kInvalidVertex, 0};
  };
  const auto load = [](const Stream& stream) {
    std::stringstream in;
    in.write("KSPCHIX1", 8);
    io::WritePod<std::uint32_t>(in, 1);
    io::WritePodVector(in, stream.rank);
    io::WritePodVector(in, stream.offsets);
    io::WritePodVector(in, stream.arcs);
    io::WritePodVector(in, stream.mids);
    io::WritePod<std::uint64_t>(in, 1);
    return LoadContractionHierarchy(in);
  };
  const ContractionHierarchy valid = load(Stream{});
  EXPECT_EQ(valid.Query(1, 2), 7u);
  EXPECT_EQ(valid.PathQuery(1, 2), (std::vector<VertexId>{1, 0, 2}));

  Stream broken;
  broken.offsets = {1, 2, 3, 3, 3};  // Does not start at 0.
  EXPECT_THROW(load(broken), io::SerializationError);
  broken = Stream{};
  broken.offsets = {0, 2, 1, 3, 3};  // Decreases.
  EXPECT_THROW(load(broken), io::SerializationError);
  broken = Stream{};
  broken.rank = {0, 1, 4, 2};  // A rank >= n.
  EXPECT_THROW(load(broken), io::SerializationError);
  broken = Stream{};
  broken.rank = {0, 1, 3, 1};  // A repeated rank.
  EXPECT_THROW(load(broken), io::SerializationError);
  broken = Stream{};
  broken.arcs[1].head = 4;  // Head >= n.
  EXPECT_THROW(load(broken), io::SerializationError);
  broken = Stream{};
  broken.arcs[0].head = 0;  // Head not ranked above its tail.
  EXPECT_THROW(load(broken), io::SerializationError);
  broken = Stream{};
  broken.mids[2] = 9;  // Mid >= n.
  EXPECT_THROW(load(broken), io::SerializationError);
  broken = Stream{};
  broken.mids[2] = 1;  // Mid not ranked below its arc's tail.
  EXPECT_THROW(load(broken), io::SerializationError);
}

TEST(Serialization, RejectsWrongMagic) {
  Graph graph = testing::TinyGrid();
  std::stringstream buffer;
  SaveGraph(graph, buffer);
  EXPECT_THROW(LoadHubLabeling(buffer), io::SerializationError);
}

TEST(Serialization, RejectsTruncatedStream) {
  Graph graph = testing::SmallRoadNetwork(66);
  std::stringstream buffer;
  SaveGraph(graph, buffer);
  const std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(LoadGraph(truncated), io::SerializationError);
}

TEST(Serialization, RejectsCorruptedArcHeads) {
  Graph graph = testing::TinyGrid();
  std::stringstream buffer;
  SaveGraph(graph, buffer);
  std::string bytes = buffer.str();
  // Smash the middle of the arc array with large values (16 bytes covers
  // at least one full Arc regardless of alignment, so some head corrupts).
  for (std::size_t i = bytes.size() / 2; i < bytes.size() / 2 + 16; ++i) {
    bytes[i] = static_cast<char>(0xFF);
  }
  std::stringstream corrupted(bytes);
  EXPECT_THROW(LoadGraph(corrupted), io::SerializationError);
}

TEST(Serialization, EmptyDocumentStoreRoundTrip) {
  DocumentStore empty;
  std::stringstream buffer;
  SaveDocumentStore(empty, buffer);
  DocumentStore loaded = LoadDocumentStore(buffer);
  EXPECT_EQ(loaded.NumSlots(), 0u);
  EXPECT_EQ(loaded.NumLiveObjects(), 0u);
}

TEST(Serialization, KeywordIndexRoundTripQueryIdentical) {
  Graph graph = testing::SmallRoadNetwork(67);
  DocumentStore store = testing::TestDocuments(graph);
  KeywordId max_keyword = 0;
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    if (!store.IsLive(o)) continue;
    for (const DocEntry& e : store.Document(o)) {
      max_keyword = std::max(max_keyword, e.keyword);
    }
  }
  InvertedIndex inverted(store, max_keyword + 1);
  KeywordIndexOptions options;
  options.num_threads = 2;
  KeywordIndex original(graph, store, inverted, options);

  std::stringstream buffer;
  SaveKeywordIndex(original, buffer);
  KeywordIndex loaded = LoadKeywordIndex(graph, buffer);

  ASSERT_EQ(loaded.NumIndexes(), original.NumIndexes());
  EXPECT_EQ(loaded.NumVoronoiIndexes(), original.NumVoronoiIndexes());
  // Every per-keyword index must supply the same heap candidates.
  auto candidates = [](const ApxNvd& nvd, VertexId v) {
    std::vector<std::pair<ObjectId, VertexId>> out;
    for (const SiteObject& s : testing::InitialObjects(nvd, v)) {
      out.emplace_back(s.object, s.vertex);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (KeywordId t = 0; t <= max_keyword; ++t) {
    const ApxNvd* a = original.Index(t);
    const ApxNvd* b = loaded.Index(t);
    ASSERT_EQ(a == nullptr, b == nullptr) << "t=" << t;
    if (a == nullptr) continue;
    ASSERT_EQ(a->NumLiveObjects(), b->NumLiveObjects()) << "t=" << t;
    ASSERT_EQ(a->HasVoronoi(), b->HasVoronoi()) << "t=" << t;
    for (VertexId v = 0; v < graph.NumVertices(); v += 7) {
      ASSERT_EQ(candidates(*a, v), candidates(*b, v))
          << "t=" << t << " v=" << v;
    }
  }
}

// A keyword index in lazy state, over a store of 40 Zipfian keywords
// whose every fourth object has a twin on its vertex (colocated members in
// Voronoi and flat indexes): 80 random lazy inserts over 48 keywords
// (every third on an existing object's vertex; keywords without objects
// get flat indexes), a tombstone for every fifth object of each list, and
// one revive (a keyword removed from an object and re-added).
constexpr KeywordId kLazyKeywords = 48;

KeywordIndex LazyKeywordIndex(const Graph& graph, DistanceOracle& oracle) {
  constexpr KeywordId kKeywords = kLazyKeywords;
  DocumentStore store = testing::TestDocuments(graph, 40, 0.2, 73);
  const auto base = static_cast<ObjectId>(store.NumSlots());
  for (ObjectId o = 0; o < base; o += 4) {
    const KeywordId t = store.Document(o).front().keyword;
    store.AddObject(store.ObjectVertex(o), {{t, 1}});
  }
  InvertedIndex inverted(store, kKeywords);
  KeywordIndexOptions options;
  options.nvd.rho = 3;
  options.num_threads = 2;
  KeywordIndex index(graph, store, inverted, options);

  Rng rng(74);
  auto next = static_cast<ObjectId>(store.NumSlots());
  for (int i = 0; i < 80; ++i) {
    const auto t = static_cast<KeywordId>(rng.UniformInt(0, kKeywords - 1));
    const std::span<const ObjectId> list = inverted.Objects(t);
    const VertexId v =
        i % 3 == 0 && !list.empty()
            ? store.ObjectVertex(list[i % list.size()])
            : static_cast<VertexId>(
                  rng.UniformInt(0, graph.NumVertices() - 1));
    const std::vector<KeywordId> keywords = {t};
    index.OnObjectInserted(next++, v, keywords, oracle);
  }
  KeywordId busiest = 0;
  for (KeywordId t = 0; t < kKeywords; ++t) {
    const std::span<const ObjectId> list = inverted.Objects(t);
    for (std::size_t i = 0; i < list.size(); i += 5) {
      index.OnKeywordRemoved(list[i], t);
    }
    if (list.size() > inverted.ListSize(busiest)) busiest = t;
  }
  const ObjectId revived = inverted.Objects(busiest).front();
  index.OnKeywordAdded(revived, store.ObjectVertex(revived), busiest, oracle);
  return index;
}

struct Pop {
  ObjectId object;
  Distance lower_bound;
  bool deleted;
  bool operator==(const Pop&) const = default;
};

struct Drained {
  std::vector<Pop> pops;
  HeapStats stats;
};

Drained DrainHeap(const ApxNvd& nvd, const LowerBoundModule& lower_bounds,
                  VertexId q) {
  Drained out;
  InvertedHeap heap(&nvd, &lower_bounds, q);
  while (!heap.Empty()) {
    const InvertedHeap::Candidate c = heap.ExtractMin();
    out.pops.push_back({c.object, c.lower_bound, c.deleted});
  }
  out.stats = heap.Stats();
  return out;
}

// The order a lazily populated heap must extract in: the least
// (lower_bound, object) among the members supplied so far, where the
// supply is the index's initial members plus the expansion of every
// extracted one — an ordered set fed through the same member API.
std::vector<Pop> ReferenceOrder(const ApxNvd& nvd,
                                const LowerBoundModule& lower_bounds,
                                VertexId q) {
  std::set<std::tuple<Distance, ObjectId, std::uint32_t>> open;
  std::vector<bool> supplied(nvd.NumMembers(), false);
  auto supply = [&](std::uint32_t m) {
    if (supplied[m]) return;
    supplied[m] = true;
    const SiteObject& site = nvd.Member(m);
    open.emplace(lower_bounds.LowerBound(q, site.vertex), site.object, m);
  };
  std::vector<std::uint32_t> initial;
  nvd.InitialMembers(q, &initial);
  for (std::uint32_t m : initial) supply(m);
  std::vector<Pop> pops;
  while (!open.empty()) {
    const auto [lower_bound, object, member] = *open.begin();
    open.erase(open.begin());
    nvd.ForEachExpansion(member, supply);
    pops.push_back({object, lower_bound, nvd.IsDeletedMember(member)});
  }
  return pops;
}

// The member table is derived on load from the keyword-index section,
// whose bytes are unchanged: a lazy-state index must extract the same
// (object, lower bound, deleted) sequence with the same heap counters
// after a round trip, every sequence must yield each live and tombstoned
// object exactly once in the (lower_bound, object) order of its supply,
// and re-saving the loaded index must reproduce the bytes.
TEST(Serialization, KeywordIndexLazyStateRoundTripExtractsIdentically) {
  Graph graph = testing::SmallRoadNetwork(69);
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  AltIndex alt(graph, 8);
  KeywordIndex original = LazyKeywordIndex(graph, oracle);
  std::stringstream buffer;
  SaveKeywordIndex(original, buffer);
  const std::string bytes = buffer.str();
  // CRC32C of the section written by the object-keyed layout this member
  // table replaced, for the same fixture: everything past the header, the
  // options and the build time (36 bytes).
  EXPECT_EQ(io::Crc32c(std::string_view(bytes).substr(36)), 3576367584u);
  KeywordIndex loaded = LoadKeywordIndex(graph, buffer);
  std::stringstream resaved;
  SaveKeywordIndex(loaded, resaved);
  EXPECT_EQ(resaved.str(), bytes);

  std::size_t voronoi = 0;
  std::size_t flat = 0;
  std::size_t tombstones = 0;
  for (KeywordId t = 0; t < kLazyKeywords; ++t) {
    const ApxNvd* a = original.Index(t);
    const ApxNvd* b = loaded.Index(t);
    ASSERT_EQ(a == nullptr, b == nullptr) << "t=" << t;
    if (a == nullptr) continue;
    ++(a->HasVoronoi() ? voronoi : flat);
    ASSERT_EQ(a->HasVoronoi(), b->HasVoronoi()) << "t=" << t;
    ASSERT_EQ(a->NumLiveObjects(), b->NumLiveObjects()) << "t=" << t;
    for (VertexId q = 0; q < graph.NumVertices(); q += 37) {
      const Drained before = DrainHeap(*a, alt, q);
      const Drained after = DrainHeap(*b, alt, q);
      ASSERT_EQ(before.pops, after.pops) << "t=" << t << " q=" << q;
      EXPECT_EQ(before.stats.lower_bounds_computed,
                after.stats.lower_bounds_computed);
      EXPECT_EQ(before.stats.insertions, after.stats.insertions);
      EXPECT_EQ(before.stats.extractions, after.stats.extractions);
      EXPECT_EQ(before.stats.lb_batch_calls, after.stats.lb_batch_calls);
      EXPECT_EQ(before.stats.lb_batch_items, after.stats.lb_batch_items);

      const std::vector<Pop>& pops = before.pops;
      ASSERT_EQ(pops, ReferenceOrder(*a, alt, q)) << "t=" << t << " q=" << q;
      ASSERT_EQ(pops.size(), a->NumMembers()) << "t=" << t << " q=" << q;
      std::set<ObjectId> seen;
      std::size_t dead = 0;
      for (const Pop& pop : pops) {
        EXPECT_TRUE(seen.insert(pop.object).second);
        EXPECT_EQ(pop.deleted, a->IsDeleted(pop.object));
        dead += pop.deleted ? 1 : 0;
      }
      EXPECT_EQ(pops.size() - dead, a->NumLiveObjects());
      if (q == 0) tombstones += dead;
    }
  }
  EXPECT_GT(voronoi, 0u);
  EXPECT_GT(flat, 0u);
  EXPECT_GT(tombstones, 0u);
}

// Hand-written flat ApxNvd sections (two sites, object 7 attached to site
// 0's node): the loader derives the member table and rejects sections
// whose attachment lists, attached-object nodes and tombstones disagree.
TEST(Serialization, ApxNvdLoaderRejectsInconsistentMemberTables) {
  Graph graph = testing::TinyGrid();
  using Attached = std::pair<ObjectId, std::vector<std::uint32_t>>;
  const auto stream = [](const std::vector<std::vector<SiteObject>>& lists,
                         const std::vector<Attached>& attached,
                         const std::vector<ObjectId>& deleted) {
    std::stringstream out;
    for (std::uint32_t field : {5u, 0u, 16u, 64u}) io::WritePod(out, field);
    io::WritePodVector(out, std::vector<SiteObject>{{0, 1}, {1, 2}});
    io::WritePod<std::uint64_t>(out, 0);            // Adjacency lists.
    io::WritePodVector(out, std::vector<Distance>{});  // Radii.
    io::WritePod<std::uint8_t>(out, 0);             // Flat: no storage.
    io::WritePod<std::uint64_t>(out, lists.size());
    for (const auto& list : lists) io::WritePodVector(out, list);
    io::WritePod<std::uint64_t>(out, attached.size());
    for (const auto& [object, nodes] : attached) {
      io::WritePod(out, object);
      io::WritePodVector(out, nodes);
    }
    io::WritePodVector(out, deleted);
    io::WritePod<std::uint64_t>(out, 0);  // Lazy inserts.
    io::WritePod<std::uint64_t>(out, 0);  // Last affected set size.
    return out.str();
  };
  const auto load = [&graph](const std::string& bytes) {
    std::stringstream in(bytes);
    return LoadApxNvd(graph, in);
  };
  const std::vector<std::vector<SiteObject>> lists = {{{7, 1}}, {}};
  const std::vector<Attached> attached = {{7, {0}}};

  const auto nvd = load(stream(lists, attached, {1}));
  ASSERT_EQ(nvd->NumMembers(), 3u);
  EXPECT_EQ(nvd->Member(2).object, 7u);
  EXPECT_EQ(nvd->Member(2).vertex, 1u);
  EXPECT_TRUE(nvd->IsDeleted(1));
  EXPECT_EQ(nvd->NumLiveObjects(), 2u);
  EXPECT_EQ(testing::InitialObjects(*nvd, 0).size(), 3u);

  const auto rejects = [&](const std::string& bytes) {
    EXPECT_THROW(load(bytes), io::SerializationError);
  };
  rejects(stream({{{8, 1}}, {}}, attached, {}));           // Unknown object.
  rejects(stream({{{0, 1}}, {}}, attached, {}));           // A site attached.
  rejects(stream({{{7, 1}}, {{7, 2}}}, {{7, {0, 1}}}, {}));  // Two vertices.
  rejects(stream({{{7, 9}}, {}}, attached, {}));           // Vertex range.
  rejects(stream(lists, {{7, {0, 1}}}, {}));               // Missing entry.
  rejects(stream({{}, {}}, {{7, {}}}, {}));                // No vertex.
  rejects(stream(lists, attached, {99}));                  // Unknown tombstone.
  rejects(stream(lists, attached, {1, 1}));                // Tombstoned twice.
}

TEST(Serialization, PoiCatalogRoundTrip) {
  PoiCatalog original;
  original.vocabulary.AddOrGet("cafe");
  original.vocabulary.AddOrGet("thai");
  original.vocabulary.AddOrGet("wifi");
  original.names = {"First Cafe", "", "Thai Palace"};

  std::stringstream buffer;
  SavePoiCatalog(original, buffer);
  PoiCatalog loaded = LoadPoiCatalog(buffer);

  ASSERT_EQ(loaded.vocabulary.Size(), original.vocabulary.Size());
  EXPECT_EQ(loaded.vocabulary.IdOf("cafe"), original.vocabulary.IdOf("cafe"));
  EXPECT_EQ(loaded.vocabulary.IdOf("thai"), original.vocabulary.IdOf("thai"));
  EXPECT_EQ(loaded.vocabulary.IdOf("wifi"), original.vocabulary.IdOf("wifi"));
  EXPECT_EQ(loaded.names, original.names);
}

TEST(Serialization, HugeLengthFieldRejectedWithoutAllocating) {
  // A corrupt length field must not make the loader allocate hundreds of
  // gigabytes: chunked reads hit end-of-stream long before that.
  PoiCatalog catalog;
  catalog.vocabulary.AddOrGet("cafe");
  catalog.names = {"a"};
  std::stringstream buffer;
  SavePoiCatalog(catalog, buffer);
  std::string bytes = buffer.str();
  // The term count is the first u64 after the 16-byte artifact header.
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
  std::stringstream corrupt(bytes);
  EXPECT_THROW(LoadPoiCatalog(corrupt), io::SerializationError);
}

TEST(Serialization, WriteFailurePropagatesFromEverySaver) {
  Graph graph = testing::TinyGrid();
  DocumentStore store = testing::TestDocuments(graph, 10, 0.5, 5);
  AltIndex alt(graph, 3);
  std::ostringstream sink;
  io::StreamFaultPlan plan;
  plan.fail_after = 10;  // Fail almost immediately: ENOSPC / EIO.
  {
    io::FaultyOStream faulty(sink, plan);
    EXPECT_THROW(SaveGraph(graph, faulty), io::SerializationError);
  }
  {
    io::FaultyOStream faulty(sink, plan);
    EXPECT_THROW(SaveDocumentStore(store, faulty), io::SerializationError);
  }
  {
    io::FaultyOStream faulty(sink, plan);
    EXPECT_THROW(SaveAltIndex(alt, faulty), io::SerializationError);
  }
}

}  // namespace
}  // namespace kspin
