#include "io/serialization.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <memory>
#include <ostream>

#include "io/binary_format.h"

namespace kspin {
namespace {

constexpr char kGraphMagic[8] = {'K', 'S', 'P', 'G', 'R', 'P', 'H', '1'};
constexpr char kStoreMagic[8] = {'K', 'S', 'P', 'D', 'O', 'C', 'S', '1'};
constexpr char kAltMagic[8] = {'K', 'S', 'P', 'A', 'L', 'T', 'I', '1'};
constexpr char kChMagic[8] = {'K', 'S', 'P', 'C', 'H', 'I', 'X', '1'};
constexpr char kHlMagic[8] = {'K', 'S', 'P', 'H', 'L', 'B', 'L', '1'};
constexpr char kKwixMagic[8] = {'K', 'S', 'P', 'K', 'W', 'I', 'X', '1'};
constexpr char kCatalogMagic[8] = {'K', 'S', 'P', 'P', 'C', 'A', 'T', '1'};
constexpr std::uint32_t kVersion = 1;
/// ALT format v2: the vertex-major matrix d[v*m + l]. v1 (landmark-major)
/// is rejected like any unknown version.
constexpr std::uint32_t kAltVersion = 2;
/// Hub labels v2: 8-byte {u32 hub, u32 distance} entries. v1 (16-byte
/// entries with a u64 distance) is rejected like any unknown version.
constexpr std::uint32_t kHlVersion = 2;

}  // namespace

void SaveGraph(const Graph& graph, std::ostream& out) {
  io::WriteHeader(out, kGraphMagic, kVersion);
  io::WritePodVector(out, graph.offsets_);
  io::WritePodVector(out, graph.arcs_);
  io::WritePodVector(out, graph.coordinates_);
}

Graph LoadGraph(std::istream& in) {
  io::CheckHeader(in, kGraphMagic, kVersion);
  Graph graph;
  graph.offsets_ = io::ReadPodVector<std::size_t>(in);
  graph.arcs_ = io::ReadPodVector<Arc>(in);
  graph.coordinates_ = io::ReadPodVector<Coordinate>(in);
  if (graph.offsets_.empty() ||
      graph.offsets_.back() != graph.arcs_.size() ||
      (!graph.coordinates_.empty() &&
       graph.coordinates_.size() != graph.offsets_.size() - 1)) {
    throw io::SerializationError("inconsistent graph arrays");
  }
  for (const Arc& arc : graph.arcs_) {
    if (arc.head >= graph.offsets_.size() - 1) {
      throw io::SerializationError("arc head out of range");
    }
  }
  return graph;
}

void SaveDocumentStore(const DocumentStore& store, std::ostream& out) {
  io::WriteHeader(out, kStoreMagic, kVersion);
  io::WritePod<std::uint64_t>(out, store.NumSlots());
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    const bool live = store.IsLive(o);
    io::WritePod<std::uint8_t>(out, live ? 1 : 0);
    io::WritePod<std::uint32_t>(out, live ? store.ObjectVertex(o) : 0);
    const auto doc = store.Document(o);
    io::WritePod<std::uint64_t>(out, doc.size());
    for (const DocEntry& e : doc) {
      io::WritePod(out, e.keyword);
      io::WritePod(out, e.frequency);
    }
  }
}

DocumentStore LoadDocumentStore(std::istream& in) {
  io::CheckHeader(in, kStoreMagic, kVersion);
  DocumentStore store;
  const auto num_slots = io::ReadPod<std::uint64_t>(in);
  for (std::uint64_t o = 0; o < num_slots; ++o) {
    const bool live = io::ReadPod<std::uint8_t>(in) != 0;
    const auto vertex = io::ReadPod<std::uint32_t>(in);
    const auto doc_size = io::ReadPod<std::uint64_t>(in);
    std::vector<DocEntry> document;
    document.reserve(doc_size);
    for (std::uint64_t i = 0; i < doc_size; ++i) {
      DocEntry entry;
      entry.keyword = io::ReadPod<KeywordId>(in);
      entry.frequency = io::ReadPod<std::uint32_t>(in);
      document.push_back(entry);
    }
    // Tombstoned slots keep their ids: add then delete. Their documents
    // were cleared at deletion, so a placeholder entry is enough.
    const ObjectId id = store.AddObject(vertex, std::move(document));
    if (!live) store.DeleteObject(id);
  }
  return store;
}

void SaveAltIndex(const AltIndex& alt, std::ostream& out) {
  io::WriteHeader(out, kAltMagic, kAltVersion);
  io::WritePod<std::uint64_t>(out, alt.num_vertices_);
  io::WritePodVector(out, alt.landmarks_);
  io::WritePodVector(out, alt.distances_);
}

AltIndex LoadAltIndex(std::istream& in) {
  io::CheckHeader(in, kAltMagic, kAltVersion);
  AltIndex alt;
  alt.num_vertices_ = io::ReadPod<std::uint64_t>(in);
  alt.landmarks_ = io::ReadPodVector<VertexId>(in);
  alt.distances_ = io::ReadPodVectorAs<AlignedVector<Distance>>(in);
  if (alt.distances_.size() != alt.landmarks_.size() * alt.num_vertices_) {
    throw io::SerializationError("inconsistent ALT arrays");
  }
  return alt;
}

void SaveContractionHierarchy(const ContractionHierarchy& ch,
                              std::ostream& out) {
  io::WriteHeader(out, kChMagic, kVersion);
  io::WritePodVector(out, ch.rank_);
  io::WritePodVector(out, ch.up_offsets_);
  io::WritePodVector(out, ch.up_arcs_);
  io::WritePodVector(out, ch.up_mids_);
  io::WritePod<std::uint64_t>(out, ch.num_shortcuts_);
}

ContractionHierarchy LoadContractionHierarchy(std::istream& in) {
  io::CheckHeader(in, kChMagic, kVersion);
  ContractionHierarchy ch;
  ch.rank_ = io::ReadPodVector<std::uint32_t>(in);
  ch.up_offsets_ = io::ReadPodVector<std::size_t>(in);
  ch.up_arcs_ = io::ReadPodVector<Arc>(in);
  ch.up_mids_ = io::ReadPodVector<VertexId>(in);
  ch.num_shortcuts_ = io::ReadPod<std::uint64_t>(in);
  const std::size_t n = ch.rank_.size();
  const std::vector<std::size_t>& offsets = ch.up_offsets_;
  if (offsets.size() != n + 1 || offsets.front() != 0 ||
      !std::ranges::is_sorted(offsets) ||
      offsets.back() != ch.up_arcs_.size() ||
      ch.up_mids_.size() != ch.up_arcs_.size()) {
    throw io::SerializationError("inconsistent CH arrays");
  }
  // Ranks are a permutation of 0..n-1 (VerticesByDescendingRank indexes
  // by rank); every arc leads to a vertex ranked above its tail, and every
  // shortcut's mid is ranked below both ends, so unpacking terminates.
  std::vector<bool> rank_taken(n, false);
  for (const std::uint32_t r : ch.rank_) {
    if (r >= n || rank_taken[r]) {
      throw io::SerializationError("CH ranks are not a permutation");
    }
    rank_taken[r] = true;
  }
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId head = ch.up_arcs_[i].head;
      const VertexId mid = ch.up_mids_[i];
      if (head >= n || ch.rank_[head] <= ch.rank_[v] ||
          (mid != kInvalidVertex &&
           (mid >= n || ch.rank_[mid] >= ch.rank_[v]))) {
        throw io::SerializationError("CH arc out of range or rank order");
      }
    }
  }
  return ch;
}

void SaveHubLabeling(const HubLabeling& labels, std::ostream& out) {
  io::WriteHeader(out, kHlMagic, kHlVersion);
  io::WritePodVector(out, labels.offsets_);
  io::WritePodVector(out, labels.entries_);
}

HubLabeling LoadHubLabeling(std::istream& in) {
  io::CheckHeader(in, kHlMagic, kHlVersion);
  HubLabeling labels;
  labels.offsets_ = io::ReadPodVector<std::size_t>(in);
  labels.entries_ = io::ReadPodVector<LabelEntry>(in);
  const std::vector<std::size_t>& offsets = labels.offsets_;
  if (offsets.empty() || offsets.front() != 0 ||
      !std::ranges::is_sorted(offsets) ||
      offsets.back() != labels.entries_.size()) {
    throw io::SerializationError("inconsistent hub label arrays");
  }
  // Every hub is a vertex, and each label is strictly increasing in hub
  // (the merge join relies on that order).
  const std::vector<LabelEntry>& entries = labels.entries_;
  for (std::size_t v = 0; v < labels.NumVertices(); ++v) {
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (entries[i].hub >= labels.NumVertices() ||
          (i > offsets[v] && entries[i].hub <= entries[i - 1].hub)) {
        throw io::SerializationError("hub label out of order or range");
      }
    }
  }
  return labels;
}

// ----- Keyword Separated Index ---------------------------------------------
//
// The keyword index is a forest of per-keyword ApxNvds, each of which may
// own a colour quadtree or R-tree. These have no standalone magic: they
// appear only nested inside the KSPKWIX1 artifact (or a snapshot section),
// whose header/CRC already frames them.

void SaveColorQuadtree(const ColorQuadtree& tree, std::ostream& out) {
  io::WritePod(out, tree.origin_x_);
  io::WritePod(out, tree.origin_y_);
  io::WritePod(out, tree.scale_);
  io::WritePod(out, tree.grid_bits_);
  io::WritePod(out, tree.max_leaf_depth_);
  io::WritePodVector(out, tree.leaves_);
  io::WritePodVector(out, tree.color_pool_);
}

ColorQuadtree LoadColorQuadtree(std::istream& in) {
  ColorQuadtree tree;
  tree.origin_x_ = io::ReadPod<double>(in);
  tree.origin_y_ = io::ReadPod<double>(in);
  tree.scale_ = io::ReadPod<double>(in);
  tree.grid_bits_ = io::ReadPod<std::uint32_t>(in);
  tree.max_leaf_depth_ = io::ReadPod<std::uint32_t>(in);
  tree.leaves_ = io::ReadPodVectorAs<AlignedVector<ColorQuadtree::Leaf>>(in);
  tree.color_pool_ = io::ReadPodVectorAs<AlignedVector<std::uint32_t>>(in);
  if (!std::isfinite(tree.scale_) || tree.scale_ <= 0 ||
      tree.grid_bits_ == 0 || tree.grid_bits_ > 32) {
    throw io::SerializationError("quadtree geometry out of range");
  }
  for (const auto& leaf : tree.leaves_) {
    if (leaf.z_begin >= leaf.z_end ||
        leaf.color_offset > tree.color_pool_.size() ||
        leaf.color_count > tree.color_pool_.size() - leaf.color_offset) {
      throw io::SerializationError("quadtree leaf out of bounds");
    }
  }
  return tree;
}

void SaveVoronoiRTree(const VoronoiRTree& tree, std::ostream& out) {
  io::WritePodVector(out, tree.nodes_);
  io::WritePodVector(out, tree.children_);
  io::WritePod(out, tree.root_);
  io::WritePod<std::uint64_t>(out, tree.num_colors_);
}

VoronoiRTree LoadVoronoiRTree(std::istream& in) {
  VoronoiRTree tree;
  tree.nodes_ = io::ReadPodVector<VoronoiRTree::Node>(in);
  tree.children_ = io::ReadPodVector<std::uint32_t>(in);
  tree.root_ = io::ReadPod<std::uint32_t>(in);
  tree.num_colors_ =
      static_cast<std::size_t>(io::ReadPod<std::uint64_t>(in));
  if (tree.nodes_.empty() || tree.root_ >= tree.nodes_.size()) {
    throw io::SerializationError("r-tree root out of range");
  }
  for (const auto& node : tree.nodes_) {
    if (node.num_children == 0) continue;  // Leaf entry.
    if (node.child_begin > tree.children_.size() ||
        node.num_children > tree.children_.size() - node.child_begin) {
      throw io::SerializationError("r-tree child range out of bounds");
    }
  }
  for (std::uint32_t child : tree.children_) {
    if (child >= tree.nodes_.size()) {
      throw io::SerializationError("r-tree child index out of range");
    }
  }
  return tree;
}

void SaveApxNvd(const ApxNvd& nvd, std::ostream& out) {
  io::WritePod(out, nvd.options_.rho);
  io::WritePod(out, static_cast<std::uint32_t>(nvd.options_.storage));
  io::WritePod(out, nvd.options_.quadtree_max_depth);
  io::WritePod(out, nvd.options_.lazy_insert_threshold);

  io::WritePodVector(out, nvd.sites_);
  io::WritePod<std::uint64_t>(out, nvd.adjacency_.NumLists());
  for (std::size_t i = 0; i < nvd.adjacency_.NumLists(); ++i) {
    io::WritePodSpan<std::uint32_t>(out, nvd.adjacency_[i]);
  }
  io::WritePodVector(out, nvd.max_radius_);

  std::uint8_t storage_tag = 0;
  if (nvd.quadtree_ != nullptr) storage_tag = 1;
  if (nvd.rtree_ != nullptr) storage_tag = 2;
  io::WritePod(out, storage_tag);
  if (nvd.quadtree_ != nullptr) SaveColorQuadtree(*nvd.quadtree_, out);
  if (nvd.rtree_ != nullptr) SaveVoronoiRTree(*nvd.rtree_, out);

  io::WritePod<std::uint64_t>(out, nvd.attachments_.size());
  for (const auto& list : nvd.attachments_) io::WritePodVector(out, list);

  // Sort hash-ordered containers so identical state yields identical bytes
  // (snapshot files are byte-comparable across runs).
  std::vector<std::pair<ObjectId, std::vector<std::uint32_t>>> attached(
      nvd.attached_nodes_.begin(), nvd.attached_nodes_.end());
  std::sort(attached.begin(), attached.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  io::WritePod<std::uint64_t>(out, attached.size());
  for (const auto& [object, nodes] : attached) {
    io::WritePod(out, object);
    io::WritePodVector(out, nodes);
  }

  std::vector<ObjectId> deleted(nvd.deleted_.begin(), nvd.deleted_.end());
  std::sort(deleted.begin(), deleted.end());
  io::WritePodVector(out, deleted);

  io::WritePod<std::uint64_t>(out, nvd.lazy_inserts_);
  io::WritePod<std::uint64_t>(out, nvd.last_affected_size_);
}

std::unique_ptr<ApxNvd> LoadApxNvd(const Graph& graph, std::istream& in) {
  std::unique_ptr<ApxNvd> nvd(new ApxNvd(graph));
  nvd->options_.rho = io::ReadPod<std::uint32_t>(in);
  const auto storage = io::ReadPod<std::uint32_t>(in);
  nvd->options_.quadtree_max_depth = io::ReadPod<std::uint32_t>(in);
  nvd->options_.lazy_insert_threshold = io::ReadPod<std::uint32_t>(in);
  if (nvd->options_.rho == 0 || storage > 1) {
    throw io::SerializationError("ApxNvd options out of range");
  }
  nvd->options_.storage = static_cast<ApxNvdStorage>(storage);

  nvd->sites_ = io::ReadPodVector<SiteObject>(in);
  const auto adjacency_size = io::ReadPod<std::uint64_t>(in);
  if (adjacency_size > nvd->sites_.size()) {
    throw io::SerializationError("ApxNvd adjacency larger than site set");
  }
  for (std::uint64_t i = 0; i < adjacency_size; ++i) {
    nvd->adjacency_.Append(io::ReadPodVector<std::uint32_t>(in));
  }
  nvd->max_radius_ = io::ReadPodVector<Distance>(in);

  const auto storage_tag = io::ReadPod<std::uint8_t>(in);
  if (storage_tag == 1) {
    nvd->quadtree_ =
        std::make_unique<ColorQuadtree>(LoadColorQuadtree(in));
  } else if (storage_tag == 2) {
    nvd->rtree_ = std::make_unique<VoronoiRTree>(LoadVoronoiRTree(in));
  } else if (storage_tag != 0) {
    throw io::SerializationError("ApxNvd unknown storage tag");
  }

  const auto attachments_size = io::ReadPod<std::uint64_t>(in);
  if (attachments_size != nvd->sites_.size()) {
    throw io::SerializationError("ApxNvd attachments size mismatch");
  }
  nvd->attachments_.resize(static_cast<std::size_t>(attachments_size));
  for (auto& list : nvd->attachments_) {
    list = io::ReadPodVector<SiteObject>(in);
  }

  const auto attached_count = io::ReadPod<std::uint64_t>(in);
  for (std::uint64_t i = 0; i < attached_count; ++i) {
    const auto object = io::ReadPod<ObjectId>(in);
    auto nodes = io::ReadPodVector<std::uint32_t>(in);
    for (std::uint32_t node : nodes) {
      if (node >= nvd->sites_.size()) {
        throw io::SerializationError("ApxNvd attachment node out of range");
      }
    }
    if (!nvd->attached_nodes_.emplace(object, std::move(nodes)).second) {
      throw io::SerializationError("ApxNvd duplicate attached object");
    }
  }

  for (const ObjectId o : io::ReadPodVector<ObjectId>(in)) {
    nvd->deleted_.insert(o);
  }
  nvd->lazy_inserts_ =
      static_cast<std::size_t>(io::ReadPod<std::uint64_t>(in));
  nvd->last_affected_size_ =
      static_cast<std::size_t>(io::ReadPod<std::uint64_t>(in));

  // Cross-field consistency: a wrong-but-well-framed index must never
  // reach queries.
  const std::size_t num_sites = nvd->sites_.size();
  const bool has_voronoi = storage_tag != 0;
  if (has_voronoi &&
      (nvd->adjacency_.NumLists() != num_sites ||
       nvd->max_radius_.size() != num_sites)) {
    throw io::SerializationError("ApxNvd Voronoi arrays size mismatch");
  }
  if (!has_voronoi &&
      (!nvd->adjacency_.Empty() || !nvd->max_radius_.empty())) {
    throw io::SerializationError("ApxNvd flat index has Voronoi arrays");
  }
  for (std::uint32_t node : nvd->adjacency_.Pool()) {
    if (node >= num_sites) {
      throw io::SerializationError("ApxNvd adjacency node out of range");
    }
  }
  for (std::uint32_t i = 0; i < num_sites; ++i) {
    const SiteObject& s = nvd->sites_[i];
    if (s.vertex >= graph.NumVertices()) {
      throw io::SerializationError("ApxNvd site vertex out of range");
    }
    if (!nvd->site_index_.emplace(s.object, i).second) {
      throw io::SerializationError("ApxNvd duplicate site object");
    }
  }
  for (const auto& [object, nodes] : nvd->attached_nodes_) {
    if (nvd->site_index_.contains(object)) {
      throw io::SerializationError("ApxNvd object both site and attachment");
    }
  }
  if (has_voronoi && !graph.HasCoordinates()) {
    throw io::SerializationError(
        "ApxNvd Voronoi storage requires graph coordinates");
  }
  return nvd;
}

void SaveKeywordIndex(const KeywordIndex& index, std::ostream& out) {
  io::WriteHeader(out, kKwixMagic, kVersion);
  io::WritePod(out, index.options_.nvd.rho);
  io::WritePod(out, static_cast<std::uint32_t>(index.options_.nvd.storage));
  io::WritePod(out, index.options_.nvd.quadtree_max_depth);
  io::WritePod(out, index.options_.nvd.lazy_insert_threshold);
  io::WritePod(out, index.build_seconds_);
  io::WritePod<std::uint64_t>(out, index.indexes_.size());
  for (const auto& nvd : index.indexes_) {
    io::WritePod<std::uint8_t>(out, nvd != nullptr ? 1 : 0);
    if (nvd != nullptr) SaveApxNvd(*nvd, out);
  }
}

KeywordIndex LoadKeywordIndex(const Graph& graph, std::istream& in) {
  io::CheckHeader(in, kKwixMagic, kVersion);
  KeywordIndex index(graph);
  index.options_.nvd.rho = io::ReadPod<std::uint32_t>(in);
  const auto storage = io::ReadPod<std::uint32_t>(in);
  index.options_.nvd.quadtree_max_depth = io::ReadPod<std::uint32_t>(in);
  index.options_.nvd.lazy_insert_threshold = io::ReadPod<std::uint32_t>(in);
  if (index.options_.nvd.rho == 0 || storage > 1) {
    throw io::SerializationError("keyword index options out of range");
  }
  index.options_.nvd.storage = static_cast<ApxNvdStorage>(storage);
  index.build_seconds_ = io::ReadPod<double>(in);
  const auto num_keywords = io::ReadPod<std::uint64_t>(in);
  index.indexes_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(num_keywords, 1 << 20)));
  for (std::uint64_t t = 0; t < num_keywords; ++t) {
    if (io::ReadPod<std::uint8_t>(in) != 0) {
      index.indexes_.push_back(LoadApxNvd(graph, in));
    } else {
      index.indexes_.emplace_back();
    }
  }
  return index;
}

// ----- POI catalogue -------------------------------------------------------

void SavePoiCatalog(const PoiCatalog& catalog, std::ostream& out) {
  io::WriteHeader(out, kCatalogMagic, kVersion);
  io::WritePod<std::uint64_t>(out, catalog.vocabulary.Size());
  for (KeywordId t = 0; t < catalog.vocabulary.Size(); ++t) {
    io::WriteString(out, catalog.vocabulary.TermOf(t));
  }
  io::WritePod<std::uint64_t>(out, catalog.names.size());
  for (const std::string& name : catalog.names) {
    io::WriteString(out, name);
  }
}

PoiCatalog LoadPoiCatalog(std::istream& in) {
  io::CheckHeader(in, kCatalogMagic, kVersion);
  PoiCatalog catalog;
  const auto num_terms = io::ReadPod<std::uint64_t>(in);
  for (std::uint64_t t = 0; t < num_terms; ++t) {
    // Terms were interned in id order, so re-interning reproduces the ids.
    const std::string term = io::ReadString(in);
    if (catalog.vocabulary.AddOrGet(term) != t) {
      throw io::SerializationError("catalog has duplicate vocabulary term");
    }
  }
  const auto num_names = io::ReadPod<std::uint64_t>(in);
  for (std::uint64_t i = 0; i < num_names; ++i) {
    catalog.names.push_back(io::ReadString(in));
  }
  return catalog;
}

}  // namespace kspin
