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
  if (graph.offsets_.empty() || graph.offsets_.front() != 0 ||
      graph.offsets_.back() != graph.arcs_.size() ||
      !std::is_sorted(graph.offsets_.begin(), graph.offsets_.end()) ||
      (!graph.coordinates_.empty() &&
       graph.coordinates_.size() != graph.offsets_.size() - 1)) {
    throw io::SerializationError("inconsistent graph arrays");
  }
  // As GraphBuilder enforces: every shortest-path method relies on
  // strictly positive weights, and contraction on the absence of
  // self-loops.
  const std::size_t n = graph.offsets_.size() - 1;
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = graph.offsets_[v]; i < graph.offsets_[v + 1]; ++i) {
      const Arc& arc = graph.arcs_[i];
      if (arc.head >= n) {
        throw io::SerializationError("arc head out of range");
      }
      if (arc.head == v) {
        throw io::SerializationError("self-loop arc");
      }
      if (arc.weight == 0) {
        throw io::SerializationError("zero arc weight");
      }
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

// The keyword-index section keeps the bytes of the per-object layout it
// was introduced with (docs/persistence.md): sites, per-site attachment
// lists, (object, nodes) of attached objects sorted by object id, and the
// sorted tombstoned object ids. The in-memory member table is written out
// in that shape and derived back from it on load.
void SaveApxNvd(const ApxNvd& nvd, std::ostream& out) {
  io::WritePod(out, nvd.options_.rho);
  io::WritePod(out, static_cast<std::uint32_t>(nvd.options_.storage));
  io::WritePod(out, nvd.options_.quadtree_max_depth);
  io::WritePod(out, nvd.options_.lazy_insert_threshold);

  // Flat lazy inserts are members without nodes; the format lists them as
  // sites after the built ones, with empty attachment lists.
  const std::uint32_t num_members =
      static_cast<std::uint32_t>(nvd.members_.size());
  std::vector<SiteObject> sites(nvd.members_.begin(),
                                nvd.members_.begin() + nvd.num_sites_);
  std::vector<std::uint32_t> attached;  // Members with nodes.
  for (std::uint32_t m = nvd.num_sites_; m < num_members; ++m) {
    if (nvd.attached_nodes_[m - nvd.num_sites_].empty()) {
      sites.push_back(nvd.members_[m]);
    } else {
      attached.push_back(m);
    }
  }
  io::WritePodVector(out, sites);
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

  io::WritePod<std::uint64_t>(out, sites.size());
  std::vector<SiteObject> list;
  for (std::uint32_t node = 0; node < sites.size(); ++node) {
    list.clear();
    if (node < nvd.num_sites_) {
      // The node's members after its site, in attachment order.
      for (std::uint32_t m : nvd.node_members_[node].subspan(1)) {
        list.push_back(nvd.members_[m]);
      }
    }
    io::WritePodVector(out, list);
  }

  std::sort(attached.begin(), attached.end(),
            [&nvd](std::uint32_t a, std::uint32_t b) {
              return nvd.members_[a].object < nvd.members_[b].object;
            });
  io::WritePod<std::uint64_t>(out, attached.size());
  for (std::uint32_t m : attached) {
    io::WritePod(out, nvd.members_[m].object);
    io::WritePodSpan<std::uint32_t>(out,
                                    nvd.attached_nodes_[m - nvd.num_sites_]);
  }

  std::vector<ObjectId> deleted;
  for (std::uint32_t m = 0; m < num_members; ++m) {
    if (nvd.deleted_[m]) deleted.push_back(nvd.members_[m].object);
  }
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

  const std::vector<SiteObject> sites = io::ReadPodVector<SiteObject>(in);
  const auto adjacency_size = io::ReadPod<std::uint64_t>(in);
  if (adjacency_size > sites.size()) {
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
  if (attachments_size != sites.size()) {
    throw io::SerializationError("ApxNvd attachments size mismatch");
  }
  std::vector<std::vector<SiteObject>> attachments(
      static_cast<std::size_t>(attachments_size));
  for (auto& list : attachments) list = io::ReadPodVector<SiteObject>(in);

  // (object, nodes) of attached objects, in file order.
  std::vector<std::pair<ObjectId, std::vector<std::uint32_t>>> attached;
  const auto attached_count = io::ReadPod<std::uint64_t>(in);
  for (std::uint64_t i = 0; i < attached_count; ++i) {
    const auto object = io::ReadPod<ObjectId>(in);
    auto nodes = io::ReadPodVector<std::uint32_t>(in);
    for (std::uint32_t node : nodes) {
      if (node >= sites.size()) {
        throw io::SerializationError("ApxNvd attachment node out of range");
      }
    }
    attached.emplace_back(object, std::move(nodes));
  }
  {
    std::vector<ObjectId> ids;
    for (const auto& [object, nodes] : attached) ids.push_back(object);
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      throw io::SerializationError("ApxNvd duplicate attached object");
    }
  }

  const std::vector<ObjectId> deleted = io::ReadPodVector<ObjectId>(in);
  nvd->lazy_inserts_ =
      static_cast<std::size_t>(io::ReadPod<std::uint64_t>(in));
  nvd->last_affected_size_ =
      static_cast<std::size_t>(io::ReadPod<std::uint64_t>(in));

  // Cross-field consistency: a wrong-but-well-framed index must never
  // reach queries.
  const std::size_t num_sites = sites.size();
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
  auto& members = nvd->object_members_;
  for (std::uint32_t i = 0; i < num_sites; ++i) {
    if (sites[i].vertex >= graph.NumVertices()) {
      throw io::SerializationError("ApxNvd site vertex out of range");
    }
    members.emplace_back(sites[i].object, i);
  }
  std::sort(members.begin(), members.end());
  for (std::size_t i = 1; i < members.size(); ++i) {
    if (members[i - 1].first == members[i].first) {
      throw io::SerializationError("ApxNvd duplicate site object");
    }
  }
  for (const auto& [object, nodes] : attached) {
    if (nvd->FindMember(object) != ApxNvd::kNoMember) {
      throw io::SerializationError("ApxNvd object both site and attachment");
    }
  }
  if (has_voronoi && !graph.HasCoordinates()) {
    throw io::SerializationError(
        "ApxNvd Voronoi storage requires graph coordinates");
  }

  // Derive the member table: the sites, then the attached objects in file
  // order, each taking its vertex from the attachment lists. Every list
  // entry must be an attached object that names that node, with one
  // vertex across its lists, and every named node must list it.
  nvd->members_ = sites;
  nvd->num_sites_ = static_cast<std::uint32_t>(num_sites);
  for (std::uint32_t i = 0; i < attached.size(); ++i) {
    if (attached[i].second.empty()) {
      throw io::SerializationError("ApxNvd attached object without nodes");
    }
    nvd->members_.push_back({attached[i].first, kInvalidVertex});
    members.emplace_back(attached[i].first, num_sites + i);
  }
  std::sort(members.begin(), members.end());
  std::vector<std::vector<std::uint32_t>> seen_nodes(attached.size());
  std::vector<std::uint32_t> list;
  for (std::uint32_t node = 0; node < num_sites; ++node) {
    list.assign(1, node);
    for (const SiteObject& a : attachments[node]) {
      const std::uint32_t m = nvd->FindMember(a.object);
      if (m == ApxNvd::kNoMember || m < num_sites) {
        throw io::SerializationError("ApxNvd attachment of unknown object");
      }
      SiteObject& member = nvd->members_[m];
      if (a.vertex >= graph.NumVertices() ||
          (member.vertex != kInvalidVertex && member.vertex != a.vertex)) {
        throw io::SerializationError("ApxNvd attachment vertex mismatch");
      }
      member.vertex = a.vertex;
      seen_nodes[m - num_sites].push_back(node);
      list.push_back(m);
    }
    nvd->node_members_.Append(list);
  }
  for (std::uint32_t i = 0; i < attached.size(); ++i) {
    std::vector<std::uint32_t> named = attached[i].second;
    std::sort(named.begin(), named.end());
    if (named != seen_nodes[i]) {  // seen_nodes is ascending by node.
      throw io::SerializationError(
          "ApxNvd attached nodes disagree with attachment lists");
    }
    nvd->attached_nodes_.Append(attached[i].second);
  }
  nvd->deleted_.assign(nvd->members_.size(), false);
  nvd->live_ = nvd->members_.size();
  for (std::size_t i = 0; i < deleted.size(); ++i) {
    const std::uint32_t m = nvd->FindMember(deleted[i]);
    if (m == ApxNvd::kNoMember || nvd->deleted_[m]) {
      throw io::SerializationError("ApxNvd bad tombstone");
    }
    nvd->deleted_[m] = true;
    --nvd->live_;
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
