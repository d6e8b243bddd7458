#include "baselines/ir_tree.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>
#include <stdexcept>

namespace kspin {

IrTree::IrTree(const Graph& graph, const DocumentStore& store,
               const RelevanceModel& relevance, std::uint32_t node_capacity)
    : graph_(graph), store_(store), relevance_(relevance) {
  if (!graph.HasCoordinates()) {
    throw std::invalid_argument("IrTree: graph coordinates required");
  }
  if (node_capacity < 2) {
    throw std::invalid_argument("IrTree: node_capacity must be >= 2");
  }

  // Leaf entries: one per live object.
  std::vector<std::uint32_t> level;
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    if (!store.IsLive(o)) continue;
    const Coordinate& c = graph.VertexCoordinate(store.ObjectVertex(o));
    Node node;
    node.rect = {c.x, c.y, c.x, c.y};
    node.object = o;
    node.doc_begin = static_cast<std::uint32_t>(node_keywords_.size());
    for (const DocEntry& e : store.Document(o)) {
      node_keywords_.push_back(e.keyword);
    }
    node.doc_size =
        static_cast<std::uint32_t>(node_keywords_.size()) - node.doc_begin;
    nodes_.push_back(node);
    level.push_back(static_cast<std::uint32_t>(nodes_.size() - 1));
    ++num_objects_;
  }
  if (level.empty()) {
    // Degenerate empty tree: a sentinel root covering nothing.
    nodes_.push_back({{0, 0, -1, -1}, kInvalidObject, 0, 0, 0, 0});
    root_ = 0;
    return;
  }

  auto centre_x = [this](std::uint32_t id) {
    return nodes_[id].rect.min_x + nodes_[id].rect.max_x;
  };
  auto centre_y = [this](std::uint32_t id) {
    return nodes_[id].rect.min_y + nodes_[id].rect.max_y;
  };

  // STR bulk load with per-node keyword union (the "pseudo document").
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return centre_x(a) < centre_x(b);
              });
    const std::size_t num_groups =
        (level.size() + node_capacity - 1) / node_capacity;
    const std::size_t num_strips = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(num_groups))));
    const std::size_t strip_size =
        (level.size() + num_strips - 1) / num_strips;
    std::vector<std::uint32_t> next_level;
    for (std::size_t s = 0; s < num_strips; ++s) {
      const std::size_t begin = s * strip_size;
      if (begin >= level.size()) break;
      const std::size_t end = std::min(level.size(), begin + strip_size);
      std::sort(level.begin() + begin, level.begin() + end,
                [&](std::uint32_t a, std::uint32_t b) {
                  return centre_y(a) < centre_y(b);
                });
      for (std::size_t g = begin; g < end; g += node_capacity) {
        const std::size_t gend = std::min(end, g + node_capacity);
        Node parent;
        parent.child_begin = static_cast<std::uint32_t>(children_.size());
        parent.rect = nodes_[level[g]].rect;
        std::set<KeywordId> keywords;
        for (std::size_t i = g; i < gend; ++i) {
          children_.push_back(level[i]);
          const Node& child = nodes_[level[i]];
          parent.rect.min_x = std::min(parent.rect.min_x, child.rect.min_x);
          parent.rect.min_y = std::min(parent.rect.min_y, child.rect.min_y);
          parent.rect.max_x = std::max(parent.rect.max_x, child.rect.max_x);
          parent.rect.max_y = std::max(parent.rect.max_y, child.rect.max_y);
          keywords.insert(
              node_keywords_.begin() + child.doc_begin,
              node_keywords_.begin() + child.doc_begin + child.doc_size);
        }
        parent.num_children = static_cast<std::uint32_t>(gend - g);
        parent.doc_begin = static_cast<std::uint32_t>(node_keywords_.size());
        node_keywords_.insert(node_keywords_.end(), keywords.begin(),
                              keywords.end());
        parent.doc_size = static_cast<std::uint32_t>(node_keywords_.size()) -
                          parent.doc_begin;
        nodes_.push_back(parent);
        next_level.push_back(static_cast<std::uint32_t>(nodes_.size() - 1));
      }
    }
    level = std::move(next_level);
  }
  root_ = level.front();
}

double IrTree::MinDistance(const Rect& rect, const Coordinate& q) {
  const double dx = q.x < rect.min_x   ? rect.min_x - q.x
                    : q.x > rect.max_x ? q.x - rect.max_x
                                       : 0.0;
  const double dy = q.y < rect.min_y   ? rect.min_y - q.y
                    : q.y > rect.max_y ? q.y - rect.max_y
                                       : 0.0;
  return std::sqrt(dx * dx + dy * dy);
}

bool IrTree::NodeHasKeyword(const Node& node, KeywordId t) const {
  const auto begin = node_keywords_.begin() + node.doc_begin;
  const auto end = begin + node.doc_size;
  return std::binary_search(begin, end, t);
}

bool IrTree::NodeAdmissible(const Node& node,
                            std::span<const KeywordId> keywords,
                            BooleanOp op) const {
  for (KeywordId t : keywords) {
    const bool has = NodeHasKeyword(node, t);
    if (op == BooleanOp::kDisjunctive && has) return true;
    if (op == BooleanOp::kConjunctive && !has) return false;
  }
  return op == BooleanOp::kConjunctive;
}

std::vector<EuclideanResult> IrTree::BooleanKnn(
    const Coordinate& q, std::uint32_t k,
    std::span<const KeywordId> keywords, BooleanOp op) const {
  std::vector<EuclideanResult> results;
  if (k == 0 || keywords.empty() || num_objects_ == 0) return results;

  auto object_satisfies = [this, &keywords, op](ObjectId o) {
    for (KeywordId t : keywords) {
      const bool has = store_.Contains(o, t);
      if (op == BooleanOp::kDisjunctive && has) return true;
      if (op == BooleanOp::kConjunctive && !has) return false;
    }
    return op == BooleanOp::kConjunctive;
  };

  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  pq.push({MinDistance(nodes_[root_].rect, q), root_});
  while (!pq.empty() && results.size() < k) {
    const auto [d, id] = pq.top();
    pq.pop();
    const Node& node = nodes_[id];
    if (node.num_children == 0) {
      // Distance browsing: entries pop in exact ascending distance, so a
      // popped leaf entry is final.
      if (node.object != kInvalidObject && object_satisfies(node.object)) {
        results.push_back({node.object, d});
      }
      continue;
    }
    for (std::uint32_t c = 0; c < node.num_children; ++c) {
      const std::uint32_t child = children_[node.child_begin + c];
      if (!NodeAdmissible(nodes_[child], keywords, op)) continue;
      pq.push({MinDistance(nodes_[child].rect, q), child});
    }
  }
  return results;
}

std::vector<EuclideanResult> IrTree::TopK(
    const Coordinate& q, std::uint32_t k,
    std::span<const KeywordId> keywords) const {
  std::vector<EuclideanResult> results;
  if (k == 0 || keywords.empty() || num_objects_ == 0) return results;
  const PreparedQuery prepared = relevance_.PrepareQuery(keywords);

  auto tr_max = [this, &prepared](const Node& node) {
    double bound = 0.0;
    for (std::size_t j = 0; j < prepared.keywords.size(); ++j) {
      if (NodeHasKeyword(node, prepared.keywords[j])) {
        bound += prepared.max_terms[j];
      }
    }
    return bound;
  };

  struct Entry {
    double score;
    std::uint32_t node;
    bool is_object;
    double distance;
    bool operator>(const Entry& o) const { return score > o.score; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  pq.push({0.0, root_, false, 0.0});
  while (!pq.empty() && results.size() < k) {
    const Entry top = pq.top();
    pq.pop();
    const Node& node = nodes_[top.node];
    if (top.is_object) {
      results.push_back({node.object, top.distance});
      continue;
    }
    if (node.num_children == 0) {
      if (node.object == kInvalidObject) continue;
      const double tr = relevance_.TextualRelevance(prepared, node.object);
      if (tr <= 0.0) continue;
      const double d = MinDistance(node.rect, q);  // Point rect: exact.
      pq.push({d / tr, top.node, true, d});
      continue;
    }
    for (std::uint32_t c = 0; c < node.num_children; ++c) {
      const std::uint32_t child = children_[node.child_begin + c];
      const double bound = tr_max(nodes_[child]);
      if (bound <= 0.0) continue;
      pq.push({MinDistance(nodes_[child].rect, q) / bound, child, false,
               0.0});
    }
  }
  return results;
}

std::size_t IrTree::MemoryBytes() const {
  return nodes_.size() * sizeof(Node) +
         children_.size() * sizeof(std::uint32_t) +
         node_keywords_.size() * sizeof(KeywordId);
}

}  // namespace kspin
