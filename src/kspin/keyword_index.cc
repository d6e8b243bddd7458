#include "kspin/keyword_index.h"

#include <atomic>
#include <optional>
#include <thread>

#include "common/timer.h"

namespace kspin {

KeywordIndex::KeywordIndex(const Graph& graph, const DocumentStore& store,
                           const InvertedIndex& inverted,
                           KeywordIndexOptions options)
    : graph_(graph), options_(options) {
  Timer timer;
  indexes_.resize(inverted.NumKeywords());

  // Keyword separation makes per-keyword builds independent
  // (Observation 3): farm them out across threads.
  unsigned num_threads = options.num_threads;
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  if (num_threads == 0) num_threads = 1;

  // Every quadtree of the build shares one Z-order of the graph's
  // vertices: it depends only on the coordinates and the depth.
  std::optional<MortonOrder> order;
  if (options_.nvd.storage == ApxNvdStorage::kQuadtree &&
      graph_.HasCoordinates()) {
    order.emplace(graph_.Coordinates(), options_.nvd.quadtree_max_depth);
  }

  std::atomic<std::size_t> next{0};
  auto worker = [this, &store, &inverted, &next, &order] {
    for (;;) {
      const std::size_t t = next.fetch_add(1);
      if (t >= indexes_.size()) break;
      const std::span<const ObjectId> inv =
          inverted.Objects(static_cast<KeywordId>(t));
      if (inv.empty()) continue;
      std::vector<SiteObject> sites;
      sites.reserve(inv.size());
      for (ObjectId o : inv) {
        sites.push_back({o, store.ObjectVertex(o)});
      }
      indexes_[t] = std::make_unique<ApxNvd>(
          graph_, std::move(sites), options_.nvd,
          order.has_value() ? &*order : nullptr);
    }
  };
  if (num_threads == 1) {
    worker();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i) workers.emplace_back(worker);
    for (auto& w : workers) w.join();
  }
  build_seconds_ = timer.ElapsedSeconds();
}

ApxNvd* KeywordIndex::EnsureIndex(KeywordId t) {
  if (t >= indexes_.size()) indexes_.resize(t + 1);
  if (indexes_[t] == nullptr) {
    indexes_[t] = std::make_unique<ApxNvd>(graph_, std::vector<SiteObject>{},
                                           options_.nvd);
  }
  return indexes_[t].get();
}

void KeywordIndex::OnObjectInserted(ObjectId o, VertexId vertex,
                                    std::span<const KeywordId> keywords,
                                    DistanceOracle& oracle) {
  for (KeywordId t : keywords) {
    EnsureIndex(t)->Insert(o, vertex, oracle);
  }
}

void KeywordIndex::OnObjectDeleted(ObjectId o,
                                   std::span<const KeywordId> keywords) {
  for (KeywordId t : keywords) {
    if (const ApxNvd* index = Index(t); index != nullptr) {
      indexes_[t]->Delete(o);
    }
  }
}

void KeywordIndex::OnKeywordAdded(ObjectId o, VertexId vertex,
                                  KeywordId keyword, DistanceOracle& oracle) {
  EnsureIndex(keyword)->Insert(o, vertex, oracle);
}

void KeywordIndex::OnKeywordRemoved(ObjectId o, KeywordId keyword) {
  if (Index(keyword) != nullptr) indexes_[keyword]->Delete(o);
}

std::size_t KeywordIndex::RebuildPending() {
  std::vector<ApxNvd*> pending;
  for (auto& index : indexes_) {
    if (index != nullptr && index->NeedsRebuild()) {
      pending.push_back(index.get());
    }
  }
  unsigned num_threads = options_.num_threads;
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  if (num_threads == 0) num_threads = 1;
  num_threads = std::min<unsigned>(
      num_threads,
      static_cast<unsigned>(std::max<std::size_t>(1, pending.size())));
  std::atomic<std::size_t> next{0};
  auto worker = [&pending, &next] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= pending.size()) break;
      pending[i]->Rebuild();
    }
  };
  if (num_threads == 1) {
    worker();
  } else {
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < num_threads; ++i) workers.emplace_back(worker);
    for (auto& w : workers) w.join();
  }
  return pending.size();
}

std::size_t KeywordIndex::NumVoronoiIndexes() const {
  std::size_t count = 0;
  for (const auto& index : indexes_) {
    if (index != nullptr && index->HasVoronoi()) ++count;
  }
  return count;
}

std::size_t KeywordIndex::NumIndexes() const {
  std::size_t count = 0;
  for (const auto& index : indexes_) {
    if (index != nullptr) ++count;
  }
  return count;
}

std::size_t KeywordIndex::MemoryBytes() const {
  std::size_t total = indexes_.size() * sizeof(void*);
  for (const auto& index : indexes_) {
    if (index != nullptr) total += index->MemoryBytes();
  }
  return total;
}

}  // namespace kspin
