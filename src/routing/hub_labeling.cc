#include "routing/hub_labeling.h"

#include <algorithm>
#include <thread>

namespace kspin {
namespace {

Distance MergeJoin(std::span<const LabelEntry> a,
                   std::span<const LabelEntry> b) {
  Distance best = kInfDistance;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hub == b[j].hub) {
      const Distance d = a[i].distance + b[j].distance;
      if (d < best) best = d;
      ++i;
      ++j;
    } else if (a[i].hub < b[j].hub) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

}  // namespace

HubLabeling::HubLabeling(const Graph& graph, const ContractionHierarchy& ch,
                         unsigned num_threads) {
  const std::size_t n = graph.NumVertices();
  std::vector<std::vector<LabelEntry>> raw(n);

  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  if (num_threads == 0) num_threads = 1;
  num_threads = std::min<unsigned>(num_threads, 64);

  // Phase 1: raw labels = upward CH search spaces, sorted by hub
  // (embarrassingly parallel, one search space per thread).
  auto phase1 = [&raw, &ch, n](std::size_t begin_stride,
                               std::size_t stride) {
    ContractionHierarchy::SearchSpace space;
    for (std::size_t v = begin_stride; v < n; v += stride) {
      std::vector<LabelEntry>& label = raw[v];
      for (const auto& [d, hub] :
           ch.UpwardSearch(space, static_cast<VertexId>(v))) {
        label.push_back({.hub = hub, .distance = d});
      }
      std::ranges::sort(label, {}, &LabelEntry::hub);
    }
  };
  if (num_threads == 1) {
    phase1(0, 1);
  } else {
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < num_threads; ++t) {
      workers.emplace_back(phase1, t, num_threads);
    }
    for (auto& w : workers) w.join();
  }

  // Phase 2: bootstrapped pruning. An entry (h, d) of L(v) is redundant if
  // the raw labels realize a distance to h strictly below d — then h is
  // never the minimizing hub of any query through v. Raw-label queries are
  // already exact (the CH guarantees the maximum-rank vertex of a shortest
  // path appears in both search spaces with exact distances), so pruning
  // against raw labels is sound.
  std::vector<std::vector<LabelEntry>> pruned(n);
  auto phase2 = [&raw, &pruned, n](std::size_t begin_stride,
                                   std::size_t stride) {
    for (std::size_t v = begin_stride; v < n; v += stride) {
      pruned[v].reserve(raw[v].size());
      for (const LabelEntry& e : raw[v]) {
        if (MergeJoin(raw[v], raw[e.hub]) >= e.distance) {
          pruned[v].push_back(e);
        }
      }
    }
  };
  if (num_threads == 1) {
    phase2(0, 1);
  } else {
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < num_threads; ++t) {
      workers.emplace_back(phase2, t, num_threads);
    }
    for (auto& w : workers) w.join();
  }
  raw.clear();
  raw.shrink_to_fit();

  offsets_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    offsets_[v + 1] = offsets_[v] + pruned[v].size();
  }
  entries_.resize(offsets_[n]);
  for (std::size_t v = 0; v < n; ++v) {
    std::copy(pruned[v].begin(), pruned[v].end(),
              entries_.begin() + offsets_[v]);
  }
}

Distance HubLabeling::Query(VertexId s, VertexId t) const {
  if (s == t) return 0;
  return MergeJoin(Label(s), Label(t));
}

}  // namespace kspin
