#include "baselines/fs_fbs.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_set>

namespace kspin {

std::uint64_t FsFbs::KeywordBit(KeywordId t) {
  // SplitMix64 finalizer spreads keyword ids over the 64 signature bits.
  std::uint64_t x = t + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return 1ull << (x & 63u);
}

std::uint64_t FsFbs::QueryMask(std::span<const KeywordId> keywords) const {
  std::uint64_t mask = 0;
  for (KeywordId t : keywords) mask |= KeywordBit(t);
  return mask;
}

FsFbs::FsFbs(const Graph& graph, const HubLabeling& labels,
             const DocumentStore& store, const InvertedIndex& inverted,
             FsFbsOptions options)
    : graph_(graph),
      labels_(labels),
      store_(store),
      inverted_(inverted),
      options_(options) {
  if (options_.block_size == 0) {
    throw std::invalid_argument("FsFbs: block_size must be >= 1");
  }
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    if (store.IsLive(o)) objects_at_[store.ObjectVertex(o)].push_back(o);
  }

  // Invert the forward labels into per-hub backward lists.
  const std::size_t n = graph.NumVertices();
  hub_offsets_.assign(n + 1, 0);
  std::size_t total_entries = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (const LabelEntry& e : labels.Label(v)) {
      ++hub_offsets_[e.hub + 1];
      ++total_entries;
    }
  }
  if (options_.max_backward_entries != 0 &&
      total_entries > options_.max_backward_entries) {
    throw std::runtime_error(
        "FsFbs: backward index would exceed the configured memory budget (" +
        std::to_string(total_entries) + " entries)");
  }
  for (std::size_t h = 0; h < n; ++h) hub_offsets_[h + 1] += hub_offsets_[h];
  backward_.resize(total_entries);
  std::vector<std::size_t> cursor(hub_offsets_.begin(),
                                  hub_offsets_.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    for (const LabelEntry& e : labels.Label(v)) {
      backward_[cursor[e.hub]++] = {v, e.distance};
    }
  }
  for (std::size_t h = 0; h < n; ++h) {
    std::sort(backward_.begin() + hub_offsets_[h],
              backward_.begin() + hub_offsets_[h + 1],
              [](const BackwardEntry& a, const BackwardEntry& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.vertex < b.vertex;
              });
  }

  // Block keyword signatures.
  sig_offsets_.assign(n + 1, 0);
  for (std::size_t h = 0; h < n; ++h) {
    const std::size_t entries = hub_offsets_[h + 1] - hub_offsets_[h];
    sig_offsets_[h + 1] =
        sig_offsets_[h] + (entries + options_.block_size - 1) /
                              options_.block_size;
  }
  signatures_.assign(sig_offsets_[n], 0);
  for (std::size_t h = 0; h < n; ++h) {
    for (std::size_t i = hub_offsets_[h]; i < hub_offsets_[h + 1]; ++i) {
      const std::size_t block =
          sig_offsets_[h] + (i - hub_offsets_[h]) / options_.block_size;
      auto it = objects_at_.find(backward_[i].vertex);
      if (it == objects_at_.end()) continue;
      for (ObjectId o : it->second) {
        for (const DocEntry& e : store_.Document(o)) {
          signatures_[block] |= KeywordBit(e.keyword);
        }
      }
    }
  }
}

std::vector<BkNNResult> FsFbs::BooleanKnn(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    BooleanOp op, QueryStats* stats) {
  if (k == 0 || keywords.empty()) return {};
  // Objects whose exact distance a list scan paid for; the frequent search
  // reads distances off the labels and pays none.
  std::vector<ObjectId> scanned;
  const auto finish = [stats, &scanned](std::vector<BkNNResult> results) {
    if (stats != nullptr) {
      // K-SPIN's rule: a distance paid for an object outside the answer
      // is a false positive.
      for (ObjectId o : scanned) {
        if (std::none_of(results.begin(), results.end(),
                         [o](const BkNNResult& r) { return r.object == o; })) {
          ++stats->false_positive_distances;
        }
      }
      stats->results_returned += results.size();
    }
    return results;
  };

  std::vector<KeywordId> frequent, infrequent;
  for (KeywordId t : keywords) {
    (inverted_.ListSize(t) >= options_.frequent_threshold ? frequent
                                                          : infrequent)
        .push_back(t);
  }

  if (op == BooleanOp::kConjunctive) {
    // Any infrequent keyword bounds the candidate set: scan its list.
    if (!infrequent.empty()) {
      KeywordId rarest = infrequent.front();
      for (KeywordId t : infrequent) {
        if (inverted_.ListSize(t) < inverted_.ListSize(rarest)) rarest = t;
      }
      return finish(ScanList(q, k, keywords, rarest, op, &scanned, stats));
    }
    return finish(FrequentSearch(q, k, keywords, op, stats));
  }

  // Disjunctive: merge the frequent forward-backward search with direct
  // evaluations of the infrequent lists.
  std::vector<BkNNResult> merged;
  if (!frequent.empty()) {
    merged = FrequentSearch(q, k, frequent, op, stats);
  }
  for (KeywordId t : infrequent) {
    std::vector<BkNNResult> part =
        ScanList(q, k, keywords, t, op, &scanned, stats);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const BkNNResult& a, const BkNNResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.object < b.object;
            });
  merged.erase(std::unique(merged.begin(), merged.end(),
                           [](const BkNNResult& a, const BkNNResult& b) {
                             return a.object == b.object;
                           }),
               merged.end());
  if (merged.size() > k) merged.resize(k);
  return finish(std::move(merged));
}

std::vector<BkNNResult> FsFbs::ScanList(VertexId q, std::uint32_t k,
                                        std::span<const KeywordId> keywords,
                                        KeywordId scan_keyword, BooleanOp op,
                                        std::vector<ObjectId>* scanned,
                                        QueryStats* stats) const {
  // "For infrequent keywords, FS-FBS simply computes network distances to
  // all vertices containing the infrequent keyword": no ordered access, no
  // early termination.
  std::vector<BkNNResult> results;
  QueryStats local;
  for (ObjectId o : inverted_.Objects(scan_keyword)) {
    if (op == BooleanOp::kConjunctive) {
      bool all = true;
      for (KeywordId t : keywords) {
        if (!store_.Contains(o, t)) {
          all = false;
          break;
        }
      }
      if (!all) continue;
    }
    const Distance d = labels_.Query(q, store_.ObjectVertex(o));
    scanned->push_back(o);
    ++local.network_distance_computations;
    ++local.candidates_extracted;
    results.push_back({o, d});
  }
  std::sort(results.begin(), results.end(),
            [](const BkNNResult& a, const BkNNResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.object < b.object;
            });
  if (results.size() > k) results.resize(k);
  if (stats != nullptr) {
    stats->network_distance_computations +=
        local.network_distance_computations;
    stats->candidates_extracted += local.candidates_extracted;
  }
  return results;
}

std::vector<BkNNResult> FsFbs::FrequentSearch(
    VertexId q, std::uint32_t k, std::span<const KeywordId> keywords,
    BooleanOp op, QueryStats* stats) const {
  const std::uint64_t mask = QueryMask(keywords);
  auto block_passes = [this, mask, op](std::uint64_t signature) {
    return op == BooleanOp::kDisjunctive ? (signature & mask) != 0
                                         : (signature & mask) == mask;
  };
  auto satisfies = [this, &keywords, op](ObjectId o) {
    for (KeywordId t : keywords) {
      const bool has = store_.Contains(o, t);
      if (op == BooleanOp::kDisjunctive && has) return true;
      if (op == BooleanOp::kConjunctive && !has) return false;
    }
    return op == BooleanOp::kConjunctive;
  };

  // One cursor per hub of L(q), advanced past signature-rejected blocks.
  struct Cursor {
    Distance bound;
    Distance hub_distance;
    std::uint32_t hub;
    std::size_t index;  // Into backward_.
    bool operator>(const Cursor& o) const { return bound > o.bound; }
  };
  QueryStats local;
  auto advance = [this, &block_passes, &local](std::uint32_t hub,
                                               std::size_t index)
      -> std::size_t {
    const std::size_t end = hub_offsets_[hub + 1];
    while (index < end) {
      const std::size_t local_idx = index - hub_offsets_[hub];
      if (local_idx % options_.block_size == 0) {
        const std::size_t block =
            sig_offsets_[hub] + local_idx / options_.block_size;
        if (!block_passes(signatures_[block])) {
          index += options_.block_size;  // Keyword aggregation says skip.
          continue;
        }
      }
      // Within an accepted block, emit entries one by one (object-level
      // checks weed out the bit-collision false positives).
      return index;
    }
    return end;
  };

  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<Cursor>> pq;
  for (const LabelEntry& e : labels_.Label(q)) {
    const std::size_t index = advance(e.hub, hub_offsets_[e.hub]);
    if (index < hub_offsets_[e.hub + 1]) {
      pq.push({e.distance + backward_[index].distance, e.distance, e.hub,
               index});
    }
  }

  std::vector<BkNNResult> results;
  std::unordered_set<VertexId> seen;
  while (!pq.empty() && results.size() < k) {
    Cursor top = pq.top();
    pq.pop();
    const BackwardEntry& entry = backward_[top.index];
    ++local.candidates_extracted;
    // Advance this cursor.
    const std::size_t next = advance(top.hub, top.index + 1);
    if (next < hub_offsets_[top.hub + 1]) {
      pq.push({top.hub_distance + backward_[next].distance,
               top.hub_distance, top.hub, next});
    }
    if (!seen.insert(entry.vertex).second) continue;
    // First surfacing of a vertex carries its exact distance (the
    // minimizing common hub pops first).
    auto it = objects_at_.find(entry.vertex);
    if (it == objects_at_.end()) continue;
    for (ObjectId o : it->second) {
      if (satisfies(o) && results.size() < k) {
        results.push_back({o, top.bound});
      }
    }
  }
  if (stats != nullptr) {
    stats->network_distance_computations +=
        local.network_distance_computations;
    stats->candidates_extracted += local.candidates_extracted;
  }
  return results;
}

std::size_t FsFbs::MemoryBytes() const {
  return backward_.size() * sizeof(BackwardEntry) +
         hub_offsets_.size() * sizeof(std::size_t) +
         signatures_.size() * sizeof(std::uint64_t) +
         sig_offsets_.size() * sizeof(std::size_t);
}

}  // namespace kspin
