#include "kspin/inverted_heap.h"

#include <algorithm>
#include <functional>

namespace kspin {

void InvertedHeap::StageNew(const SiteObject& site) {
  if (!scratch_->inserted.Insert(site.object)) return;  // Already inserted.
  scratch_->pending.push_back(site);
}

void InvertedHeap::FlushPending() {
  std::vector<SiteObject>& pending = scratch_->pending;
  if (pending.empty()) return;

  stats_.lower_bounds_computed += pending.size();
  stats_.lb_batch_items += pending.size();
  stats_.insertions += pending.size();
  ++stats_.lb_batch_calls;

  AlignedVector<Entry>& entries = scratch_->entries;
  const auto greater = std::greater<Entry>{};
  // Initial seeding fills an empty heap: one O(n) make_heap beats n
  // push_heap sifts. Extraction order is unaffected either way — the
  // comparator is a strict total order on (lower_bound, object).
  const bool bulk = entries.empty();
  for (const SiteObject& site : pending) {
    const Distance lb = lower_bounds_->LowerBound(query_, site.vertex);
    entries.push_back({lb, site.object, site.vertex});
    if (!bulk) std::push_heap(entries.begin(), entries.end(), greater);
  }
  if (bulk) std::make_heap(entries.begin(), entries.end(), greater);
  pending.clear();
}

InvertedHeap::Candidate InvertedHeap::ExtractMin() {
  AlignedVector<Entry>& entries = scratch_->entries;
  const Entry top = entries.front();
  std::pop_heap(entries.begin(), entries.end(), std::greater<Entry>{});
  entries.pop_back();
  ++stats_.extractions;

  // LazyReheap (Algorithm 4): inject the adjacent objects of the extracted
  // candidate so Property 1 keeps holding for the remaining objects.
  scratch_->expand.clear();
  nvd_->ExpandCandidates(top.object, &scratch_->expand);
  for (const SiteObject& site : scratch_->expand) StageNew(site);
  FlushPending();

  Candidate candidate;
  candidate.object = top.object;
  candidate.vertex = top.vertex;
  candidate.lower_bound = top.lower_bound;
  candidate.deleted = nvd_->IsDeleted(top.object);
  return candidate;
}

InvertedHeap::InvertedHeap(const ApxNvd* nvd,
                           const LowerBoundModule* lower_bounds, VertexId q,
                           Scratch* scratch)
    : nvd_(nvd), lower_bounds_(lower_bounds), query_(q), scratch_(scratch) {
  if (scratch_ == nullptr) {
    owned_ = std::make_unique<Scratch>();
    scratch_ = owned_.get();
  } else {
    scratch_->Reset();
  }
  nvd_->InitialCandidates(q, &scratch_->expand);
  for (const SiteObject& site : scratch_->expand) StageNew(site);
  FlushPending();
}

InvertedHeap HeapGenerator::Make(KeywordId t, VertexId q,
                                 InvertedHeap::Scratch* scratch) const {
  const ApxNvd* nvd = keyword_index_.Index(t);
  if (nvd == nullptr) return {};  // No objects: permanently empty.
  return InvertedHeap(nvd, &lower_bounds_, q, scratch);
}

}  // namespace kspin
