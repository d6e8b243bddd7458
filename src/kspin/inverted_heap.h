// On-demand inverted heaps and the Heap Generator (paper Sections 3 and 5).
//
// An inverted heap for keyword t delivers the objects of inv(t) in
// ascending *lower-bound* network distance from the query vertex
// (Property 1). It is populated lazily: initialization seeds at most rho
// candidates from the keyword's ApxNvd (one of which is the 1NN of q,
// Theorem 1), and each extraction triggers LazyReheap (Algorithm 4), which
// injects the adjacent objects of the extracted one.
//
// Newly injected sites are staged in a pending buffer and flushed
// together: each is priced with one LowerBound call, and a flush into an
// empty heap seeds it with one make_heap (docs/performance.md).
// Extraction order is a strict total order on (lower_bound, object).
//
// Storage: every heap operates on an InvertedHeap::Scratch — the heap
// array, the dedup set and the expansion buffers. A query workspace can
// lend pooled scratch so repeated queries allocate nothing; without one
// the heap owns a private scratch (same semantics, one allocation).
#ifndef KSPIN_KSPIN_INVERTED_HEAP_H_
#define KSPIN_KSPIN_INVERTED_HEAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/stamped_set.h"
#include "common/types.h"
#include "kspin/keyword_index.h"
#include "routing/lower_bound.h"

namespace kspin {

/// Counters describing heap work (used by ablation benches and tests).
struct HeapStats {
  std::uint64_t lower_bounds_computed = 0;
  std::uint64_t insertions = 0;
  std::uint64_t extractions = 0;
  /// Pending-buffer flushes and candidates priced across them
  /// (items / calls = mean frontier size per flush).
  std::uint64_t lb_batch_calls = 0;
  std::uint64_t lb_batch_items = 0;
};

/// One keyword's lazily populated candidate heap.
class InvertedHeap {
 public:
  /// A heap entry: candidate keyed by its lower-bound distance (ties by
  /// object id, matching the extraction order of the original
  /// priority_queue-based implementation). 16 flat bytes; entries live in
  /// one cache-line-aligned pod array, four per line.
  struct Entry {
    Distance lower_bound;
    ObjectId object;
    VertexId vertex;
    bool operator>(const Entry& o) const {
      if (lower_bound != o.lower_bound) return lower_bound > o.lower_bound;
      return object > o.object;
    }
  };
  static_assert(sizeof(Entry) == 16, "heap entries must stay flat pods");

  /// Reusable backing storage of one heap. Pool-owned scratch objects are
  /// handed out by QueryWorkspace so per-query heap construction performs
  /// no allocation in steady state.
  struct Scratch {
    AlignedVector<Entry> entries;      // Binary min-heap via std::*_heap.
    StampedIdSet inserted;             // Dedup of injected objects.
    std::vector<SiteObject> expand;    // LazyReheap expansion buffer.
    std::vector<SiteObject> pending;   // Staged sites awaiting pricing.

    void Reset() {
      entries.clear();
      inserted.Clear();
      expand.clear();
      pending.clear();
    }
  };

  /// An empty heap (no backing object set).
  InvertedHeap() = default;

  /// A heap over `nvd`'s object set for query vertex q, seeded with the
  /// index's initial candidates (Theorem 1). `nvd` and `lower_bounds`
  /// must outlive the heap. When `scratch` is non-null it provides the
  /// backing storage (and must outlive the heap); otherwise the heap owns
  /// a private scratch. Used directly by the keyword-free KnnEngine;
  /// keyword queries go through HeapGenerator.
  InvertedHeap(const ApxNvd* nvd, const LowerBoundModule* lower_bounds,
               VertexId q, Scratch* scratch = nullptr);

  /// A candidate delivered by the heap.
  struct Candidate {
    ObjectId object = kInvalidObject;
    VertexId vertex = kInvalidVertex;
    Distance lower_bound = kInfDistance;
    bool deleted = false;  ///< Tombstoned in the ApxNvd (skip, still expand).
  };

  /// True when no candidates remain (every object of inv(t) was
  /// extracted, or the keyword had none).
  bool Empty() const { return scratch_ == nullptr || scratch_->entries.empty(); }

  /// Lower-bound distance of the current top (MINKEY); kInfDistance when
  /// empty. Property 1: every not-yet-extracted object o of the keyword
  /// has d(q, o) >= MinKey().
  Distance MinKey() const {
    return Empty() ? kInfDistance : scratch_->entries.front().lower_bound;
  }

  /// Extracts the top candidate and runs LazyReheap to restore Property 1.
  /// Requires !Empty().
  Candidate ExtractMin();

  /// Work counters for this heap.
  const HeapStats& Stats() const { return stats_; }

 private:
  friend class HeapGenerator;

  void StageNew(const SiteObject& site);
  void FlushPending();

  const ApxNvd* nvd_ = nullptr;  // Null for keywords without objects.
  const LowerBoundModule* lower_bounds_ = nullptr;
  VertexId query_ = kInvalidVertex;
  Scratch* scratch_ = nullptr;       // Null only for the empty heap.
  std::unique_ptr<Scratch> owned_;   // Set when no pooled scratch was lent.
  HeapStats stats_;
};

/// Factory wiring keyword indexes and the Lower Bounding Module together.
class HeapGenerator {
 public:
  HeapGenerator(const KeywordIndex& keyword_index,
                const LowerBoundModule& lower_bounds)
      : keyword_index_(keyword_index), lower_bounds_(lower_bounds) {}

  /// Creates the on-demand inverted heap for keyword t and query vertex q.
  /// A keyword without objects yields an empty heap. `scratch` (optional)
  /// provides pooled backing storage, see InvertedHeap.
  InvertedHeap Make(KeywordId t, VertexId q,
                    InvertedHeap::Scratch* scratch = nullptr) const;

 private:
  const KeywordIndex& keyword_index_;
  const LowerBoundModule& lower_bounds_;
};

}  // namespace kspin

#endif  // KSPIN_KSPIN_INVERTED_HEAP_H_
