// Cache-conscious flat storage primitives (ROADMAP item 3, "Simpler is
// More"): a cache-line-aligned allocator so hot arrays start on a 64-byte
// boundary, and a CSR-style pod arena that packs many small lists into one
// contiguous pool so traversals stop chasing per-list heap pointers.
//
// The aligned allocator backs the lower-bound hot path (AltIndex landmark
// rows, inverted-heap entries) and the quadtree leaves; the arena backs
// the APX-NVD's adjacency lists and member CSRs — see
// docs/performance.md.
#ifndef KSPIN_COMMON_ARENA_H_
#define KSPIN_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace kspin {

/// One x86 cache line (and a safe over-alignment on everything else).
inline constexpr std::size_t kCacheLineBytes = 64;

/// std::allocator drop-in returning 64-byte-aligned blocks. Guarantees the
/// *base* of a vector is cache-line aligned; combined with a row stride
/// that is a multiple of the line size, every row starts on its own line.
template <typename T>
class CacheAlignedAllocator {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "arena storage is for pod types");
  using value_type = T;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
};

/// A std::vector whose data() is 64-byte aligned.
template <typename T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

/// Many small lists packed into one contiguous pod pool with a CSR offset
/// table — the arena replacement for vector<vector<T>>. Lists are
/// appended at construction / deserialization and read-only afterwards,
/// except that AppendToEach can grow chosen lists by re-laying the pool;
/// neighbouring lists share cache lines instead of living in separate
/// heap blocks.
template <typename T>
class FlatLists {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  FlatLists() { offsets_.push_back(0); }

  /// Builds from the nested form in one pass.
  static FlatLists FromLists(const std::vector<std::vector<T>>& lists) {
    FlatLists flat;
    std::size_t total = 0;
    for (const auto& list : lists) total += list.size();
    flat.pool_.reserve(total);
    flat.offsets_.reserve(lists.size() + 1);
    for (const auto& list : lists) flat.Append(list);
    return flat;
  }

  /// Appends one list (only valid before any reads rely on stability).
  void Append(std::span<const T> list) {
    pool_.insert(pool_.end(), list.begin(), list.end());
    offsets_.push_back(static_cast<std::uint32_t>(pool_.size()));
  }

  /// Appends `item` to each list named in `lists` (ascending, no
  /// repeats), re-laying the pool in place in one backward pass: linear
  /// in TotalItems() + NumLists(), no allocation beyond the pool's growth.
  void AppendToEach(std::span<const std::uint32_t> lists, const T& item) {
    pool_.resize(pool_.size() + lists.size());
    std::size_t shift = lists.size();  // Appends in lists [0, i].
    std::size_t next = lists.size();   // Unprocessed prefix of `lists`.
    for (std::size_t i = NumLists(); i-- > 0 && shift > 0;) {
      const std::uint32_t begin = offsets_[i];
      const std::uint32_t end = offsets_[i + 1];
      offsets_[i + 1] = static_cast<std::uint32_t>(end + shift);
      if (next > 0 && lists[next - 1] == i) {
        pool_[end + shift - 1] = item;
        --shift;
        --next;
      }
      std::copy_backward(pool_.begin() + begin, pool_.begin() + end,
                         pool_.begin() + end + shift);
    }
  }

  std::span<const T> operator[](std::size_t i) const {
    return {pool_.data() + offsets_[i],
            static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }

  std::size_t NumLists() const { return offsets_.size() - 1; }
  std::size_t TotalItems() const { return pool_.size(); }
  bool Empty() const { return NumLists() == 0; }

  void Clear() {
    pool_.clear();
    offsets_.assign(1, 0);
  }

  std::size_t MemoryBytes() const {
    return pool_.capacity() * sizeof(T) +
           offsets_.capacity() * sizeof(std::uint32_t);
  }

  /// The flat pool (for serialization and tests).
  const std::vector<T>& Pool() const { return pool_; }

 private:
  // A plain vector: lists start at arbitrary offsets, so aligning the
  // pool's base buys nothing, while an aligned block per list family
  // costs allocator padding (building dataset E's 3,300 keyword indexes
  // on one thread took about 0.6 MB more RSS with aligned pools).
  std::vector<T> pool_;
  std::vector<std::uint32_t> offsets_;  // offsets_[i]..offsets_[i+1].
};

}  // namespace kspin

#endif  // KSPIN_COMMON_ARENA_H_
