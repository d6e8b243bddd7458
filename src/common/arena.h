// Cache-conscious flat storage primitives (ROADMAP item 3, "Simpler is
// More"): a cache-line-aligned allocator so hot arrays start on a 64-byte
// boundary, and a CSR-style pod arena that packs many small lists into one
// contiguous pool so traversals stop chasing per-list heap pointers.
//
// Used by the lower-bound hot path (AltIndex landmark rows, inverted-heap
// entries) and the APX-NVD structures (site adjacency lists, quadtree
// leaves) — see docs/performance.md.
#ifndef KSPIN_COMMON_ARENA_H_
#define KSPIN_COMMON_ARENA_H_

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

/// Many small immutable lists packed into one contiguous pod pool with a
/// CSR offset table — the arena replacement for vector<vector<T>>. Lists
/// are appended once (construction / deserialization) and then read-only;
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
  const AlignedVector<T>& Pool() const { return pool_; }

 private:
  AlignedVector<T> pool_;
  std::vector<std::uint32_t> offsets_;  // offsets_[i]..offsets_[i+1].
};

}  // namespace kspin

#endif  // KSPIN_COMMON_ARENA_H_
