// Live mutations: the typed operations behind the INSERT_DOC / DELETE_DOC
// / UPDATE_DOC opcodes, their oplog record encoding, the epoch gate that
// lets queries run wait-free while mutations apply, and the idempotency
// cache that makes retried mutations safe.
//
// One MutationRecord encoding serves three places: the op-log record
// payload, the FETCH_OPLOG chunk entries a replica tails, and (wrapped in
// the request bodies of wire.h) the client-facing opcodes. Applying a
// record to a PoiService is deterministic — same starting state, same
// record order, same resulting object ids — which is what makes crash
// replay and log-shipping replication converge on the primary's state.
#ifndef KSPIN_SERVER_MUTATION_H_
#define KSPIN_SERVER_MUTATION_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "service/poi_service.h"

namespace kspin::server {

/// Kinds of logged mutations. Values are part of the on-disk record
/// format; never renumber, only append.
enum class MutationOp : std::uint8_t {
  kInsert = 1,  ///< Register a new POI (name + vertex + keywords).
  kDelete = 2,  ///< Remove a POI from search.
  kUpdate = 3,  ///< Add / remove keyword tags on an existing POI.
  /// Marks a primary-epoch bump (failover promotion). Carries no service
  /// change — applying it is a no-op — but its op-log sequence is the
  /// epoch boundary: every earlier record belongs to the old epoch.
  kEpochTransition = 4,
};

/// One logged mutation. Exactly one of the op-specific field groups is
/// meaningful; the rest stay at their defaults.
struct MutationRecord {
  MutationOp op = MutationOp::kInsert;
  /// Client-chosen retry token; 0 = none. The primary remembers recent
  /// keys and answers a duplicate with the original result instead of
  /// applying twice, so RetryingClient may treat mutations as idempotent.
  std::uint64_t idempotency_key = 0;
  VertexId vertex = kInvalidVertex;   ///< kInsert.
  ObjectId object = kInvalidObject;   ///< kDelete / kUpdate.
  std::string name;                   ///< kInsert.
  std::vector<std::string> add_keywords;     ///< kInsert / kUpdate.
  std::vector<std::string> remove_keywords;  ///< kUpdate.
  std::uint64_t epoch = 0;            ///< kEpochTransition: the new epoch.
};

/// Record payload codec (the bytes stored in the oplog and shipped in
/// FETCH_OPLOG chunks). Decode rejects trailing bytes, unknown ops, and
/// structurally impossible field combinations.
std::vector<std::uint8_t> EncodeMutationRecord(const MutationRecord& record);
bool DecodeMutationRecord(std::span<const std::uint8_t> payload,
                          MutationRecord* record);

/// Applies one record to the service and returns the affected object id
/// (the newly assigned id for kInsert). Throws std::invalid_argument on
/// ids/vertices the service rejects — the caller maps that to BAD_QUERY
/// before the record ever reaches the log.
ObjectId ApplyMutationRecord(PoiService& service,
                             const MutationRecord& record);

/// Epoch gate: the reader/writer exclusion for the mutation apply path.
///
/// Readers (query workers) enter wait-free when no apply is in progress:
/// one fetch_add on a per-worker striped slot plus one load — no shared
/// CAS, no lock, so a reader never blocks on another reader and never
/// waits for a writer's *durability* work (oplog append + fsync happen
/// outside the gate). While an apply's in-memory window is open (tens of
/// microseconds), arriving readers spin-yield; writers wait for in-flight
/// readers to drain. Writers must already be serialized among themselves
/// (the server's mutation mutex). Every EndApply bumps the epoch, which
/// pairs with the engine's StructureGeneration to version what readers
/// observed.
class EpochGate {
 public:
  static constexpr std::size_t kSlots = 32;

  /// RAII read section. Obtain via Reader().
  class ReadGuard {
   public:
    ReadGuard(ReadGuard&& other) noexcept
        : gate_(other.gate_), slot_(other.slot_) {
      other.gate_ = nullptr;
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ReadGuard& operator=(ReadGuard&&) = delete;
    ~ReadGuard();

   private:
    friend class EpochGate;
    ReadGuard(EpochGate* gate, std::size_t slot)
        : gate_(gate), slot_(slot) {}
    EpochGate* gate_;
    std::size_t slot_;
  };

  /// Enters a read section. `slot_hint` (typically the worker index)
  /// stripes readers across slots to keep the fast path contention-free.
  ReadGuard Reader(std::size_t slot_hint);

  /// Opens / closes an apply window. Callers hold the mutation mutex, so
  /// at most one window is open at a time.
  void BeginApply();
  void EndApply();

  /// RAII apply window.
  class ApplyGuard {
   public:
    explicit ApplyGuard(EpochGate& gate) : gate_(gate) {
      gate_.BeginApply();
    }
    ~ApplyGuard() { gate_.EndApply(); }
    ApplyGuard(const ApplyGuard&) = delete;
    ApplyGuard& operator=(const ApplyGuard&) = delete;

   private:
    EpochGate& gate_;
  };

  /// Number of completed apply windows.
  std::uint64_t Epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> active{0};
  };
  Slot slots_[kSlots];
  std::atomic<bool> writer_active_{false};
  std::atomic<std::uint64_t> epoch_{0};
};

/// Bounded map of recently applied idempotency keys to their results.
/// Single-writer (callers hold the mutation mutex); lookups and inserts
/// are O(1); capacity eviction is FIFO. Keys only need to outlive a
/// client's retry window (seconds), not the log.
class IdempotencyCache {
 public:
  struct Result {
    std::uint64_t sequence = 0;
    ObjectId object = kInvalidObject;
  };

  explicit IdempotencyCache(std::size_t capacity = 4096)
      : capacity_(capacity) {}

  /// Returns the recorded result for `key`, or nullptr when unseen.
  const Result* Find(std::uint64_t key) const;
  /// Records the result of a freshly applied mutation (key 0 is ignored).
  void Remember(std::uint64_t key, Result result);

  std::size_t Size() const { return map_.size(); }

 private:
  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Result> map_;
  std::vector<std::uint64_t> fifo_;
  std::size_t fifo_head_ = 0;
};

}  // namespace kspin::server

#endif  // KSPIN_SERVER_MUTATION_H_
