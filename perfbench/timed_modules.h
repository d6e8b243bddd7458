// Transparent timing decorators for K-SPIN's two pluggable modules, the
// Network Distance Module (DistanceOracle) and the Lower Bounding Module
// (LowerBoundModule). Both forward every call unchanged, so answers are
// identical with and without them; they only add wall-clock spans and
// counts around the calls.
//
// TimedOracle keeps its counters inside each per-thread OracleWorkspace
// it hands out: the thread that owns a workspace is its only writer, so
// a traced run adds no shared read-modify-write atomics to the serving
// path. Totals are summed across workspaces on demand, while the server
// is idle.
#ifndef KSPIN_PERFBENCH_TIMED_MODULES_H_
#define KSPIN_PERFBENCH_TIMED_MODULES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "routing/distance_oracle.h"
#include "routing/lower_bound.h"

namespace kspin::perfbench {

/// Monotonic nanoseconds (steady clock).
std::uint64_t NowNs();

/// Median cost in ns of one empty timed region (two back-to-back clock
/// reads). Decorated time is reported net of it, per timed call.
std::uint64_t ClockOverheadNs();

/// Which traffic a workspace serves. Queries run on processors the server
/// creates per worker; ApxNvd lazy inserts use the oracle's single default
/// workspace under the server's mutation mutex.
enum class OracleTraffic : std::uint8_t { kQuery = 0, kWrite = 1 };

struct OracleCounters {
  std::uint64_t calls = 0;          ///< NetworkDistance calls.
  std::uint64_t ns = 0;             ///< Time inside them (raw).
  std::uint64_t source_batches = 0; ///< BeginSourceBatch calls.
  std::uint64_t source_batch_ns = 0;

  OracleCounters& operator+=(const OracleCounters& o) {
    calls += o.calls;
    ns += o.ns;
    source_batches += o.source_batches;
    source_batch_ns += o.source_batch_ns;
    return *this;
  }
};

/// Timing decorator over any DistanceOracle. With timing off and no delay
/// it is a pure pass-through (one extra virtual call).
class TimedOracle final : public DistanceOracle {
 public:
  /// `inner` must outlive the decorator.
  explicit TimedOracle(const DistanceOracle& inner) : inner_(inner) {}

  TimedOracle(const TimedOracle&) = delete;
  TimedOracle& operator=(const TimedOracle&) = delete;

  using DistanceOracle::BeginSourceBatch;
  using DistanceOracle::NetworkDistance;

  std::unique_ptr<OracleWorkspace> MakeWorkspace() const override;
  Distance NetworkDistance(OracleWorkspace& workspace, VertexId s,
                           VertexId t) const override;
  void BeginSourceBatch(OracleWorkspace& workspace,
                        VertexId source) const override;
  std::string Name() const override { return inner_.Name(); }
  std::size_t MemoryBytes() const override { return inner_.MemoryBytes(); }

  /// Records spans and counts when on. Flip only while no call runs.
  void SetTiming(bool on) { timing_.store(on, std::memory_order_relaxed); }
  /// Test hook: after each NetworkDistance, busy-waits `percent`% of the
  /// call's own duration, a deliberate slowdown of this one layer.
  void SetDelayPercent(unsigned percent) {
    delay_percent_.store(percent, std::memory_order_relaxed);
  }

  /// Creates the base class's default workspace (the one ApxNvd inserts
  /// use) labelled kWrite. Call once, before serving.
  void PrimeDefaultWorkspace();

  /// Sum over every workspace of `traffic`, live or destroyed.
  OracleCounters Totals(OracleTraffic traffic) const;
  /// Zeroes every counter. Call only while no call runs.
  void ResetCounters();

 private:
  class Workspace;
  // Shared with every workspace: the base class destroys its default
  // workspace after this object's members are gone.
  struct Registry {
    std::mutex mutex;
    std::vector<Workspace*> live;        // Guarded by mutex.
    OracleCounters retired[2];           // Guarded by mutex.
  };

  const DistanceOracle& inner_;
  std::atomic<bool> timing_{false};
  std::atomic<unsigned> delay_percent_{0};
  std::atomic<OracleTraffic> next_traffic_{OracleTraffic::kQuery};
  const std::shared_ptr<Registry> registry_ = std::make_shared<Registry>();
};

struct LowerBoundCounters {
  std::uint64_t pair_calls = 0;   ///< LowerBound (one target) calls.
  std::uint64_t batch_calls = 0;  ///< LowerBoundBatch calls.
  std::uint64_t batch_items = 0;  ///< Targets priced across batch calls.
  std::uint64_t ns = 0;           ///< Time inside both kinds (raw).

  std::uint64_t Calls() const { return pair_calls + batch_calls; }
  std::uint64_t Evaluations() const { return pair_calls + batch_items; }
};

/// Timing decorator over a LowerBoundModule. Its counters are plain
/// fields: it serves one thread (the in-process replay).
class TimedLowerBound final : public LowerBoundModule {
 public:
  /// `inner` must outlive the decorator.
  explicit TimedLowerBound(const LowerBoundModule& inner) : inner_(inner) {}

  Distance LowerBound(VertexId s, VertexId t) const override;
  void LowerBoundBatch(VertexId s, std::span<const VertexId> targets,
                       std::span<Distance> out) const override;
  std::string Name() const override { return inner_.Name(); }
  std::size_t MemoryBytes() const override { return inner_.MemoryBytes(); }

  const LowerBoundCounters& Counters() const { return counters_; }

 private:
  const LowerBoundModule& inner_;
  mutable LowerBoundCounters counters_;
};

}  // namespace kspin::perfbench

#endif  // KSPIN_PERFBENCH_TIMED_MODULES_H_
