#include "timed_modules.h"

#include <algorithm>
#include <chrono>

namespace kspin::perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t ClockOverheadNs() {
  static const std::uint64_t overhead = [] {
    std::vector<std::uint64_t> samples(20001);
    for (std::uint64_t& sample : samples) {
      const std::uint64_t start = NowNs();
      sample = NowNs() - start;
    }
    std::nth_element(samples.begin(),
                     samples.begin() + samples.size() / 2, samples.end());
    return samples[samples.size() / 2];
  }();
  return overhead;
}

namespace {

// The owner thread is the only writer of a workspace's counters, so a
// relaxed load + store (no locked read-modify-write) is enough; the
// atomics only make the idle-time reads from another thread race-free.
inline void Bump(std::atomic<std::uint64_t>& counter, std::uint64_t by) {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}

// The pause keeps the wait from running the core flat out: a bare clock
// loop also slowed the code around it (lower bounds, service) by about as
// much as the delay itself.
inline void SpinFor(std::uint64_t ns) {
  const std::uint64_t until = NowNs() + ns;
  while (NowNs() < until) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

}  // namespace

class TimedOracle::Workspace final : public OracleWorkspace {
 public:
  Workspace(std::unique_ptr<OracleWorkspace> inner, OracleTraffic traffic,
            std::shared_ptr<Registry> registry)
      : inner(std::move(inner)),
        traffic(traffic),
        registry_(std::move(registry)) {
    std::lock_guard<std::mutex> lock(registry_->mutex);
    registry_->live.push_back(this);
  }

  ~Workspace() override {
    std::lock_guard<std::mutex> lock(registry_->mutex);
    registry_->retired[static_cast<int>(traffic)] += Snapshot();
    auto& live = registry_->live;
    live.erase(std::find(live.begin(), live.end(), this));
  }

  OracleCounters Snapshot() const {
    return {calls.load(std::memory_order_relaxed),
            ns.load(std::memory_order_relaxed),
            source_batches.load(std::memory_order_relaxed),
            source_batch_ns.load(std::memory_order_relaxed)};
  }

  void Reset() {
    calls.store(0, std::memory_order_relaxed);
    ns.store(0, std::memory_order_relaxed);
    source_batches.store(0, std::memory_order_relaxed);
    source_batch_ns.store(0, std::memory_order_relaxed);
  }

  const std::unique_ptr<OracleWorkspace> inner;
  const OracleTraffic traffic;
  // One cache line per workspace, so workers never share one.
  alignas(64) std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> source_batches{0};
  std::atomic<std::uint64_t> source_batch_ns{0};

 private:
  const std::shared_ptr<Registry> registry_;
};

std::unique_ptr<OracleWorkspace> TimedOracle::MakeWorkspace() const {
  return std::make_unique<Workspace>(inner_.MakeWorkspace(),
                                     next_traffic_.load(), registry_);
}

Distance TimedOracle::NetworkDistance(OracleWorkspace& workspace, VertexId s,
                                      VertexId t) const {
  auto& ws = static_cast<Workspace&>(workspace);
  const bool timing = timing_.load(std::memory_order_relaxed);
  const unsigned delay = delay_percent_.load(std::memory_order_relaxed);
  if (!timing && delay == 0) return inner_.NetworkDistance(*ws.inner, s, t);
  const std::uint64_t start = NowNs();
  const Distance d = inner_.NetworkDistance(*ws.inner, s, t);
  if (delay > 0) SpinFor((NowNs() - start) * delay / 100);
  if (timing) {
    Bump(ws.calls, 1);
    Bump(ws.ns, NowNs() - start);
  }
  return d;
}

void TimedOracle::BeginSourceBatch(OracleWorkspace& workspace,
                                   VertexId source) const {
  auto& ws = static_cast<Workspace&>(workspace);
  if (!timing_.load(std::memory_order_relaxed)) {
    return inner_.BeginSourceBatch(*ws.inner, source);
  }
  const std::uint64_t start = NowNs();
  inner_.BeginSourceBatch(*ws.inner, source);
  Bump(ws.source_batches, 1);
  Bump(ws.source_batch_ns, NowNs() - start);
}

void TimedOracle::PrimeDefaultWorkspace() {
  next_traffic_.store(OracleTraffic::kWrite);
  NetworkDistance(VertexId{0}, VertexId{0});
  next_traffic_.store(OracleTraffic::kQuery);
}

OracleCounters TimedOracle::Totals(OracleTraffic traffic) const {
  std::lock_guard<std::mutex> lock(registry_->mutex);
  OracleCounters total = registry_->retired[static_cast<int>(traffic)];
  for (const Workspace* workspace : registry_->live) {
    if (workspace->traffic == traffic) total += workspace->Snapshot();
  }
  return total;
}

void TimedOracle::ResetCounters() {
  std::lock_guard<std::mutex> lock(registry_->mutex);
  registry_->retired[0] = registry_->retired[1] = {};
  for (Workspace* workspace : registry_->live) workspace->Reset();
}

Distance TimedLowerBound::LowerBound(VertexId s, VertexId t) const {
  const std::uint64_t start = NowNs();
  const Distance lb = inner_.LowerBound(s, t);
  counters_.ns += NowNs() - start;
  ++counters_.pair_calls;
  return lb;
}

void TimedLowerBound::LowerBoundBatch(VertexId s,
                                      std::span<const VertexId> targets,
                                      std::span<Distance> out) const {
  const std::uint64_t start = NowNs();
  inner_.LowerBoundBatch(s, targets, out);
  counters_.ns += NowNs() - start;
  ++counters_.batch_calls;
  counters_.batch_items += targets.size();
}

}  // namespace kspin::perfbench
