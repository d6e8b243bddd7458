// Overload-resilience building blocks for kspin_server: an AIMD
// concurrency limiter driven by observed p99 latency, per-connection
// token-bucket rate limiting, and a brownout controller with entry/exit
// hysteresis. All three are plain deterministic state machines — no
// threads, no clocks of their own — so they unit-test without sockets;
// the server ticks them from its I/O loop (docs/protocol.md "Overload
// control & degradation").
#ifndef KSPIN_SERVER_OVERLOAD_H_
#define KSPIN_SERVER_OVERLOAD_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "server/metrics.h"

namespace kspin::server {

/// Multiplicative decrease the overload controller applies to the
/// admission limit on an SLO violation; additive increase is +1 per
/// healthy tick.
inline constexpr double kAimdDecrease = 0.7;

/// Tuning for the whole subsystem; a default-constructed value disables
/// every mechanism (SLO 0, CoDel target 0, rate 0), so existing callers
/// keep the plain bounded-FIFO behaviour they had.
struct OverloadOptions {
  /// Query p99 latency objective in milliseconds; 0 disables the AIMD
  /// limiter *and* brownout (both key off SLO violations).
  std::uint32_t latency_slo_ms = 0;
  /// Controller tick period (p99 is measured per tick over the queries
  /// that completed within it).
  std::uint32_t tick_interval_ms = 100;
  /// The limit never drops below this (keeps a trickle of real traffic
  /// flowing so recovery is observable).
  std::size_t min_limit = 4;

  /// CoDel sojourn target in milliseconds; 0 disables the dequeue-time
  /// sojourn check. The congestion interval is tick_interval_ms.
  std::uint32_t codel_target_ms = 0;

  /// Consecutive SLO-violating ticks before brownout engages.
  std::uint32_t brownout_enter_ticks = 5;
  /// Consecutive healthy ticks before brownout disengages (exit is
  /// deliberately slower than entry so the server does not flap).
  std::uint32_t brownout_exit_ticks = 10;
  /// k is clamped to this while browned out (0 = no clamp).
  std::uint32_t brownout_max_k = 8;

  /// Per-connection sustained request rate; 0 disables rate limiting.
  double per_client_qps = 0.0;
  /// Per-connection burst allowance; 0 = 2 × per_client_qps.
  double per_client_burst = 0.0;

  /// Fixed RETRY_AFTER hint carried on OVERLOADED replies, in
  /// milliseconds; 0 = compute adaptively from queue drain time.
  std::uint32_t retry_after_ms = 0;
};

/// Token bucket for per-connection rate limiting. One instance lives in
/// each server Connection and is touched only by the I/O thread, so it
/// needs no locking. Time is passed in (steady_clock at the call site)
/// to keep tests deterministic.
class TokenBucket {
 public:
  using Clock = std::chrono::steady_clock;

  /// Refills at `rate` tokens/second up to `burst`, then tries to take
  /// one token. A fresh bucket starts full.
  bool TryAcquire(Clock::time_point now, double rate, double burst) {
    if (rate <= 0.0) return true;
    if (burst <= 0.0) burst = 2.0 * rate;
    if (last_refill_ == Clock::time_point{}) {
      tokens_ = burst;
    } else {
      const double elapsed =
          std::chrono::duration<double>(now - last_refill_).count();
      tokens_ = std::min(burst, tokens_ + elapsed * rate);
    }
    last_refill_ = now;
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

 private:
  double tokens_ = 0.0;
  Clock::time_point last_refill_{};
};

/// AIMD concurrency limiter: observes the per-tick p99 of query latency
/// against the SLO and moves the admission-queue limit — multiplicative
/// decrease on violation, additive increase (+1) when healthy. The
/// classic TCP-congestion shape: converges onto the largest backlog the
/// service can drain within the SLO.
class AimdLimiter {
 public:
  AimdLimiter(std::size_t max_limit, std::size_t min_limit, double decrease)
      : max_limit_(std::max<std::size_t>(max_limit, 1)),
        min_limit_(std::clamp<std::size_t>(min_limit, 1, max_limit_)),
        decrease_(std::clamp(decrease, 0.1, 0.99)),
        limit_(max_limit_) {}

  /// One controller tick. `p99_us` is the tick's observed query p99 (0
  /// when nothing completed — treated as healthy: an idle server must
  /// recover its limit). Returns true when this tick violated the SLO.
  bool Observe(std::uint64_t p99_us, std::uint64_t slo_us) {
    const bool violated = p99_us > slo_us;
    if (violated) {
      limit_ = std::max<std::size_t>(
          min_limit_, static_cast<std::size_t>(
                          static_cast<double>(limit_) * decrease_));
    } else if (limit_ < max_limit_) {
      ++limit_;
    }
    return violated;
  }

  std::size_t limit() const { return limit_; }

 private:
  const std::size_t max_limit_;
  const std::size_t min_limit_;
  const double decrease_;
  std::size_t limit_;
};

/// Brownout hysteresis: engages after `enter_ticks` consecutive
/// overloaded ticks, disengages after `exit_ticks` consecutive healthy
/// ones. Asymmetric on purpose — entering late sheds too little,
/// exiting early flaps.
class BrownoutController {
 public:
  BrownoutController(std::uint32_t enter_ticks, std::uint32_t exit_ticks)
      : enter_ticks_(std::max<std::uint32_t>(enter_ticks, 1)),
        exit_ticks_(std::max<std::uint32_t>(exit_ticks, 1)) {}

  /// One tick; returns the (possibly new) brownout state.
  bool Update(bool overloaded) {
    if (overloaded) {
      healthy_run_ = 0;
      if (!active_ && ++overloaded_run_ >= enter_ticks_) {
        active_ = true;
        ++entries_;
      }
    } else {
      overloaded_run_ = 0;
      if (active_ && ++healthy_run_ >= exit_ticks_) active_ = false;
    }
    return active_;
  }

  bool active() const { return active_; }
  std::uint64_t entries() const { return entries_; }

 private:
  const std::uint32_t enter_ticks_;
  const std::uint32_t exit_ticks_;
  bool active_ = false;
  std::uint32_t overloaded_run_ = 0;
  std::uint32_t healthy_run_ = 0;
  std::uint64_t entries_ = 0;
};

/// The server's per-tick overload decision, derived by OverloadController
/// from one histogram snapshot.
struct OverloadDecision {
  std::size_t admission_limit = 0;  ///< New soft limit for the queue.
  bool slo_violated = false;        ///< This tick's p99 exceeded the SLO.
  bool brownout = false;            ///< Degraded serving is in effect.
  bool brownout_entered = false;    ///< This tick flipped brownout on.
  std::uint32_t retry_after_ms = 0; ///< Hint for OVERLOADED replies.
  std::uint64_t p99_us = 0;         ///< Max of the query and sojourn p99s.
};

/// Glues the limiter and brownout controller to the server's existing
/// log2 latency histograms: each Tick diffs the cumulative histograms
/// against the previous tick's snapshots, takes the deltas' p99, and
/// runs one AIMD + hysteresis step. Owned and called by the I/O thread
/// only.
///
/// Two histograms, not one, on purpose: query latency only records
/// requests that *executed*, so a tick where CoDel shed everything
/// would read as "no completions = healthy" and the limiter would open
/// back up into a queue it just proved was standing — a blind spot
/// where shedding sustains itself at full queue depth. The admission
/// sojourn histogram records every dequeued request including the shed
/// ones, so queueing pain counts as an SLO violation even when nothing
/// survives to be measured end-to-end.
class OverloadController {
 public:
  OverloadController(const OverloadOptions& options, std::size_t queue_capacity,
                     unsigned workers)
      : options_(options),
        workers_(std::max(workers, 1u)),
        limiter_(std::max<std::size_t>(queue_capacity, 1),
                 options.min_limit, kAimdDecrease),
        brownout_(options.brownout_enter_ticks, options.brownout_exit_ticks) {}

  bool enabled() const { return options_.latency_slo_ms > 0; }

  /// One controller tick over the cumulative query-latency and
  /// admission-sojourn histograms. The tick violates the SLO when
  /// either delta's p99 exceeds it. `queue_depth` feeds the adaptive
  /// RETRY_AFTER hint.
  OverloadDecision Tick(const HistogramSnapshot& query_latency,
                        const HistogramSnapshot& queue_sojourn,
                        std::size_t queue_depth);

  /// RETRY_AFTER hint: the configured constant, or an estimate of how
  /// long the current backlog takes to drain (depth × mean service time
  /// ÷ workers), doubled under brownout, clamped to [tick, 5000] ms so a
  /// bad estimate can neither hammer nor strand clients.
  std::uint32_t RetryAfterMs(std::size_t queue_depth, double mean_us,
                             bool brownout) const;

 private:
  /// Bucket-wise difference vs. the previous tick (cumulative counters
  /// only ever grow, so plain subtraction is safe).
  static HistogramSnapshot Delta(const HistogramSnapshot& current,
                                 const HistogramSnapshot& previous);

  const OverloadOptions options_;
  const unsigned workers_;
  AimdLimiter limiter_;
  BrownoutController brownout_;
  HistogramSnapshot previous_latency_{};
  HistogramSnapshot previous_sojourn_{};
};

}  // namespace kspin::server

#endif  // KSPIN_SERVER_OVERLOAD_H_
