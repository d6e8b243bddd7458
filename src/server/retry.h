// Client-side resilience: RetryingClient wraps Client with reconnect +
// bounded, jittered exponential backoff.
//
// What gets retried:
//  - connect failures (the server may be restarting);
//  - in-band kOverloaded rejections (load shedding is an invitation to
//    back off and come again);
//  - ClientError mid-request (disconnect / torn response) — but only for
//    idempotent operations. A torn keyless InsertDoc may or may not have
//    been applied server-side, so re-sending it could double-insert; such
//    failures surface to the caller instead.
//
// Backoff is exponential with deterministic jitter (seeded xorshift, so
// tests are reproducible): attempt i sleeps a uniform value in
// [base/2, base] where base = min(max_backoff_ms, initial * mult^i).
// The sleep function is injectable so tests never actually wait.
#ifndef KSPIN_SERVER_RETRY_H_
#define KSPIN_SERVER_RETRY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "server/client.h"

namespace kspin::server {

struct RetryPolicy {
  /// Total tries including the first; 1 disables retrying.
  std::uint32_t max_attempts = 4;
  std::uint32_t initial_backoff_ms = 50;
  std::uint32_t max_backoff_ms = 2000;
  /// Backoff growth factor per attempt.
  double multiplier = 2.0;
  /// Seed for the deterministic jitter stream.
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  /// Overall time budget for one operation across all attempts and
  /// backoffs, in milliseconds; 0 = unlimited. Once the budget can no
  /// longer fund another backoff + attempt, the current attempt is the
  /// last — so attempts x backoff never exceeds the caller's patience.
  /// Per-request deadlines sent while a budget is active are clamped to
  /// the remaining budget (see Search).
  std::uint32_t max_total_ms = 0;
};

/// A Client plus retry policy. Like Client, NOT thread-safe. Connection
/// management is implicit: each operation connects on demand and drops
/// the connection on transport errors so the next attempt reconnects.
class RetryingClient {
 public:
  using SleepFn = std::function<void(std::uint32_t ms)>;

  RetryingClient(std::string host, std::uint16_t port,
                 RetryPolicy policy = {});

  /// Replaces the real sleep (used between attempts) — test hook.
  void SetSleepFunction(SleepFn sleep_fn) { sleep_ = std::move(sleep_fn); }

  /// Attempts consumed by the last operation (1 = no retries needed).
  std::uint32_t LastAttempts() const { return last_attempts_; }

  /// Epoch stamped into every mutation (see Client::SetFenceEpoch);
  /// survives the reconnects this wrapper performs between attempts.
  void SetFenceEpoch(std::uint64_t epoch) { client_.SetFenceEpoch(epoch); }
  std::uint64_t FenceEpoch() const { return client_.FenceEpoch(); }

  /// Trace context stamped onto every request (trace trailer). The
  /// wrapped Client is reused across attempts and reconnects, so one
  /// trace_id survives every retry of an operation.
  void SetTraceContext(const TraceContext& context) {
    client_.SetTraceContext(context);
  }
  const TraceContext& GetTraceContext() const {
    return client_.GetTraceContext();
  }

  /// Flight-recorder dump (DUMP_DIAG) — an idempotent read.
  Client::MetricsReply DumpDiag();

  // Idempotent operations — retried on every retryable failure.
  Client::Reply Ping();
  Client::MetricsReply Metrics();
  Client::HealthReply Health();
  Client::FetchSnapshotReply FetchSnapshotChunk(std::uint64_t sequence,
                                                std::uint64_t offset,
                                                std::uint32_t max_bytes = 0);
  /// When the policy has a max_total_ms budget, the deadline actually
  /// sent is min(deadline_ms, remaining budget) — a retried request never
  /// asks the server for more time than the caller is still willing to
  /// wait (deadline_ms 0 becomes the remaining budget).
  Client::SearchReply Search(std::string_view query, VertexId from,
                             std::uint32_t k, bool ranked = false,
                             std::uint32_t deadline_ms = 0);
  /// Snapshot is safe to repeat (worst case: an extra snapshot file,
  /// pruned later); Reload always converges on the newest valid snapshot.
  Client::SnapshotReply Snapshot();
  Client::SnapshotReply Reload();

  // Mutations — with a nonzero idempotency key the server deduplicates
  // re-sends, so a torn round trip is safe to retry like an idempotent
  // read. Key 0 is retried on connect failure and kOverloaded only (the
  // request provably never reached the server); a mid-request disconnect
  // rethrows because the mutation may already be applied.
  Client::MutateReply InsertDoc(std::uint64_t idempotency_key,
                                VertexId vertex, std::string_view name,
                                std::span<const std::string> keywords);
  Client::MutateReply DeleteDoc(std::uint64_t idempotency_key, ObjectId id);
  Client::MutateReply UpdateDoc(std::uint64_t idempotency_key, ObjectId id,
                                std::span<const std::string> add_keywords,
                                std::span<const std::string> remove_keywords);

 private:
  /// Runs `op` under the retry loop. `op` must return a type derived
  /// from Client::Reply.
  template <typename Op>
  auto Execute(bool idempotent, Op&& op) -> decltype(op());

  /// Jittered backoff for 0-based attempt index, in milliseconds.
  std::uint32_t BackoffMs(std::uint32_t attempt);
  std::uint64_t NextRandom();

  /// Deadline to actually send for a caller-requested `deadline_ms`,
  /// clamped to the remaining max_total_ms budget (no-op without one).
  std::uint32_t ClampedDeadlineMs(std::uint32_t requested) const;

  std::string host_;
  std::uint16_t port_;
  RetryPolicy policy_;
  Client client_;
  SleepFn sleep_;
  std::uint64_t rng_state_;
  std::uint32_t last_attempts_ = 0;
  /// Budget left before the current attempt; 0 = no budget configured.
  /// Never 0 while a budget is active (clamped up to 1 ms) so it stays
  /// distinguishable from "no deadline" on the wire.
  std::uint32_t remaining_budget_ms_ = 0;
};

template <typename Op>
auto RetryingClient::Execute(bool idempotent, Op&& op) -> decltype(op()) {
  last_attempts_ = 0;
  const auto start = std::chrono::steady_clock::now();
  // Budget consumed so far: wall time, but at least the backoffs already
  // "slept" — with an injected no-op sleep (tests) the budget still
  // drains deterministically.
  std::uint64_t slept_ms = 0;
  const auto used_ms = [&] {
    const auto real = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return std::max<std::uint64_t>(static_cast<std::uint64_t>(real),
                                   slept_ms);
  };
  for (std::uint32_t attempt = 0;; ++attempt) {
    ++last_attempts_;
    const std::uint32_t backoff = BackoffMs(attempt);
    bool last = attempt + 1 >= policy_.max_attempts;
    if (policy_.max_total_ms > 0) {
      const std::uint64_t used = used_ms();
      // This attempt is the last one the budget can fund if there is no
      // room left for its backoff plus another attempt.
      if (used + backoff >= policy_.max_total_ms) last = true;
      remaining_budget_ms_ = static_cast<std::uint32_t>(
          used >= policy_.max_total_ms
              ? 1
              : std::max<std::uint64_t>(1, policy_.max_total_ms - used));
    } else {
      remaining_budget_ms_ = 0;
    }

    // Phase 1: connect. Failures here are always retryable — nothing has
    // been sent yet.
    bool connected = client_.Connected();
    if (!connected) {
      try {
        client_.Connect(host_, port_);
        connected = true;
      } catch (const ClientError&) {
        if (last) throw;
      }
    }

    // Phase 2: the round trip itself.
    std::uint32_t sleep_ms = backoff;
    if (connected) {
      try {
        auto reply = op();
        if (reply.status != StatusCode::kOverloaded || last) return reply;
        // Shed at admission; definitely not applied, safe to re-send.
        // The server's RETRY_AFTER hint extends (never shortens) the
        // jittered backoff so clients stay away at least as long as the
        // shedding server asked, still capped by max_backoff_ms.
        if (reply.retry_after_ms > 0) {
          sleep_ms = std::max(
              sleep_ms, std::min(reply.retry_after_ms,
                                 policy_.max_backoff_ms));
        }
      } catch (const ClientError&) {
        client_.Close();
        if (!idempotent || last) throw;
      }
    } else if (last) {
      // Unreachable in practice (a failed last connect threw above), but
      // keeps the loop provably bounded.
      throw ClientError("connect failed");
    }

    sleep_(sleep_ms);
    slept_ms += sleep_ms;
  }
}

}  // namespace kspin::server

#endif  // KSPIN_SERVER_RETRY_H_
