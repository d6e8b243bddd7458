// Client-side failover across a replicated deployment.
//
// FailoverClient wraps one RetryingClient per endpoint and routes by
// operation class:
//
//  - Reads (ping/stats/metrics/health/search) prefer a healthy replica — keeping
//    read traffic off the primary — and fail over to the next endpoint on
//    any transport failure (connect refused, timeout, torn stream). The
//    endpoint that last answered is sticky, so steady state costs no
//    extra probing.
//  - Writes (mutations, snapshot/reload) go to the endpoint believed to
//    be the primary. A NOT_PRIMARY rejection carries the real primary's
//    "host:port"; the client follows the redirect (adding the endpoint if
//    it was not configured) a bounded number of times.
//
// Like Client/RetryingClient, NOT thread-safe.
#ifndef KSPIN_SERVER_FAILOVER_H_
#define KSPIN_SERVER_FAILOVER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "server/replication.h"
#include "server/retry.h"

namespace kspin::server {

class FailoverClient {
 public:
  /// `endpoints` must be non-empty; the first is the initial guess for
  /// both reads and writes until health probes say otherwise.
  explicit FailoverClient(std::vector<Endpoint> endpoints,
                          RetryPolicy policy = {});

  /// Forwards to every per-endpoint RetryingClient — test hook.
  void SetSleepFunction(RetryingClient::SleepFn sleep_fn);

  /// Endpoints currently known (configured + learned from redirects).
  const std::vector<Endpoint>& Endpoints() const { return endpoints_; }
  /// Index (into Endpoints()) that served the last successful operation.
  std::size_t LastEndpoint() const { return last_endpoint_; }

  /// Re-learns roles and epochs from a fresh health-probe round now.
  /// Writes also re-probe automatically when the last round is older than
  /// the probe interval, or after a STALE_EPOCH / redirect-exhausted
  /// rejection — so a promotion re-routes writes within one interval even
  /// when the old primary never answers NOT_PRIMARY.
  void RefreshRoles();
  /// Probe staleness bound for write routing (default 1000 ms).
  void SetProbeIntervalMs(std::uint32_t ms) { probe_interval_ms_ = ms; }
  /// Highest primary epoch observed across health probes and write acks;
  /// stamped into every mutation as its fence epoch.
  std::uint64_t ObservedEpoch() const { return fence_epoch_; }
  /// Seeds the fence epoch from outside (e.g. a CLI flag or a value
  /// persisted by a previous process); only ever raises it.
  void SetFenceEpoch(std::uint64_t epoch) { ObserveEpoch(epoch); }

  /// Trace id stamped on the most recent logical operation (0 before the
  /// first one). Every retry, endpoint failover, NOT_PRIMARY redirect,
  /// and RETRY_AFTER hop of that operation carried this same id, so one
  /// grep over server diag dumps reconstructs the whole journey.
  std::uint64_t LastTraceId() const { return trace_.trace_id; }

  // Reads — replica-preferred, endpoint failover on transport errors.
  // Throws ClientError only when every endpoint failed.
  Client::Reply Ping();
  Client::MetricsReply Metrics();
  Client::HealthReply Health();
  Client::SearchReply Search(std::string_view query, VertexId from,
                             std::uint32_t k, bool ranked = false,
                             std::uint32_t deadline_ms = 0);

  // Writes — primary-routed, NOT_PRIMARY redirects followed (at most
  // kMaxRedirects hops). A still-kNotPrimary reply after that surfaces
  // to the caller.
  Client::SnapshotReply Snapshot();
  Client::SnapshotReply Reload();

  // Keyed mutations. `idempotency_key` 0 means "generate one": the
  // same key then rides across every retry and redirect of this call, so
  // the operation applies at most once even through a failover.
  Client::MutateReply InsertDoc(VertexId vertex, std::string_view name,
                                std::span<const std::string> keywords,
                                std::uint64_t idempotency_key = 0);
  Client::MutateReply DeleteDoc(ObjectId id,
                                std::uint64_t idempotency_key = 0);
  Client::MutateReply UpdateDoc(ObjectId id,
                                std::span<const std::string> add_keywords,
                                std::span<const std::string> remove_keywords,
                                std::uint64_t idempotency_key = 0);

  static constexpr std::size_t kMaxRedirects = 2;

 private:
  /// Health-probes endpoints once to learn roles: read order starts at a
  /// healthy replica, writes at the endpoint claiming primary — among
  /// concurrent primary claimants the highest epoch wins. Best effort —
  /// unreachable endpoints just keep their defaults.
  void ProbeRoles();
  std::size_t FindOrAddEndpoint(const Endpoint& endpoint);
  /// Fresh nonzero idempotency key (xorshift stream seeded per client).
  std::uint64_t NextIdempotencyKey();
  /// Latches the max epoch seen and fences every per-endpoint client
  /// with it.
  void ObserveEpoch(std::uint64_t epoch);
  /// Mints a fresh trace context for one logical operation and stamps it
  /// onto every per-endpoint client, so the id survives failover hops.
  void BeginTrace();

  template <typename Op>
  auto ExecuteRead(Op&& op) -> decltype(op(std::declval<RetryingClient&>()));
  template <typename Op>
  auto ExecuteWrite(Op&& op) -> decltype(op(std::declval<RetryingClient&>()));

  std::vector<Endpoint> endpoints_;
  // unique_ptr: RetryingClient is not movable (owns a Client with fd).
  std::vector<std::unique_ptr<RetryingClient>> clients_;
  RetryPolicy policy_;
  RetryingClient::SleepFn sleep_;
  std::size_t read_index_ = 0;     ///< Sticky read endpoint.
  std::size_t primary_index_ = 0;  ///< Believed primary.
  std::size_t last_endpoint_ = 0;
  bool probed_ = false;
  std::uint64_t key_state_ = 0;    ///< Idempotency-key xorshift state.
  std::uint64_t trace_state_ = 0;  ///< Trace-id xorshift state.
  TraceContext trace_;             ///< Context of the current operation.
  std::uint64_t fence_epoch_ = 0;  ///< Max primary epoch ever observed.
  std::uint32_t probe_interval_ms_ = 1000;
  std::chrono::steady_clock::time_point last_probe_{};
};

template <typename Op>
auto FailoverClient::ExecuteRead(Op&& op)
    -> decltype(op(std::declval<RetryingClient&>())) {
  if (!probed_) ProbeRoles();
  // One trace id per logical read: every endpoint tried below (and every
  // retry inside each RetryingClient) carries the same id.
  BeginTrace();
  // Try every endpoint once, starting from the sticky one. Each attempt
  // already carries the per-endpoint retry policy, so a ClientError here
  // means "this endpoint is down" — move on. An in-band OVERLOADED reply
  // means "up but shedding": try the next replica too, but keep the
  // sticky index where it was — a shedding node is healthy and will
  // take reads again once its queue drains.
  using ReplyT = decltype(op(std::declval<RetryingClient&>()));
  std::optional<ReplyT> overloaded;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const std::size_t index = (read_index_ + i) % clients_.size();
    try {
      auto reply = op(*clients_[index]);
      if (reply.status == StatusCode::kOverloaded) {
        if (!overloaded) overloaded = std::move(reply);
        continue;
      }
      read_index_ = index;
      last_endpoint_ = index;
      return reply;
    } catch (const ClientError&) {
      if (i + 1 == clients_.size() && !overloaded) throw;
    }
  }
  // Every endpoint was down or shedding; surface the first shed reply
  // (it carries the strongest retry-after signal for the caller).
  if (overloaded) return std::move(*overloaded);
  throw ClientError("no endpoints");  // Unreachable; clients_ non-empty.
}

template <typename Op>
auto FailoverClient::ExecuteWrite(Op&& op)
    -> decltype(op(std::declval<RetryingClient&>())) {
  // Routing intel goes stale the moment a replica is promoted; re-probe
  // when the last round is old so writes re-route within one interval.
  if (!probed_ ||
      std::chrono::steady_clock::now() - last_probe_ >
          std::chrono::milliseconds(probe_interval_ms_)) {
    ProbeRoles();
  }
  // One trace id per logical write: NOT_PRIMARY redirects and the
  // post-STALE_EPOCH re-probe below all ride under the same id.
  BeginTrace();
  bool reprobed = false;
  for (std::size_t redirects = 0;; ++redirects) {
    auto reply = op(*clients_[primary_index_]);
    const bool stale = reply.status == StatusCode::kStaleEpoch;
    const bool exhausted =
        reply.status == StatusCode::kNotPrimary && redirects >= kMaxRedirects;
    if (stale || exhausted) {
      // Redirects cannot resolve these (a fenced ex-primary redirects
      // nowhere useful); a fresh probe round can — the newly promoted
      // primary claims the highest epoch in HEALTH.
      if (!reprobed) {
        reprobed = true;
        const std::size_t before = primary_index_;
        ProbeRoles();
        if (primary_index_ != before) continue;
      }
      last_endpoint_ = primary_index_;
      return reply;
    }
    if (reply.status != StatusCode::kNotPrimary) {
      if constexpr (requires { reply.primary_epoch; }) {
        // Acks carry the primary's epoch; remember the newest so future
        // writes fence anything older.
        if (reply.ok()) ObserveEpoch(reply.primary_epoch);
      }
      last_endpoint_ = primary_index_;
      return reply;
    }
    // The replica told us who the primary is; follow the redirect.
    const auto redirect = ParseEndpoint(reply.error);
    if (!redirect) return reply;
    const std::size_t target = FindOrAddEndpoint(*redirect);
    if (target == primary_index_) return reply;  // Would loop; give up.
    primary_index_ = target;
  }
}

}  // namespace kspin::server

#endif  // KSPIN_SERVER_FAILOVER_H_
