#include "server/failover.h"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace kspin::server {

FailoverClient::FailoverClient(std::vector<Endpoint> endpoints,
                               RetryPolicy policy)
    : endpoints_(std::move(endpoints)), policy_(policy) {
  if (endpoints_.empty()) {
    throw std::invalid_argument("FailoverClient needs at least one endpoint");
  }
  // Seed the idempotency-key stream so two client processes started at
  // different instants do not collide (keys only need to be unique within
  // the server's dedup window, not cryptographically random).
  key_state_ = policy_.jitter_seed ^
               static_cast<std::uint64_t>(
                   std::chrono::steady_clock::now().time_since_epoch()
                       .count()) ^
               reinterpret_cast<std::uintptr_t>(this);
  // Independent stream for trace ids (same uniqueness bar: distinct
  // within the window an operator would grep diag dumps over).
  trace_state_ = key_state_ * 0x9e3779b97f4a7c15ull + 1;
  clients_.reserve(endpoints_.size());
  for (const Endpoint& endpoint : endpoints_) {
    clients_.push_back(std::make_unique<RetryingClient>(
        endpoint.host, endpoint.port, policy_));
  }
}

void FailoverClient::SetSleepFunction(RetryingClient::SleepFn sleep_fn) {
  sleep_ = sleep_fn;
  for (const auto& client : clients_) client->SetSleepFunction(sleep_fn);
}

void FailoverClient::RefreshRoles() { ProbeRoles(); }

void FailoverClient::ObserveEpoch(std::uint64_t epoch) {
  if (epoch <= fence_epoch_) return;
  fence_epoch_ = epoch;
  for (const auto& client : clients_) client->SetFenceEpoch(epoch);
}

void FailoverClient::BeginTrace() {
  // xorshift64; skip 0 (0 means "no trace" on the wire).
  do {
    trace_state_ ^= trace_state_ << 13;
    trace_state_ ^= trace_state_ >> 7;
    trace_state_ ^= trace_state_ << 17;
  } while (trace_state_ == 0);
  trace_.trace_id = trace_state_;
  trace_.parent_span_id = 0;
  trace_.flags = kTraceFlagSampled;
  for (const auto& client : clients_) client->SetTraceContext(trace_);
}

void FailoverClient::ProbeRoles() {
  probed_ = true;
  last_probe_ = std::chrono::steady_clock::now();
  if (clients_.size() < 2) return;  // Single endpoint: nothing to learn.
  // One non-retried health probe per endpoint; unreachable ones keep
  // their defaults and reads simply fail over past them.
  RetryPolicy probe_policy = policy_;
  probe_policy.max_attempts = 1;
  bool found_replica = false;
  bool found_primary = false;
  std::uint64_t best_primary_epoch = 0;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    RetryingClient probe(endpoints_[i].host, endpoints_[i].port,
                         probe_policy);
    if (sleep_) probe.SetSleepFunction(sleep_);
    try {
      const auto reply = probe.Health();
      if (!reply.ok()) continue;
      ObserveEpoch(reply.health.primary_epoch);
      if (reply.health.role == 1 && !found_replica) {
        read_index_ = i;
        found_replica = true;
      }
      if (reply.health.role == 0) {
        // During a failover two endpoints may both claim primary (the
        // fenced ex-primary and the freshly promoted replica); the
        // highest epoch is the live reign.
        if (!found_primary ||
            reply.health.primary_epoch > best_primary_epoch) {
          primary_index_ = i;
          best_primary_epoch = reply.health.primary_epoch;
          found_primary = true;
        }
      }
    } catch (const ClientError&) {
      // Down or unreachable; skip.
    }
  }
}

std::size_t FailoverClient::FindOrAddEndpoint(const Endpoint& endpoint) {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (endpoints_[i].host == endpoint.host &&
        endpoints_[i].port == endpoint.port) {
      return i;
    }
  }
  endpoints_.push_back(endpoint);
  clients_.push_back(std::make_unique<RetryingClient>(
      endpoint.host, endpoint.port, policy_));
  if (sleep_) clients_.back()->SetSleepFunction(sleep_);
  clients_.back()->SetFenceEpoch(fence_epoch_);
  // Redirect targets inherit the in-flight operation's trace context so
  // the hop shows up under the same trace_id on the new primary.
  clients_.back()->SetTraceContext(trace_);
  return endpoints_.size() - 1;
}

Client::Reply FailoverClient::Ping() {
  return ExecuteRead([](RetryingClient& c) { return c.Ping(); });
}

Client::MetricsReply FailoverClient::Metrics() {
  return ExecuteRead([](RetryingClient& c) { return c.Metrics(); });
}

Client::HealthReply FailoverClient::Health() {
  auto reply = ExecuteRead([](RetryingClient& c) { return c.Health(); });
  if (reply.ok()) ObserveEpoch(reply.health.primary_epoch);
  return reply;
}

Client::SearchReply FailoverClient::Search(std::string_view query,
                                           VertexId from, std::uint32_t k,
                                           bool ranked,
                                           std::uint32_t deadline_ms) {
  return ExecuteRead([&](RetryingClient& c) {
    return c.Search(query, from, k, ranked, deadline_ms);
  });
}

std::uint64_t FailoverClient::NextIdempotencyKey() {
  // xorshift64; skip 0 (0 means "no key" on the wire).
  do {
    key_state_ ^= key_state_ << 13;
    key_state_ ^= key_state_ >> 7;
    key_state_ ^= key_state_ << 17;
  } while (key_state_ == 0);
  return key_state_;
}

Client::MutateReply FailoverClient::InsertDoc(
    VertexId vertex, std::string_view name,
    std::span<const std::string> keywords, std::uint64_t idempotency_key) {
  const std::uint64_t key =
      idempotency_key != 0 ? idempotency_key : NextIdempotencyKey();
  return ExecuteWrite([&](RetryingClient& c) {
    return c.InsertDoc(key, vertex, name, keywords);
  });
}

Client::MutateReply FailoverClient::DeleteDoc(ObjectId id,
                                              std::uint64_t idempotency_key) {
  const std::uint64_t key =
      idempotency_key != 0 ? idempotency_key : NextIdempotencyKey();
  return ExecuteWrite(
      [&](RetryingClient& c) { return c.DeleteDoc(key, id); });
}

Client::MutateReply FailoverClient::UpdateDoc(
    ObjectId id, std::span<const std::string> add_keywords,
    std::span<const std::string> remove_keywords,
    std::uint64_t idempotency_key) {
  const std::uint64_t key =
      idempotency_key != 0 ? idempotency_key : NextIdempotencyKey();
  return ExecuteWrite([&](RetryingClient& c) {
    return c.UpdateDoc(key, id, add_keywords, remove_keywords);
  });
}

Client::SnapshotReply FailoverClient::Snapshot() {
  return ExecuteWrite([](RetryingClient& c) { return c.Snapshot(); });
}

Client::SnapshotReply FailoverClient::Reload() {
  return ExecuteWrite([](RetryingClient& c) { return c.Reload(); });
}

}  // namespace kspin::server
