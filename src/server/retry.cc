#include "server/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace kspin::server {

RetryingClient::RetryingClient(std::string host, std::uint16_t port,
                               RetryPolicy policy)
    : host_(std::move(host)),
      port_(port),
      policy_(policy),
      sleep_([](std::uint32_t ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }),
      rng_state_(policy.jitter_seed | 1) {}

std::uint64_t RetryingClient::NextRandom() {
  // xorshift64* — deterministic, seedable, good enough for jitter.
  std::uint64_t x = rng_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state_ = x;
  return x * 0x2545f4914f6cdd1dull;
}

std::uint32_t RetryingClient::BackoffMs(std::uint32_t attempt) {
  double base = static_cast<double>(policy_.initial_backoff_ms) *
                std::pow(policy_.multiplier, static_cast<double>(attempt));
  base = std::min(base, static_cast<double>(policy_.max_backoff_ms));
  const auto cap = static_cast<std::uint64_t>(std::max(base, 1.0));
  // Uniform in [cap/2, cap]: half deterministic floor, half jitter, so
  // synchronized clients de-correlate without ever sleeping too briefly.
  const std::uint64_t half = cap / 2;
  return static_cast<std::uint32_t>(half + NextRandom() % (cap - half + 1));
}

Client::Reply RetryingClient::Ping() {
  return Execute(true, [this] { return client_.Ping(); });
}

Client::MetricsReply RetryingClient::Metrics() {
  return Execute(true, [this] { return client_.Metrics(); });
}

Client::HealthReply RetryingClient::Health() {
  return Execute(true, [this] { return client_.Health(); });
}

Client::MetricsReply RetryingClient::DumpDiag() {
  return Execute(true, [this] { return client_.DumpDiag(); });
}

Client::FetchSnapshotReply RetryingClient::FetchSnapshotChunk(
    std::uint64_t sequence, std::uint64_t offset, std::uint32_t max_bytes) {
  return Execute(true, [&] {
    // Chunks are pure range reads — idempotent, safe to re-request.
    return client_.FetchSnapshotChunk(sequence, offset, max_bytes);
  });
}

std::uint32_t RetryingClient::ClampedDeadlineMs(std::uint32_t requested) const {
  if (remaining_budget_ms_ == 0) return requested;  // No budget configured.
  if (requested == 0) return remaining_budget_ms_;
  return std::min(requested, remaining_budget_ms_);
}

Client::SearchReply RetryingClient::Search(std::string_view query,
                                           VertexId from, std::uint32_t k,
                                           bool ranked,
                                           std::uint32_t deadline_ms) {
  return Execute(true, [&] {
    return client_.Search(query, from, k, ranked,
                          ClampedDeadlineMs(deadline_ms));
  });
}

Client::SnapshotReply RetryingClient::Snapshot() {
  return Execute(true, [this] { return client_.Snapshot(); });
}

Client::SnapshotReply RetryingClient::Reload() {
  return Execute(true, [this] { return client_.Reload(); });
}

Client::MutateReply RetryingClient::InsertDoc(
    std::uint64_t idempotency_key, VertexId vertex, std::string_view name,
    std::span<const std::string> keywords) {
  return Execute(idempotency_key != 0, [&] {
    return client_.InsertDoc(idempotency_key, vertex, name, keywords);
  });
}

Client::MutateReply RetryingClient::DeleteDoc(std::uint64_t idempotency_key,
                                              ObjectId id) {
  return Execute(idempotency_key != 0,
                 [&] { return client_.DeleteDoc(idempotency_key, id); });
}

Client::MutateReply RetryingClient::UpdateDoc(
    std::uint64_t idempotency_key, ObjectId id,
    std::span<const std::string> add_keywords,
    std::span<const std::string> remove_keywords) {
  return Execute(idempotency_key != 0, [&] {
    return client_.UpdateDoc(idempotency_key, id, add_keywords,
                             remove_keywords);
  });
}

}  // namespace kspin::server
