#include "server/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace kspin::server {
namespace {

/// Parses the status byte + optional error string off a response payload.
/// On kOk the reader is left positioned at the result body.
void ParseReplyEnvelope(PayloadReader& reader, Client::Reply* reply) {
  reply->status = static_cast<StatusCode>(reader.U8());
  if (!reader.ok()) {
    throw ClientError("response payload missing status byte");
  }
  if (reply->status != StatusCode::kOk) {
    reply->error = reader.String();
    if (!reader.ok()) throw ClientError("malformed error response");
    // OVERLOADED bodies may end in a u32 retry-after hint.
    if (reply->status == StatusCode::kOverloaded && !reader.AtEnd()) {
      const std::uint32_t hint = reader.U32();
      if (reader.ok()) reply->retry_after_ms = hint;
    }
  }
}

}  // namespace

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      next_request_id_(other.next_request_id_),
      fence_epoch_(other.fence_epoch_),
      trace_(other.trace_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    next_request_id_ = other.next_request_id_;
    fence_epoch_ = other.fence_epoch_;
    trace_ = other.trace_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::Connect(const std::string& host, std::uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw ClientError("socket failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad; resolve it.
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &found) != 0 ||
        found == nullptr) {
      Close();
      throw ClientError("cannot resolve host " + host);
    }
    addr.sin_addr =
        reinterpret_cast<sockaddr_in*>(found->ai_addr)->sin_addr;
    ::freeaddrinfo(found);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    Close();
    throw ClientError(std::string("connect failed: ") +
                      std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::WriteAll(std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-request must surface as a
    // ClientError (retryable), never as a process-killing SIGPIPE.
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ClientError(std::string("write failed: ") +
                        std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Client::ReadExactly(std::uint8_t* out, std::size_t count) {
  std::size_t got = 0;
  while (got < count) {
    const ssize_t n = ::read(fd_, out + got, count - got);
    if (n == 0) throw ClientError("connection closed by server");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ClientError(std::string("read failed: ") +
                        std::strerror(errno));
    }
    got += static_cast<std::size_t>(n);
  }
}

std::vector<std::uint8_t> Client::RoundTrip(
    Opcode opcode, std::span<const std::uint8_t> payload,
    std::uint32_t deadline_ms) {
  if (fd_ < 0) throw ClientError("not connected");

  FrameHeader header;
  header.opcode = opcode;
  header.request_id = next_request_id_++;
  header.deadline_ms = deadline_ms;
  if (trace_.valid()) {
    // Trace trailer: appended after the body, flagged in the header;
    // the server strips it before the opcode decoder runs.
    header.flags |= kFrameFlagTraceContext;
    std::vector<std::uint8_t> traced(payload.begin(), payload.end());
    AppendTraceTrailer(&traced, trace_);
    WriteAll(EncodeFrame(header, traced));
  } else {
    WriteAll(EncodeFrame(header, payload));
  }

  std::uint8_t raw_header[kHeaderSize];
  ReadExactly(raw_header, kHeaderSize);
  FrameHeader response;
  std::size_t frame_size = 0;
  const DecodeResult decoded = TryDecodeFrame(
      std::span<const std::uint8_t>(raw_header, kHeaderSize), &response,
      &frame_size);
  if (decoded != DecodeResult::kFrame &&
      decoded != DecodeResult::kNeedMore) {
    throw ClientError("malformed response frame header");
  }
  std::vector<std::uint8_t> body(response.payload_size);
  ReadExactly(body.data(), body.size());

  if (response.opcode == Opcode::kError) {
    PayloadReader reader(body);
    Reply reply;
    ParseReplyEnvelope(reader, &reply);
    throw ClientError("server closed connection: " + reply.error);
  }
  if (response.request_id != header.request_id ||
      response.opcode != opcode) {
    throw ClientError("response does not match request");
  }
  return body;
}

Client::Reply Client::Ping() {
  const auto body = RoundTrip(Opcode::kPing, {});
  PayloadReader reader(body);
  Reply reply;
  ParseReplyEnvelope(reader, &reply);
  return reply;
}

Client::MetricsReply Client::Metrics() {
  const auto body = RoundTrip(Opcode::kMetrics, {});
  PayloadReader reader(body);
  MetricsReply reply;
  ParseReplyEnvelope(reader, &reply);
  if (reply.ok() && !DecodeMetricsResponse(reader, &reply.text)) {
    throw ClientError("malformed metrics response");
  }
  return reply;
}

Client::MetricsReply Client::DumpDiag() {
  const auto body = RoundTrip(Opcode::kDumpDiag, {});
  PayloadReader reader(body);
  MetricsReply reply;
  ParseReplyEnvelope(reader, &reply);
  if (reply.ok() && !DecodeDiagResponse(reader, &reply.text)) {
    throw ClientError("malformed diag response");
  }
  return reply;
}

Client::HealthReply Client::Health() {
  const auto body = RoundTrip(Opcode::kHealth, {});
  PayloadReader reader(body);
  HealthReply reply;
  ParseReplyEnvelope(reader, &reply);
  if (reply.ok() && !DecodeHealthResponse(reader, &reply.health)) {
    throw ClientError("malformed health response");
  }
  return reply;
}

Client::FetchSnapshotReply Client::FetchSnapshotChunk(
    std::uint64_t sequence, std::uint64_t offset, std::uint32_t max_bytes) {
  FetchSnapshotRequest request{sequence, offset, max_bytes};
  const auto body = RoundTrip(Opcode::kFetchSnapshot,
                              EncodeFetchSnapshotRequest(request));
  PayloadReader reader(body);
  FetchSnapshotReply reply;
  ParseReplyEnvelope(reader, &reply);
  if (reply.ok() && !DecodeSnapshotChunkResponse(reader, &reply.chunk)) {
    // Covers both malformed framing and a chunk CRC mismatch.
    throw ClientError("malformed or corrupt snapshot chunk");
  }
  return reply;
}

Client::SearchReply Client::Search(std::string_view query, VertexId from,
                                   std::uint32_t k, bool ranked,
                                   std::uint32_t deadline_ms) {
  SearchRequest request;
  request.vertex = from;
  request.k = k;
  request.query = std::string(query);
  const auto body = RoundTrip(
      ranked ? Opcode::kSearchRanked : Opcode::kSearchBoolean,
      EncodeSearchRequest(request), deadline_ms);
  PayloadReader reader(body);
  SearchReply reply;
  ParseReplyEnvelope(reader, &reply);
  std::uint8_t flags = 0;
  if (reply.ok() && !DecodeSearchResponse(reader, &reply.results, &flags)) {
    throw ClientError("malformed search response");
  }
  reply.degraded = (flags & kSearchFlagDegraded) != 0;
  return reply;
}

Client::MutateReply Client::Mutate(Opcode opcode,
                                   std::span<const std::uint8_t> payload) {
  const auto body = RoundTrip(opcode, payload);
  PayloadReader reader(body);
  MutateReply reply;
  ParseReplyEnvelope(reader, &reply);
  if (reply.ok()) {
    MutationReply result;
    if (!DecodeMutationResponse(reader, &result)) {
      throw ClientError("malformed mutation response");
    }
    reply.sequence = result.sequence;
    reply.id = result.object;
    reply.primary_epoch = result.primary_epoch;
  }
  return reply;
}

Client::MutateReply Client::InsertDoc(std::uint64_t idempotency_key,
                                      VertexId vertex, std::string_view name,
                                      std::span<const std::string> keywords) {
  InsertDocRequest request;
  request.idempotency_key = idempotency_key;
  request.vertex = vertex;
  request.name = std::string(name);
  request.keywords.assign(keywords.begin(), keywords.end());
  request.fence_epoch = fence_epoch_;
  return Mutate(Opcode::kInsertDoc, EncodeInsertDocRequest(request));
}

Client::MutateReply Client::DeleteDoc(std::uint64_t idempotency_key,
                                      ObjectId id) {
  DeleteDocRequest request{idempotency_key, id, fence_epoch_};
  return Mutate(Opcode::kDeleteDoc, EncodeDeleteDocRequest(request));
}

Client::MutateReply Client::UpdateDoc(
    std::uint64_t idempotency_key, ObjectId id,
    std::span<const std::string> add_keywords,
    std::span<const std::string> remove_keywords) {
  UpdateDocRequest request;
  request.idempotency_key = idempotency_key;
  request.object = id;
  request.add_keywords.assign(add_keywords.begin(), add_keywords.end());
  request.remove_keywords.assign(remove_keywords.begin(),
                                 remove_keywords.end());
  request.fence_epoch = fence_epoch_;
  return Mutate(Opcode::kUpdateDoc, EncodeUpdateDocRequest(request));
}

Client::FetchOplogReply Client::FetchOplog(std::uint64_t from_sequence,
                                           std::uint32_t max_bytes,
                                           std::uint64_t requester_epoch) {
  FetchOplogRequest request{from_sequence, max_bytes, requester_epoch};
  const auto body =
      RoundTrip(Opcode::kFetchOplog, EncodeFetchOplogRequest(request));
  PayloadReader reader(body);
  FetchOplogReply reply;
  ParseReplyEnvelope(reader, &reply);
  if (reply.ok() && !DecodeOplogChunkResponse(reader, &reply.chunk)) {
    // Covers malformed framing and a per-record CRC mismatch.
    throw ClientError("malformed or corrupt op-log chunk");
  }
  return reply;
}

Client::PromoteAck Client::Promote(std::uint64_t min_applied_sequence) {
  PromoteRequest request{min_applied_sequence};
  const auto body =
      RoundTrip(Opcode::kPromote, EncodePromoteRequest(request));
  PayloadReader reader(body);
  PromoteAck reply;
  ParseReplyEnvelope(reader, &reply);
  if (reply.ok()) {
    PromoteReply result;
    if (!DecodePromoteResponse(reader, &result)) {
      throw ClientError("malformed promote response");
    }
    reply.epoch = result.epoch;
    reply.applied_sequence = result.applied_sequence;
    reply.role = result.role;
  }
  return reply;
}

Client::SnapshotReply Client::Snapshot() {
  const auto body = RoundTrip(Opcode::kSnapshot, {});
  PayloadReader reader(body);
  SnapshotReply reply;
  ParseReplyEnvelope(reader, &reply);
  if (reply.ok() &&
      !DecodeSnapshotResponse(reader, &reply.sequence, &reply.path)) {
    throw ClientError("malformed snapshot response");
  }
  return reply;
}

Client::SnapshotReply Client::Reload() {
  const auto body = RoundTrip(Opcode::kReload, {});
  PayloadReader reader(body);
  SnapshotReply reply;
  ParseReplyEnvelope(reader, &reply);
  if (reply.ok() &&
      !DecodeSnapshotResponse(reader, &reply.sequence, &reply.path)) {
    throw ClientError("malformed reload response");
  }
  return reply;
}

}  // namespace kspin::server
