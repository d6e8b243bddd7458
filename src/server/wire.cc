#include "server/wire.h"

#include <algorithm>

#include "io/checksum.h"

namespace kspin::server {
namespace {

std::uint32_t ReadU32Le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t ReadU64Le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(ReadU32Le(p)) |
         static_cast<std::uint64_t>(ReadU32Le(p + 4)) << 32;
}

void WriteU32Le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void WriteU64Le(std::uint8_t* p, std::uint64_t v) {
  WriteU32Le(p, static_cast<std::uint32_t>(v));
  WriteU32Le(p + 4, static_cast<std::uint32_t>(v >> 32));
}

}  // namespace

std::string_view StatusName(StatusCode status) {
  switch (status) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kMalformedPayload:
      return "MALFORMED_PAYLOAD";
    case StatusCode::kBadQuery:
      return "BAD_QUERY";
    case StatusCode::kOverloaded:
      return "OVERLOADED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnsupported:
      return "UNSUPPORTED";
    case StatusCode::kNotPrimary:
      return "NOT_PRIMARY";
    case StatusCode::kStaleEpoch:
      return "STALE_EPOCH";
  }
  return "UNKNOWN";
}

DecodeResult TryDecodeFrame(std::span<const std::uint8_t> buffer,
                            FrameHeader* header, std::size_t* frame_size) {
  // Validate the magic on however many of its bytes have arrived, so a
  // garbage stream is rejected without waiting for a full header.
  static constexpr std::uint8_t kMagicBytes[4] = {
      static_cast<std::uint8_t>(kMagic),
      static_cast<std::uint8_t>(kMagic >> 8),
      static_cast<std::uint8_t>(kMagic >> 16),
      static_cast<std::uint8_t>(kMagic >> 24)};
  for (std::size_t i = 0; i < buffer.size() && i < 4; ++i) {
    if (buffer[i] != kMagicBytes[i]) return DecodeResult::kBadMagic;
  }
  if (buffer.size() < kHeaderSize) return DecodeResult::kNeedMore;

  header->version = buffer[4];
  header->opcode = static_cast<Opcode>(buffer[5]);
  header->request_id = ReadU64Le(buffer.data() + 8);
  header->deadline_ms = ReadU32Le(buffer.data() + 16);
  header->payload_size = ReadU32Le(buffer.data() + 20);
  header->flags = static_cast<std::uint16_t>(
      buffer[6] | static_cast<std::uint16_t>(buffer[7]) << 8);
  if (header->version != kProtocolVersion) return DecodeResult::kBadVersion;
  if (header->payload_size > kMaxPayloadSize) return DecodeResult::kTooLarge;
  if (buffer.size() < kHeaderSize + header->payload_size) {
    return DecodeResult::kNeedMore;
  }
  *frame_size = kHeaderSize + header->payload_size;
  return DecodeResult::kFrame;
}

std::vector<std::uint8_t> EncodeFrame(const FrameHeader& header,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame(kHeaderSize + payload.size());
  WriteU32Le(frame.data(), kMagic);
  frame[4] = header.version;
  frame[5] = static_cast<std::uint8_t>(header.opcode);
  frame[6] = static_cast<std::uint8_t>(header.flags);
  frame[7] = static_cast<std::uint8_t>(header.flags >> 8);
  WriteU64Le(frame.data() + 8, header.request_id);
  WriteU32Le(frame.data() + 16, header.deadline_ms);
  WriteU32Le(frame.data() + 20,
             static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderSize, payload.data(), payload.size());
  }
  return frame;
}

void AppendTraceTrailer(std::vector<std::uint8_t>* payload,
                        const TraceContext& context) {
  const std::size_t base = payload->size();
  payload->resize(base + kTraceTrailerSize);
  WriteU64Le(payload->data() + base, context.trace_id);
  WriteU64Le(payload->data() + base + 8, context.parent_span_id);
  (*payload)[base + 16] = context.flags;
}

bool SplitTraceTrailer(std::span<const std::uint8_t> payload,
                       std::uint16_t frame_flags,
                       std::span<const std::uint8_t>* body,
                       TraceContext* context) {
  if ((frame_flags & kFrameFlagTraceContext) == 0) {
    *body = payload;
    *context = TraceContext{};
    return true;
  }
  if (payload.size() < kTraceTrailerSize) return false;
  const std::size_t body_size = payload.size() - kTraceTrailerSize;
  const std::uint8_t* trailer = payload.data() + body_size;
  context->trace_id = ReadU64Le(trailer);
  context->parent_span_id = ReadU64Le(trailer + 8);
  context->flags = trailer[16];
  *body = payload.first(body_size);
  return true;
}

void PayloadWriter::String(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

std::string PayloadReader::String() {
  const std::uint32_t size = U32();
  if (!ok_ || data_.size() - pos_ < size) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), size);
  pos_ += size;
  return s;
}

std::vector<std::uint8_t> EncodeSearchRequest(const SearchRequest& request) {
  PayloadWriter w;
  w.U32(request.vertex);
  w.U32(request.k);
  w.String(request.query);
  return w.Take();
}

bool DecodeSearchRequest(std::span<const std::uint8_t> payload,
                         SearchRequest* request) {
  PayloadReader r(payload);
  request->vertex = r.U32();
  request->k = r.U32();
  request->query = r.String();
  return r.Finished();
}

std::vector<std::uint8_t> EncodeFetchSnapshotRequest(
    const FetchSnapshotRequest& request) {
  PayloadWriter w;
  w.U64(request.sequence);
  w.U64(request.offset);
  w.U32(request.max_bytes);
  return w.Take();
}

bool DecodeFetchSnapshotRequest(std::span<const std::uint8_t> payload,
                                FetchSnapshotRequest* request) {
  PayloadReader r(payload);
  request->sequence = r.U64();
  request->offset = r.U64();
  request->max_bytes = r.U32();
  return r.Finished();
}

std::vector<std::uint8_t> EncodeInsertDocRequest(
    const InsertDocRequest& request) {
  PayloadWriter w;
  w.U64(request.idempotency_key);
  w.U32(request.vertex);
  w.String(request.name);
  w.U32(static_cast<std::uint32_t>(request.keywords.size()));
  for (const std::string& keyword : request.keywords) w.String(keyword);
  w.U64(request.fence_epoch);
  return w.Take();
}

bool DecodeInsertDocRequest(std::span<const std::uint8_t> payload,
                            InsertDocRequest* request) {
  PayloadReader r(payload);
  request->idempotency_key = r.U64();
  request->vertex = r.U32();
  request->name = r.String();
  const std::uint32_t count = r.U32();
  request->keywords.clear();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    request->keywords.push_back(r.String());
  }
  request->fence_epoch = r.U64();
  return r.Finished();
}

std::vector<std::uint8_t> EncodeDeleteDocRequest(
    const DeleteDocRequest& request) {
  PayloadWriter w;
  w.U64(request.idempotency_key);
  w.U32(request.object);
  w.U64(request.fence_epoch);
  return w.Take();
}

bool DecodeDeleteDocRequest(std::span<const std::uint8_t> payload,
                            DeleteDocRequest* request) {
  PayloadReader r(payload);
  request->idempotency_key = r.U64();
  request->object = r.U32();
  request->fence_epoch = r.U64();
  return r.Finished();
}

std::vector<std::uint8_t> EncodeUpdateDocRequest(
    const UpdateDocRequest& request) {
  PayloadWriter w;
  w.U64(request.idempotency_key);
  w.U32(request.object);
  w.U32(static_cast<std::uint32_t>(request.add_keywords.size()));
  for (const std::string& keyword : request.add_keywords) w.String(keyword);
  w.U32(static_cast<std::uint32_t>(request.remove_keywords.size()));
  for (const std::string& keyword : request.remove_keywords) {
    w.String(keyword);
  }
  w.U64(request.fence_epoch);
  return w.Take();
}

bool DecodeUpdateDocRequest(std::span<const std::uint8_t> payload,
                            UpdateDocRequest* request) {
  PayloadReader r(payload);
  request->idempotency_key = r.U64();
  request->object = r.U32();
  const std::uint32_t adds = r.U32();
  request->add_keywords.clear();
  for (std::uint32_t i = 0; i < adds && r.ok(); ++i) {
    request->add_keywords.push_back(r.String());
  }
  const std::uint32_t removes = r.U32();
  request->remove_keywords.clear();
  for (std::uint32_t i = 0; i < removes && r.ok(); ++i) {
    request->remove_keywords.push_back(r.String());
  }
  request->fence_epoch = r.U64();
  return r.Finished();
}

std::vector<std::uint8_t> EncodeFetchOplogRequest(
    const FetchOplogRequest& request) {
  PayloadWriter w;
  w.U64(request.from_sequence);
  w.U32(request.max_bytes);
  w.U64(request.requester_epoch);
  return w.Take();
}

bool DecodeFetchOplogRequest(std::span<const std::uint8_t> payload,
                             FetchOplogRequest* request) {
  PayloadReader r(payload);
  request->from_sequence = r.U64();
  request->max_bytes = r.U32();
  request->requester_epoch = r.U64();
  return r.Finished();
}

std::vector<std::uint8_t> EncodePromoteRequest(const PromoteRequest& request) {
  PayloadWriter w;
  w.U64(request.min_applied_sequence);
  return w.Take();
}

bool DecodePromoteRequest(std::span<const std::uint8_t> payload,
                          PromoteRequest* request) {
  PayloadReader r(payload);
  request->min_applied_sequence = r.U64();
  return r.Finished();
}

std::vector<std::uint8_t> EncodeErrorResponse(StatusCode status,
                                              std::string_view message,
                                              std::uint32_t retry_after_ms) {
  PayloadWriter w;
  w.U8(static_cast<std::uint8_t>(status));
  w.String(message);
  if (retry_after_ms > 0) w.U32(retry_after_ms);
  return w.Take();
}

std::vector<std::uint8_t> EncodeOkResponse() {
  return {static_cast<std::uint8_t>(StatusCode::kOk)};
}

std::vector<std::uint8_t> EncodeSearchResponse(
    std::span<const WireResult> results, std::uint8_t flags) {
  PayloadWriter w;
  w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
  w.U32(static_cast<std::uint32_t>(results.size()));
  for (const WireResult& result : results) {
    w.U32(result.object);
    w.U64(result.travel_time);
    w.F64(result.score);
    w.String(result.name);
  }
  w.U8(flags);
  return w.Take();
}

bool DecodeSearchResponse(PayloadReader& reader,
                          std::vector<WireResult>* results,
                          std::uint8_t* flags) {
  const std::uint32_t count = reader.U32();
  results->clear();
  for (std::uint32_t i = 0; i < count && reader.ok(); ++i) {
    WireResult result;
    result.object = reader.U32();
    result.travel_time = reader.U64();
    result.score = reader.F64();
    result.name = reader.String();
    results->push_back(std::move(result));
  }
  *flags = reader.U8();
  return reader.Finished();
}

std::vector<std::uint8_t> EncodeSnapshotResponse(std::uint64_t sequence,
                                                 std::string_view path) {
  PayloadWriter w;
  w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
  w.U64(sequence);
  w.String(path);
  return w.Take();
}

bool DecodeSnapshotResponse(PayloadReader& reader, std::uint64_t* sequence,
                            std::string* path) {
  *sequence = reader.U64();
  *path = reader.String();
  return reader.Finished();
}

std::vector<std::uint8_t> EncodeMetricsResponse(std::string_view text) {
  PayloadWriter w;
  w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
  w.String(text);
  return w.Take();
}

bool DecodeMetricsResponse(PayloadReader& reader, std::string* text) {
  *text = reader.String();
  return reader.Finished();
}

std::vector<std::uint8_t> EncodeDiagResponse(std::string_view text) {
  return EncodeMetricsResponse(text);
}

bool DecodeDiagResponse(PayloadReader& reader, std::string* text) {
  return DecodeMetricsResponse(reader, text);
}

std::vector<std::uint8_t> EncodeHealthResponse(const HealthInfo& info) {
  PayloadWriter w;
  w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
  w.U8(info.role);
  w.U64(info.snapshot_sequence);
  w.U64(info.uptime_ms);
  w.U64(info.queue_depth);
  w.String(info.primary_address);
  w.U64(info.applied_sequence);
  w.U64(info.primary_epoch);
  return w.Take();
}

bool DecodeHealthResponse(PayloadReader& reader, HealthInfo* info) {
  info->role = reader.U8();
  info->snapshot_sequence = reader.U64();
  info->uptime_ms = reader.U64();
  info->queue_depth = reader.U64();
  info->primary_address = reader.String();
  info->applied_sequence = reader.U64();
  info->primary_epoch = reader.U64();
  return reader.Finished();
}

std::vector<std::uint8_t> EncodeSnapshotChunkResponse(
    const SnapshotChunk& chunk) {
  PayloadWriter w;
  w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
  w.U64(chunk.sequence);
  w.U64(chunk.total_size);
  w.U64(chunk.offset);
  w.U32(io::Crc32c(chunk.bytes.data(), chunk.bytes.size()));
  w.String(chunk.bytes);
  return w.Take();
}

bool DecodeSnapshotChunkResponse(PayloadReader& reader, SnapshotChunk* chunk) {
  chunk->sequence = reader.U64();
  chunk->total_size = reader.U64();
  chunk->offset = reader.U64();
  const std::uint32_t crc = reader.U32();
  chunk->bytes = reader.String();
  if (!reader.Finished()) return false;
  return io::Crc32c(chunk->bytes.data(), chunk->bytes.size()) == crc;
}

std::vector<std::uint8_t> EncodeMutationResponse(const MutationReply& reply) {
  PayloadWriter w;
  w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
  w.U64(reply.sequence);
  w.U32(reply.object);
  w.U64(reply.primary_epoch);
  return w.Take();
}

bool DecodeMutationResponse(PayloadReader& reader, MutationReply* reply) {
  reply->sequence = reader.U64();
  reply->object = reader.U32();
  reply->primary_epoch = reader.U64();
  return reader.Finished();
}

std::vector<std::uint8_t> EncodeOplogChunkResponse(const OplogChunk& chunk) {
  PayloadWriter w;
  w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
  w.U8(chunk.truncated);
  w.U64(chunk.last_sequence);
  w.U64(chunk.oldest_sequence);
  w.U32(static_cast<std::uint32_t>(chunk.records.size()));
  for (const OplogWireRecord& record : chunk.records) {
    w.U64(record.sequence);
    w.U32(io::Crc32c(record.payload.data(), record.payload.size()));
    w.String(record.payload);
  }
  w.U64(chunk.primary_epoch);
  w.U64(chunk.epoch_boundary_sequence);
  return w.Take();
}

bool DecodeOplogChunkResponse(PayloadReader& reader, OplogChunk* chunk) {
  chunk->truncated = reader.U8();
  chunk->last_sequence = reader.U64();
  chunk->oldest_sequence = reader.U64();
  const std::uint32_t count = reader.U32();
  chunk->records.clear();
  for (std::uint32_t i = 0; i < count && reader.ok(); ++i) {
    OplogWireRecord record;
    record.sequence = reader.U64();
    const std::uint32_t crc = reader.U32();
    record.payload = reader.String();
    if (!reader.ok()) return false;
    if (io::Crc32c(record.payload.data(), record.payload.size()) != crc) {
      return false;
    }
    chunk->records.push_back(std::move(record));
  }
  chunk->primary_epoch = reader.U64();
  chunk->epoch_boundary_sequence = reader.U64();
  return reader.Finished();
}

std::vector<std::uint8_t> EncodePromoteResponse(const PromoteReply& reply) {
  PayloadWriter w;
  w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
  w.U64(reply.epoch);
  w.U64(reply.applied_sequence);
  w.U8(reply.role);
  return w.Take();
}

bool DecodePromoteResponse(PayloadReader& reader, PromoteReply* reply) {
  reply->epoch = reader.U64();
  reply->applied_sequence = reader.U64();
  reply->role = reader.U8();
  return reader.Finished();
}

}  // namespace kspin::server
