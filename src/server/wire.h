// The kspin wire protocol: length-prefixed binary frames over TCP.
//
// Every message — request or response — is one frame:
//
//   offset size  field
//   0      4     magic 0x4B53504E ("KSPN" read as big-endian bytes)
//   4      1     protocol version (kProtocolVersion; anything else is a
//                fatal stream error)
//   5      1     opcode
//   6      2     frame flags (kFrameFlag*)
//   8      8     request id (echoed verbatim in the response)
//   16     4     deadline_ms (requests: relative time budget; 0 = none)
//   20     4     payload size N (<= kMaxPayloadSize)
//   24     N     payload
//
// All integers are little-endian. Response payloads always start with one
// status byte (StatusCode); kOk is followed by the opcode's result body,
// anything else by a human-readable error string. docs/protocol.md is the
// normative spec; this header and it must change together.
//
// The one defined frame flag, kFrameFlagTraceContext, marks a 17-byte
// trace trailer (u64 trace_id, u64 parent_span_id, u8 trace flags)
// appended AFTER the request payload. The trailer is stripped before the
// opcode body is decoded, so body codecs never see it.
#ifndef KSPIN_SERVER_WIRE_H_
#define KSPIN_SERVER_WIRE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace kspin::server {

inline constexpr std::uint32_t kMagic = 0x4B53504E;
/// The one protocol version a server speaks. Any incompatible change to
/// the frame layout or to a body bumps it.
inline constexpr std::uint8_t kProtocolVersion = 5;
inline constexpr std::size_t kHeaderSize = 24;
inline constexpr std::uint32_t kMaxPayloadSize = 1u << 20;

/// Frame-header flags (offset 6, u16 LE). Undefined bits are ignored.
inline constexpr std::uint16_t kFrameFlagTraceContext = 0x0001;

/// The optional per-request trace trailer (kFrameFlagTraceContext).
/// `trace_id` names the end-to-end request; `parent_span_id` is the
/// caller's span (0 = root); `flags` bit 0 = sampled-for-file-sink hint.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint8_t flags = 0;

  bool valid() const { return trace_id != 0; }
};

inline constexpr std::uint8_t kTraceFlagSampled = 0x01;
inline constexpr std::size_t kTraceTrailerSize = 17;

/// Appends the 17-byte trailer to an already-encoded request payload.
void AppendTraceTrailer(std::vector<std::uint8_t>* payload,
                        const TraceContext& context);

/// Splits a request payload into body and trace trailer according to the
/// frame flags: with kFrameFlagTraceContext set the last 17 bytes are the
/// trailer (false when the payload is shorter than that); without it the
/// whole payload is body and `*context` is cleared.
bool SplitTraceTrailer(std::span<const std::uint8_t> payload,
                       std::uint16_t frame_flags,
                       std::span<const std::uint8_t>* body,
                       TraceContext* context);

/// Request opcodes. Responses reuse the request's opcode. 0x02 (the old
/// STATS) and 0x20-0x23 (the old POI_* writes) are retired: like any byte
/// without a kOpcodeTable row they get UNSUPPORTED.
enum class Opcode : std::uint8_t {
  /// Server-to-client only: final frame before the server closes a
  /// connection over a fatal stream error (bad magic/version, oversized
  /// frame). Carries an error status payload.
  kError = 0x00,
  kPing = 0x01,           ///< Liveness probe; empty payload both ways.
  kHealth = 0x03,         ///< Role, snapshot sequence, uptime, queue depth.
  kMetrics = 0x04,        ///< Prometheus 0.0.4 text exposition.
  kDumpDiag = 0x05,       ///< Flight-recorder dump: spans + control-plane
                          ///< events as JSON lines.
  kSearchBoolean = 0x10,  ///< Boolean kNN over an and/or query string.
  kSearchRanked = 0x11,   ///< Relevance-ranked top-k.
  kInsertDoc = 0x24,      ///< Logged insert with idempotency key.
  kDeleteDoc = 0x25,      ///< Logged delete with idempotency key.
  kUpdateDoc = 0x26,      ///< Logged tag add/remove batch.
  kSnapshot = 0x30,       ///< Write a crash-safe snapshot to disk.
  kReload = 0x31,         ///< Replace serving state from the newest valid
                          ///< snapshot on disk.
  kFetchSnapshot = 0x32,  ///< Stream a snapshot file in chunks (replication).
  kFetchOplog = 0x33,     ///< Tail op-log records from a sequence.
  kPromote = 0x40,        ///< Admin: flip a replica to primary, bump the
                          ///< primary epoch (epoch-fenced failover).
};

/// Where a server runs an opcode. The I/O thread answers kInline opcodes
/// itself; every other lane goes through admission to a worker, which
/// applies the lane's concurrency rule (see server.h).
enum class Lane : std::uint8_t {
  kInline,     ///< I/O thread, bypassing admission (probes and scrapes).
  kSearch,     ///< Epoch-gate reader with the worker's QueryProcessor.
  kFetch,      ///< Epoch-gate reader without engine state (replication).
  kWrite,      ///< Logged mutation: primary only, refused once fenced.
  kExclusive,  ///< Under the mutation mutex (SNAPSHOT / RELOAD).
  kPromote,    ///< Stops the replicator, then takes the mutation mutex.
};

/// One row per opcode a server speaks. `name` is the opcode's stable
/// identifier: METRICS reports `kspin_opcode_<name>`, trace lines carry it
/// as is and flight-recorder dumps upper-case it.
struct OpcodeInfo {
  Opcode opcode;
  std::string_view name;
  Lane lane;
};

inline constexpr OpcodeInfo kOpcodeTable[] = {
    {Opcode::kPing, "ping", Lane::kInline},
    {Opcode::kHealth, "health", Lane::kInline},
    {Opcode::kMetrics, "metrics", Lane::kInline},
    {Opcode::kDumpDiag, "dump_diag", Lane::kInline},
    {Opcode::kSearchBoolean, "search_boolean", Lane::kSearch},
    {Opcode::kSearchRanked, "search_ranked", Lane::kSearch},
    {Opcode::kInsertDoc, "insert_doc", Lane::kWrite},
    {Opcode::kDeleteDoc, "delete_doc", Lane::kWrite},
    {Opcode::kUpdateDoc, "update_doc", Lane::kWrite},
    {Opcode::kSnapshot, "snapshot", Lane::kExclusive},
    {Opcode::kReload, "reload", Lane::kExclusive},
    {Opcode::kFetchSnapshot, "fetch_snapshot", Lane::kFetch},
    {Opcode::kFetchOplog, "fetch_oplog", Lane::kFetch},
    {Opcode::kPromote, "promote", Lane::kPromote},
};
inline constexpr std::size_t kNumOpcodes = std::size(kOpcodeTable);

/// The table row of `opcode`, or nullptr for a byte the server does not
/// speak (kError included). Its index in kOpcodeTable is the opcode's
/// counter slot.
constexpr const OpcodeInfo* FindOpcode(Opcode opcode) {
  for (const OpcodeInfo& row : kOpcodeTable) {
    if (row.opcode == opcode) return &row;
  }
  return nullptr;
}

/// First byte of every response payload.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kMalformedPayload = 1,   ///< Payload did not decode against the opcode.
  kBadQuery = 2,           ///< Query/argument rejected (syntax, bad id...).
  kOverloaded = 3,         ///< Admission queue full; retry later.
  kDeadlineExceeded = 4,   ///< Deadline passed before or during execution.
  kInternal = 5,           ///< Unexpected server-side failure.
  kUnsupported = 6,        ///< Unknown opcode or protocol version.
  kNotPrimary = 7,         ///< Write sent to a replica; the message is the
                           ///< primary's "host:port" — redirect there.
  kStaleEpoch = 8,         ///< Write sent to a fenced ex-primary: a higher
                           ///< primary epoch exists. Re-discover the
                           ///< primary (HEALTH) and retry there.
};

/// Human-readable status name (metrics, logs, CLI output).
std::string_view StatusName(StatusCode status);

/// Decoded frame header (excluding magic, which is validated away).
struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  Opcode opcode = Opcode::kPing;
  std::uint16_t flags = 0;  ///< kFrameFlag* bits.
  std::uint64_t request_id = 0;
  std::uint32_t deadline_ms = 0;
  std::uint32_t payload_size = 0;
};

/// Outcome of TryDecodeFrame. Anything but kNeedMore / kFrame is a fatal
/// stream error: the connection cannot be resynchronized and must close.
enum class DecodeResult {
  kNeedMore,    ///< Buffer holds a frame prefix; read more bytes.
  kFrame,       ///< A complete frame was decoded.
  kBadMagic,    ///< Stream does not start with kMagic.
  kBadVersion,  ///< Version other than kProtocolVersion.
  kTooLarge,    ///< Declared payload exceeds kMaxPayloadSize.
};

/// Parses the frame at the start of `buffer` without consuming it. On
/// kFrame, `*header` is filled and `*frame_size` is the total byte count
/// (header + payload) to consume. On kBadVersion the header (including
/// request id) is still filled so an error can be addressed to the sender.
/// Never reads past `buffer`.
DecodeResult TryDecodeFrame(std::span<const std::uint8_t> buffer,
                            FrameHeader* header, std::size_t* frame_size);

/// Serializes a frame: header (with payload_size taken from `payload`)
/// followed by the payload bytes.
std::vector<std::uint8_t> EncodeFrame(const FrameHeader& header,
                                      std::span<const std::uint8_t> payload);

// ----- Payload primitives --------------------------------------------------

/// Append-only little-endian payload builder.
class PayloadWriter {
 public:
  void U8(std::uint8_t v) { buffer_.push_back(v); }
  void U16(std::uint16_t v) { AppendLe(v); }
  void U32(std::uint32_t v) { AppendLe(v); }
  void U64(std::uint64_t v) { AppendLe(v); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  /// u32 length prefix + raw bytes.
  void String(std::string_view s);

  const std::vector<std::uint8_t>& Bytes() const { return buffer_; }
  std::vector<std::uint8_t> Take() { return std::move(buffer_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked little-endian payload cursor. A read past the end (or a
/// string longer than the remaining bytes) latches !ok(); subsequent reads
/// return zero values. Check ok() once after decoding a payload.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8() { return ReadLe<std::uint8_t>(); }
  std::uint16_t U16() { return ReadLe<std::uint16_t>(); }
  std::uint32_t U32() { return ReadLe<std::uint32_t>(); }
  std::uint64_t U64() { return ReadLe<std::uint64_t>(); }
  double F64() {
    const std::uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string String();

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// ok() and the whole payload was consumed (trailing garbage rejected).
  bool Finished() const { return ok_ && AtEnd(); }

 private:
  template <typename T>
  T ReadLe() {
    if (!ok_ || data_.size() - pos_ < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ----- Request / response bodies ------------------------------------------

/// kSearchBoolean / kSearchRanked request body.
struct SearchRequest {
  VertexId vertex = kInvalidVertex;
  std::uint32_t k = 0;
  std::string query;
};

/// One search hit on the wire (kOk body: u32 count, then count of these).
struct WireResult {
  ObjectId object = kInvalidObject;
  Distance travel_time = kInfDistance;
  double score = 0.0;
  std::string name;
};

/// kHealth kOk response body.
struct HealthInfo {
  std::uint8_t role = 0;  ///< 0 = primary, 1 = replica.
  std::uint64_t snapshot_sequence = 0;  ///< Newest local snapshot (0 = none).
  std::uint64_t uptime_ms = 0;
  std::uint64_t queue_depth = 0;
  std::string primary_address;  ///< "host:port" on replicas, empty on primary.
  std::uint64_t applied_sequence = 0;  ///< Highest applied op-log sequence.
  std::uint64_t primary_epoch = 0;     ///< Highest primary epoch known here.
};

/// kFetchSnapshot request body. The replica drives the transfer: it asks
/// for byte ranges, so a retried chunk is idempotent. sequence 0 with
/// offset 0 means "newest valid snapshot"; the response pins the concrete
/// sequence, which the replica echoes on subsequent chunks.
struct FetchSnapshotRequest {
  std::uint64_t sequence = 0;  ///< 0 = newest valid (offset 0 only).
  std::uint64_t offset = 0;    ///< Byte offset into the snapshot file.
  std::uint32_t max_bytes = 0; ///< Chunk size cap; 0 = server default.
};

/// kFetchSnapshot kOk response body: one chunk of the snapshot file.
/// `bytes` is empty only when offset == total_size (zero-length tail).
struct SnapshotChunk {
  std::uint64_t sequence = 0;    ///< Snapshot being streamed.
  std::uint64_t total_size = 0;  ///< Whole-file byte count.
  std::uint64_t offset = 0;      ///< Offset of this chunk.
  std::string bytes;             ///< Chunk payload.
};

/// Largest chunk a FETCH_SNAPSHOT response will carry: the frame payload
/// budget minus the chunk envelope (status + sequence/total/offset/crc +
/// string length prefix).
inline constexpr std::uint32_t kMaxSnapshotChunkBytes = kMaxPayloadSize - 64;

// ----- Live mutations -----------------------------------------------------

/// kInsertDoc request body: register a POI through the durable write
/// path. `idempotency_key` is a client-chosen retry token (0 = none); a
/// resend with the same key returns the original result without applying
/// twice, so retrying clients may treat the operation as idempotent.
struct InsertDocRequest {
  std::uint64_t idempotency_key = 0;
  VertexId vertex = kInvalidVertex;
  std::string name;
  std::vector<std::string> keywords;
  /// Highest primary epoch the client has observed (0 = unknown). A
  /// primary seeing a higher epoch than its own is fenced: it rejects
  /// this and all later writes with kStaleEpoch.
  std::uint64_t fence_epoch = 0;
};

/// kDeleteDoc request body.
struct DeleteDocRequest {
  std::uint64_t idempotency_key = 0;
  ObjectId object = kInvalidObject;
  std::uint64_t fence_epoch = 0;  ///< See InsertDocRequest::fence_epoch.
};

/// kUpdateDoc request body: add and/or remove keyword tags on an
/// existing POI as one logged operation.
struct UpdateDocRequest {
  std::uint64_t idempotency_key = 0;
  ObjectId object = kInvalidObject;
  std::vector<std::string> add_keywords;
  std::vector<std::string> remove_keywords;
  std::uint64_t fence_epoch = 0;  ///< See InsertDocRequest::fence_epoch.
};

/// kInsertDoc / kDeleteDoc / kUpdateDoc kOk response body: the op-log
/// sequence the mutation was logged under and the affected object id
/// (newly assigned for inserts). `primary_epoch` lets clients learn
/// promotions from acks.
struct MutationReply {
  std::uint64_t sequence = 0;
  ObjectId object = kInvalidObject;
  std::uint64_t primary_epoch = 0;
};

/// kFetchOplog request body: a replica asks for records *after* its
/// applied sequence. The server caps the batch at max_bytes of payload
/// (0 = server default). `requester_epoch` is the highest epoch the
/// requester knows; a primary seeing a higher epoch than its own latches
/// itself fenced.
struct FetchOplogRequest {
  std::uint64_t from_sequence = 0;
  std::uint32_t max_bytes = 0;
  std::uint64_t requester_epoch = 0;
};

/// One op-log record in a FETCH_OPLOG chunk. `payload` is the encoded
/// MutationRecord exactly as stored in the primary's log.
struct OplogWireRecord {
  std::uint64_t sequence = 0;
  std::string payload;
};

/// kFetchOplog kOk response body. `truncated` means the requested range
/// predates the oldest retained record — the replica must fall back to a
/// snapshot transfer. `last_sequence` is the primary's newest logged
/// sequence (an empty, non-truncated chunk with from_sequence ==
/// last_sequence means the replica is in sync).
struct OplogChunk {
  std::uint8_t truncated = 0;
  std::uint64_t last_sequence = 0;
  std::uint64_t oldest_sequence = 0;
  std::vector<OplogWireRecord> records;
  /// Serving side's primary epoch and the op-log sequence of the record
  /// that opened it (0 = epoch never changed). A replica whose applied
  /// sequence reaches past `epoch_boundary_sequence` of a higher-epoch
  /// primary has divergent records to quarantine.
  std::uint64_t primary_epoch = 0;
  std::uint64_t epoch_boundary_sequence = 0;
};

/// kPromote request body: admin-gated replica→primary flip. The promotion
/// is rejected with kBadQuery when the replica's applied sequence is below
/// `min_applied_sequence` (operator guard against promoting a lagging
/// replica; 0 = no guard).
struct PromoteRequest {
  std::uint64_t min_applied_sequence = 0;
};

/// kPromote kOk response body.
struct PromoteReply {
  std::uint64_t epoch = 0;             ///< Primary epoch after the flip.
  std::uint64_t applied_sequence = 0;  ///< Applied op-log sequence at flip.
  std::uint8_t role = 0;               ///< Role after the call (0 = primary).
};

std::vector<std::uint8_t> EncodeSearchRequest(const SearchRequest& request);
bool DecodeSearchRequest(std::span<const std::uint8_t> payload,
                         SearchRequest* request);

std::vector<std::uint8_t> EncodeFetchSnapshotRequest(
    const FetchSnapshotRequest& request);
bool DecodeFetchSnapshotRequest(std::span<const std::uint8_t> payload,
                                FetchSnapshotRequest* request);

std::vector<std::uint8_t> EncodeInsertDocRequest(
    const InsertDocRequest& request);
bool DecodeInsertDocRequest(std::span<const std::uint8_t> payload,
                            InsertDocRequest* request);

std::vector<std::uint8_t> EncodeDeleteDocRequest(
    const DeleteDocRequest& request);
bool DecodeDeleteDocRequest(std::span<const std::uint8_t> payload,
                            DeleteDocRequest* request);

std::vector<std::uint8_t> EncodeUpdateDocRequest(
    const UpdateDocRequest& request);
bool DecodeUpdateDocRequest(std::span<const std::uint8_t> payload,
                            UpdateDocRequest* request);

std::vector<std::uint8_t> EncodeFetchOplogRequest(
    const FetchOplogRequest& request);
bool DecodeFetchOplogRequest(std::span<const std::uint8_t> payload,
                             FetchOplogRequest* request);

std::vector<std::uint8_t> EncodePromoteRequest(const PromoteRequest& request);
bool DecodePromoteRequest(std::span<const std::uint8_t> payload,
                          PromoteRequest* request);

/// Response bodies. Encode* produce the full response payload including
/// the status byte; Decode* expect the status byte already consumed.
/// A nonzero `retry_after_ms` appends the u32 RETRY_AFTER hint (carried
/// on OVERLOADED replies), the one optional trailing field of the
/// protocol; readers check for it after the message string.
std::vector<std::uint8_t> EncodeErrorResponse(StatusCode status,
                                              std::string_view message,
                                              std::uint32_t retry_after_ms = 0);
std::vector<std::uint8_t> EncodeOkResponse();  // Status byte only.

/// Search-response flags byte.
inline constexpr std::uint8_t kSearchFlagDegraded = 0x01;

std::vector<std::uint8_t> EncodeSearchResponse(
    std::span<const WireResult> results, std::uint8_t flags);
bool DecodeSearchResponse(PayloadReader& reader,
                          std::vector<WireResult>* results,
                          std::uint8_t* flags);
/// kSnapshot / kReload kOk body: u64 snapshot sequence + file path.
std::vector<std::uint8_t> EncodeSnapshotResponse(std::uint64_t sequence,
                                                 std::string_view path);
bool DecodeSnapshotResponse(PayloadReader& reader, std::uint64_t* sequence,
                            std::string* path);
/// kMetrics kOk body: one string holding the Prometheus text exposition.
std::vector<std::uint8_t> EncodeMetricsResponse(std::string_view text);
bool DecodeMetricsResponse(PayloadReader& reader, std::string* text);
/// kDumpDiag kOk body: one string of flight-recorder JSON lines (same
/// single-string shape as kMetrics; see docs/observability.md).
std::vector<std::uint8_t> EncodeDiagResponse(std::string_view text);
bool DecodeDiagResponse(PayloadReader& reader, std::string* text);
std::vector<std::uint8_t> EncodeHealthResponse(const HealthInfo& info);
bool DecodeHealthResponse(PayloadReader& reader, HealthInfo* info);
/// The chunk response carries a CRC32C of the chunk bytes; Decode verifies
/// it and fails on mismatch, so a flipped bit inside a chunk is caught at
/// the frame level (the replica additionally validates the reassembled
/// file end-to-end before installing).
std::vector<std::uint8_t> EncodeSnapshotChunkResponse(
    const SnapshotChunk& chunk);
bool DecodeSnapshotChunkResponse(PayloadReader& reader, SnapshotChunk* chunk);
std::vector<std::uint8_t> EncodeMutationResponse(const MutationReply& reply);
bool DecodeMutationResponse(PayloadReader& reader, MutationReply* reply);
/// Each record in the chunk carries a CRC32C of its payload; Decode
/// verifies every one and fails on mismatch, so a flipped bit inside a
/// shipped record is caught at the frame level (the replica additionally
/// re-validates when appending to its own log).
std::vector<std::uint8_t> EncodeOplogChunkResponse(const OplogChunk& chunk);
bool DecodeOplogChunkResponse(PayloadReader& reader, OplogChunk* chunk);
std::vector<std::uint8_t> EncodePromoteResponse(const PromoteReply& reply);
bool DecodePromoteResponse(PayloadReader& reader, PromoteReply* reply);

}  // namespace kspin::server

#endif  // KSPIN_SERVER_WIRE_H_
