// Unit tests for the kspin wire protocol: frame encode/decode, the
// payload primitives, the request/response body codecs, and a
// deterministic byte-stream fuzzer run against both the parser and a
// live loopback server (most valuable under ASan/TSan, where any
// over-read or data race aborts the test).
#include "server/wire.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "routing/contraction_hierarchy.h"
#include "server/client.h"
#include "server/metrics.h"
#include "server/server.h"
#include "service/poi_service.h"
#include "service/synthetic_catalog.h"
#include "test_util.h"

namespace kspin::server {
namespace {

std::span<const std::uint8_t> Prefix(const std::vector<std::uint8_t>& bytes,
                                     std::size_t count) {
  return std::span<const std::uint8_t>(bytes.data(), count);
}

TEST(WireFrameTest, HeaderRoundTrip) {
  FrameHeader header;
  header.opcode = Opcode::kSearchRanked;
  header.request_id = 0x0123456789ABCDEFull;
  header.deadline_ms = 250;
  const std::vector<std::uint8_t> payload = {0xAA, 0xBB, 0xCC};
  const auto frame = EncodeFrame(header, payload);
  ASSERT_EQ(frame.size(), kHeaderSize + payload.size());

  FrameHeader decoded;
  std::size_t frame_size = 0;
  ASSERT_EQ(TryDecodeFrame(frame, &decoded, &frame_size),
            DecodeResult::kFrame);
  EXPECT_EQ(frame_size, frame.size());
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.opcode, Opcode::kSearchRanked);
  EXPECT_EQ(decoded.request_id, 0x0123456789ABCDEFull);
  EXPECT_EQ(decoded.deadline_ms, 250u);
  EXPECT_EQ(decoded.payload_size, payload.size());
  EXPECT_EQ(std::vector<std::uint8_t>(frame.begin() + kHeaderSize,
                                      frame.end()),
            payload);
}

TEST(WireFrameTest, EmptyPayloadFrame) {
  FrameHeader header;
  header.opcode = Opcode::kPing;
  header.request_id = 7;
  const auto frame = EncodeFrame(header, {});
  ASSERT_EQ(frame.size(), kHeaderSize);

  FrameHeader decoded;
  std::size_t frame_size = 0;
  ASSERT_EQ(TryDecodeFrame(frame, &decoded, &frame_size),
            DecodeResult::kFrame);
  EXPECT_EQ(frame_size, kHeaderSize);
  EXPECT_EQ(decoded.payload_size, 0u);
}

TEST(WireFrameTest, EveryTruncatedPrefixNeedsMore) {
  FrameHeader header;
  header.opcode = Opcode::kSearchBoolean;
  header.request_id = 42;
  const std::vector<std::uint8_t> payload(17, 0x5A);
  const auto frame = EncodeFrame(header, payload);

  for (std::size_t len = 0; len < frame.size(); ++len) {
    FrameHeader decoded;
    std::size_t frame_size = 0;
    EXPECT_EQ(TryDecodeFrame(Prefix(frame, len), &decoded, &frame_size),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireFrameTest, BadMagicDetectedEvenOnShortPrefix) {
  FrameHeader header;
  const auto frame = EncodeFrame(header, {});
  // Corrupt each magic byte in turn; the error must surface as soon as
  // the corrupted byte is visible, not only after a full header arrives.
  for (std::size_t corrupt = 0; corrupt < 4; ++corrupt) {
    auto bad = frame;
    bad[corrupt] ^= 0xFF;
    FrameHeader decoded;
    std::size_t frame_size = 0;
    EXPECT_EQ(TryDecodeFrame(Prefix(bad, corrupt + 1), &decoded,
                             &frame_size),
              DecodeResult::kBadMagic)
        << "corrupted byte " << corrupt;
    EXPECT_EQ(TryDecodeFrame(bad, &decoded, &frame_size),
              DecodeResult::kBadMagic);
  }
}

TEST(WireFrameTest, BadVersionStillYieldsRequestId) {
  // Exactly one version is spoken: older and newer ones are both refused.
  for (const int version : {kProtocolVersion - 1, kProtocolVersion + 1}) {
    FrameHeader header;
    header.request_id = 99;
    auto frame = EncodeFrame(header, {});
    frame[4] = static_cast<std::uint8_t>(version);
    FrameHeader decoded;
    std::size_t frame_size = 0;
    EXPECT_EQ(TryDecodeFrame(frame, &decoded, &frame_size),
              DecodeResult::kBadVersion)
        << "version " << version;
    // The header is filled so the server can address the error frame.
    EXPECT_EQ(decoded.request_id, 99u);
    EXPECT_EQ(decoded.version, version);
  }
}

TEST(WireFrameTest, OversizedPayloadRejected) {
  FrameHeader header;
  auto frame = EncodeFrame(header, {});
  const std::uint32_t huge = kMaxPayloadSize + 1;
  std::memcpy(frame.data() + 20, &huge, sizeof huge);
  FrameHeader decoded;
  std::size_t frame_size = 0;
  EXPECT_EQ(TryDecodeFrame(frame, &decoded, &frame_size),
            DecodeResult::kTooLarge);
}

TEST(WireFrameTest, FlagsFieldRoundTrips) {
  FrameHeader header;
  header.flags = kFrameFlagTraceContext;
  const auto frame = EncodeFrame(header, {});
  FrameHeader decoded;
  std::size_t frame_size = 0;
  ASSERT_EQ(TryDecodeFrame(frame, &decoded, &frame_size),
            DecodeResult::kFrame);
  EXPECT_EQ(decoded.flags, kFrameFlagTraceContext);
}

TEST(WireFrameTest, TraceTrailerSplitAndRoundTrip) {
  PayloadWriter w;
  w.U32(1234);
  std::vector<std::uint8_t> payload(w.Bytes().begin(), w.Bytes().end());
  const std::size_t body_size = payload.size();
  TraceContext context;
  context.trace_id = 0x1122334455667788ull;
  context.parent_span_id = 0x99AABBCCDDEEFF00ull;
  context.flags = kTraceFlagSampled;
  AppendTraceTrailer(&payload, context);
  ASSERT_EQ(payload.size(), body_size + kTraceTrailerSize);

  std::span<const std::uint8_t> body;
  TraceContext decoded;
  ASSERT_TRUE(SplitTraceTrailer(payload, kFrameFlagTraceContext, &body,
                                &decoded));
  EXPECT_EQ(body.size(), body_size);
  EXPECT_EQ(decoded.trace_id, context.trace_id);
  EXPECT_EQ(decoded.parent_span_id, context.parent_span_id);
  EXPECT_EQ(decoded.flags, context.flags);

  // Without the frame flag the whole payload is body and no context.
  ASSERT_TRUE(SplitTraceTrailer(payload, 0, &body, &decoded));
  EXPECT_EQ(body.size(), payload.size());
  EXPECT_FALSE(decoded.valid());

  // Flag set but payload shorter than a trailer: malformed.
  const std::vector<std::uint8_t> tiny(kTraceTrailerSize - 1, 0);
  EXPECT_FALSE(SplitTraceTrailer(tiny, kFrameFlagTraceContext, &body,
                                 &decoded));
}

TEST(PayloadTest, PrimitivesRoundTrip) {
  PayloadWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0102030405060708ull);
  w.F64(-1234.5);
  w.String("hello");
  w.String("");

  PayloadReader r(w.Bytes());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0102030405060708ull);
  EXPECT_EQ(r.F64(), -1234.5);
  EXPECT_EQ(r.String(), "hello");
  EXPECT_EQ(r.String(), "");
  EXPECT_TRUE(r.Finished());
}

TEST(PayloadTest, UnderrunLatchesNotOk) {
  PayloadWriter w;
  w.U16(7);
  PayloadReader r(w.Bytes());
  EXPECT_EQ(r.U32(), 0u);  // Only two bytes available.
  EXPECT_FALSE(r.ok());
  // Latches: later reads stay zero even though bytes remain.
  EXPECT_EQ(r.U8(), 0u);
  EXPECT_FALSE(r.Finished());
}

TEST(PayloadTest, StringLengthBeyondPayloadLatchesNotOk) {
  PayloadWriter w;
  w.U32(1000);  // Length prefix promising far more than is present.
  w.U8('x');
  PayloadReader r(w.Bytes());
  EXPECT_EQ(r.String(), "");
  EXPECT_FALSE(r.ok());
}

TEST(PayloadTest, TrailingGarbageNotFinished) {
  PayloadWriter w;
  w.U8(1);
  w.U8(2);
  PayloadReader r(w.Bytes());
  EXPECT_EQ(r.U8(), 1u);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.Finished());
}

TEST(BodyCodecTest, SearchRequestRoundTrip) {
  SearchRequest request;
  request.vertex = 314;
  request.k = 10;
  request.query = "(coffee and wifi) or tea";
  SearchRequest decoded;
  ASSERT_TRUE(DecodeSearchRequest(EncodeSearchRequest(request), &decoded));
  EXPECT_EQ(decoded.vertex, request.vertex);
  EXPECT_EQ(decoded.k, request.k);
  EXPECT_EQ(decoded.query, request.query);
}

TEST(BodyCodecTest, SearchRequestRejectsTruncation) {
  const auto bytes = EncodeSearchRequest({314, 10, "coffee"});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SearchRequest decoded;
    EXPECT_FALSE(DecodeSearchRequest(Prefix(bytes, len), &decoded))
        << "prefix length " << len;
  }
}

TEST(BodyCodecTest, SearchRequestRejectsTrailingGarbage) {
  auto bytes = EncodeSearchRequest({314, 10, "coffee"});
  bytes.push_back(0);
  SearchRequest decoded;
  EXPECT_FALSE(DecodeSearchRequest(bytes, &decoded));
}

TEST(BodyCodecTest, SearchResponseRoundTrip) {
  std::vector<WireResult> results(2);
  results[0] = {5, 120, 0.25, "poi5"};
  results[1] = {9, 480, 17.5, "poi9"};
  const auto bytes = EncodeSearchResponse(results, 0);

  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  std::vector<WireResult> decoded;
  std::uint8_t flags = 0xff;
  ASSERT_TRUE(DecodeSearchResponse(reader, &decoded, &flags));
  EXPECT_EQ(flags, 0u);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].object, 5u);
  EXPECT_EQ(decoded[0].travel_time, 120u);
  EXPECT_EQ(decoded[0].score, 0.25);
  EXPECT_EQ(decoded[0].name, "poi5");
  EXPECT_EQ(decoded[1].object, 9u);
}

TEST(BodyCodecTest, ErrorResponseCarriesStatusAndMessage) {
  const auto bytes =
      EncodeErrorResponse(StatusCode::kOverloaded, "queue full");
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOverloaded);
  EXPECT_EQ(reader.String(), "queue full");
  EXPECT_TRUE(reader.Finished());
}

TEST(BodyCodecTest, ErrorResponseAppendsRetryAfterTrailerOnlyWhenSet) {
  // retry_after 0 writes no hint: the body ends after the message.
  EXPECT_EQ(EncodeErrorResponse(StatusCode::kOverloaded, "shed", 0),
            EncodeErrorResponse(StatusCode::kOverloaded, "shed"));

  const auto bytes =
      EncodeErrorResponse(StatusCode::kOverloaded, "shed", 250);
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOverloaded);
  EXPECT_EQ(reader.String(), "shed");
  EXPECT_EQ(reader.U32(), 250u);
  EXPECT_TRUE(reader.Finished());
}

TEST(BodyCodecTest, SearchResponseFlagsRoundTrip) {
  std::vector<WireResult> results(1);
  results[0] = {9, 480, 17.5, "poi9"};
  const auto bytes = EncodeSearchResponse(results, kSearchFlagDegraded);

  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  std::vector<WireResult> decoded;
  std::uint8_t flags = 0xff;
  ASSERT_TRUE(DecodeSearchResponse(reader, &decoded, &flags));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].object, 9u);
  EXPECT_EQ(flags, kSearchFlagDegraded);

  // The flags byte is part of the one body length: without it the body
  // is truncated.
  const std::vector<std::uint8_t> flagless(bytes.begin(), bytes.end() - 1);
  PayloadReader flagless_reader(flagless);
  EXPECT_EQ(static_cast<StatusCode>(flagless_reader.U8()), StatusCode::kOk);
  EXPECT_FALSE(DecodeSearchResponse(flagless_reader, &decoded, &flags));
}

TEST(BodyCodecTest, MetricsResponseRoundTrip) {
  const std::string text =
      "# TYPE kspin_requests_ok counter\nkspin_requests_ok 42\n";
  const auto bytes = EncodeMetricsResponse(text);
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  std::string decoded;
  ASSERT_TRUE(DecodeMetricsResponse(reader, &decoded));
  EXPECT_EQ(decoded, text);
}

TEST(BodyCodecTest, StatusNamesAreStable) {
  EXPECT_EQ(StatusName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusName(StatusCode::kOverloaded), "OVERLOADED");
  EXPECT_EQ(StatusName(StatusCode::kDeadlineExceeded), "DEADLINE_EXCEEDED");
  EXPECT_EQ(StatusName(StatusCode::kNotPrimary), "NOT_PRIMARY");
}

TEST(BodyCodecTest, HealthResponseRoundTrip) {
  HealthInfo info;
  info.role = 1;
  info.snapshot_sequence = 42;
  info.uptime_ms = 123456;
  info.queue_depth = 7;
  info.primary_address = "10.0.0.1:9000";
  const auto bytes = EncodeHealthResponse(info);
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  HealthInfo decoded;
  ASSERT_TRUE(DecodeHealthResponse(reader, &decoded));
  EXPECT_EQ(decoded.role, 1);
  EXPECT_EQ(decoded.snapshot_sequence, 42u);
  EXPECT_EQ(decoded.uptime_ms, 123456u);
  EXPECT_EQ(decoded.queue_depth, 7u);
  EXPECT_EQ(decoded.primary_address, "10.0.0.1:9000");
}

TEST(BodyCodecTest, FetchSnapshotRequestRoundTrip) {
  FetchSnapshotRequest request{17, 65536, 4096};
  FetchSnapshotRequest decoded;
  ASSERT_TRUE(DecodeFetchSnapshotRequest(
      EncodeFetchSnapshotRequest(request), &decoded));
  EXPECT_EQ(decoded.sequence, 17u);
  EXPECT_EQ(decoded.offset, 65536u);
  EXPECT_EQ(decoded.max_bytes, 4096u);
}

TEST(BodyCodecTest, InsertDocRequestRoundTrip) {
  InsertDocRequest request;
  request.idempotency_key = 0x1122334455667788ull;
  request.vertex = 42;
  request.name = "Thai Palace";
  request.keywords = {"thai", "takeaway"};
  InsertDocRequest decoded;
  ASSERT_TRUE(
      DecodeInsertDocRequest(EncodeInsertDocRequest(request), &decoded));
  EXPECT_EQ(decoded.idempotency_key, request.idempotency_key);
  EXPECT_EQ(decoded.vertex, request.vertex);
  EXPECT_EQ(decoded.name, request.name);
  EXPECT_EQ(decoded.keywords, request.keywords);
}

TEST(BodyCodecTest, DeleteDocRequestRoundTrip) {
  DeleteDocRequest request{7, 99};
  DeleteDocRequest decoded;
  ASSERT_TRUE(
      DecodeDeleteDocRequest(EncodeDeleteDocRequest(request), &decoded));
  EXPECT_EQ(decoded.idempotency_key, 7u);
  EXPECT_EQ(decoded.object, 99u);
}

TEST(BodyCodecTest, UpdateDocRequestRoundTrip) {
  UpdateDocRequest request;
  request.idempotency_key = 5;
  request.object = 3;
  request.add_keywords = {"wifi", "garden"};
  request.remove_keywords = {"smoking"};
  UpdateDocRequest decoded;
  ASSERT_TRUE(
      DecodeUpdateDocRequest(EncodeUpdateDocRequest(request), &decoded));
  EXPECT_EQ(decoded.idempotency_key, 5u);
  EXPECT_EQ(decoded.object, 3u);
  EXPECT_EQ(decoded.add_keywords, request.add_keywords);
  EXPECT_EQ(decoded.remove_keywords, request.remove_keywords);
}

TEST(BodyCodecTest, MutationRequestsRejectTruncationAndTrailingGarbage) {
  InsertDocRequest insert;
  insert.vertex = 1;
  insert.name = "x";
  insert.keywords = {"a"};
  for (auto bytes : {EncodeInsertDocRequest(insert),
                     EncodeDeleteDocRequest({1, 2}),
                     EncodeUpdateDocRequest({1, 2, {"a"}, {}}),
                     EncodeFetchOplogRequest({9, 100})}) {
    InsertDocRequest i;
    DeleteDocRequest d;
    UpdateDocRequest u;
    FetchOplogRequest f;
    auto truncated = bytes;
    truncated.pop_back();
    EXPECT_FALSE(DecodeInsertDocRequest(truncated, &i));
    EXPECT_FALSE(DecodeDeleteDocRequest(truncated, &d));
    EXPECT_FALSE(DecodeUpdateDocRequest(truncated, &u));
    EXPECT_FALSE(DecodeFetchOplogRequest(truncated, &f));
    auto trailing = bytes;
    trailing.push_back(0);
    EXPECT_FALSE(DecodeInsertDocRequest(trailing, &i));
    EXPECT_FALSE(DecodeDeleteDocRequest(trailing, &d));
    EXPECT_FALSE(DecodeUpdateDocRequest(trailing, &u));
    EXPECT_FALSE(DecodeFetchOplogRequest(trailing, &f));
    // Each body has exactly one length: one missing its 8-byte epoch
    // section is truncated, not an older revision.
    auto no_epoch = bytes;
    no_epoch.resize(bytes.size() - 8);
    EXPECT_FALSE(DecodeInsertDocRequest(no_epoch, &i));
    EXPECT_FALSE(DecodeDeleteDocRequest(no_epoch, &d));
    EXPECT_FALSE(DecodeUpdateDocRequest(no_epoch, &u));
    EXPECT_FALSE(DecodeFetchOplogRequest(no_epoch, &f));
  }
}

TEST(BodyCodecTest, MutationResponseRoundTrip) {
  const auto bytes = EncodeMutationResponse({123456789ull, 77});
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  MutationReply decoded;
  ASSERT_TRUE(DecodeMutationResponse(reader, &decoded));
  EXPECT_EQ(decoded.sequence, 123456789u);
  EXPECT_EQ(decoded.object, 77u);
}

TEST(BodyCodecTest, FetchOplogRequestRoundTrip) {
  FetchOplogRequest request{42, 65536};
  FetchOplogRequest decoded;
  ASSERT_TRUE(
      DecodeFetchOplogRequest(EncodeFetchOplogRequest(request), &decoded));
  EXPECT_EQ(decoded.from_sequence, 42u);
  EXPECT_EQ(decoded.max_bytes, 65536u);
}

TEST(BodyCodecTest, MutationRequestsCarryFenceEpoch) {
  InsertDocRequest insert;
  insert.idempotency_key = 1;
  insert.vertex = 2;
  insert.name = "x";
  insert.fence_epoch = 9;
  InsertDocRequest insert_decoded;
  ASSERT_TRUE(DecodeInsertDocRequest(EncodeInsertDocRequest(insert),
                                     &insert_decoded));
  EXPECT_EQ(insert_decoded.fence_epoch, 9u);

  DeleteDocRequest del{7, 99, 11};
  DeleteDocRequest del_decoded;
  ASSERT_TRUE(DecodeDeleteDocRequest(EncodeDeleteDocRequest(del),
                                     &del_decoded));
  EXPECT_EQ(del_decoded.fence_epoch, 11u);

  UpdateDocRequest update;
  update.idempotency_key = 5;
  update.object = 3;
  update.add_keywords = {"wifi"};
  update.fence_epoch = 13;
  UpdateDocRequest update_decoded;
  ASSERT_TRUE(DecodeUpdateDocRequest(EncodeUpdateDocRequest(update),
                                     &update_decoded));
  EXPECT_EQ(update_decoded.fence_epoch, 13u);
}

TEST(BodyCodecTest, HealthResponseCarriesEpochAndAppliedSequence) {
  HealthInfo info;
  info.role = 0;
  info.applied_sequence = 12345;
  info.primary_epoch = 6;
  const auto bytes = EncodeHealthResponse(info);
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  HealthInfo decoded;
  ASSERT_TRUE(DecodeHealthResponse(reader, &decoded));
  EXPECT_EQ(decoded.applied_sequence, 12345u);
  EXPECT_EQ(decoded.primary_epoch, 6u);
}

TEST(BodyCodecTest, MutationResponseCarriesPrimaryEpoch) {
  const auto bytes = EncodeMutationResponse({1, 2, 4});
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  MutationReply decoded;
  ASSERT_TRUE(DecodeMutationResponse(reader, &decoded));
  EXPECT_EQ(decoded.primary_epoch, 4u);
}

TEST(BodyCodecTest, PromoteRequestRoundTrip) {
  PromoteRequest request{77};
  PromoteRequest decoded;
  ASSERT_TRUE(
      DecodePromoteRequest(EncodePromoteRequest(request), &decoded));
  EXPECT_EQ(decoded.min_applied_sequence, 77u);
  // The guard is always on the wire (0 = none): an empty body is
  // truncated.
  PromoteRequest empty;
  EXPECT_FALSE(DecodePromoteRequest({}, &empty));
}

TEST(BodyCodecTest, PromoteResponseRoundTrip) {
  PromoteReply reply;
  reply.epoch = 3;
  reply.applied_sequence = 456;
  reply.role = 0;
  const auto bytes = EncodePromoteResponse(reply);
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  PromoteReply decoded;
  ASSERT_TRUE(DecodePromoteResponse(reader, &decoded));
  EXPECT_EQ(decoded.epoch, 3u);
  EXPECT_EQ(decoded.applied_sequence, 456u);
  EXPECT_EQ(decoded.role, 0);
}

TEST(BodyCodecTest, OplogChunkCarriesEpochSection) {
  OplogChunk chunk;
  chunk.last_sequence = 5;
  chunk.primary_epoch = 2;
  chunk.epoch_boundary_sequence = 4;
  auto bytes = EncodeOplogChunkResponse(chunk);
  {
    PayloadReader reader(bytes);
    EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
    OplogChunk decoded;
    ASSERT_TRUE(DecodeOplogChunkResponse(reader, &decoded));
    EXPECT_EQ(decoded.primary_epoch, 2u);
    EXPECT_EQ(decoded.epoch_boundary_sequence, 4u);
  }
  // Without its 16-byte epoch section the body is truncated.
  bytes.resize(bytes.size() - 16);
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  OplogChunk decoded;
  EXPECT_FALSE(DecodeOplogChunkResponse(reader, &decoded));
}

TEST(BodyCodecTest, OplogChunkCrcDetectsFlippedBit) {
  OplogChunk chunk;
  chunk.truncated = 0;
  chunk.last_sequence = 12;
  chunk.oldest_sequence = 3;
  chunk.records.push_back({11, std::string(40, 'a')});
  chunk.records.push_back({12, std::string(25, 'b')});
  auto bytes = EncodeOplogChunkResponse(chunk);

  {
    PayloadReader reader(bytes);
    EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
    OplogChunk decoded;
    ASSERT_TRUE(DecodeOplogChunkResponse(reader, &decoded));
    EXPECT_EQ(decoded.last_sequence, 12u);
    EXPECT_EQ(decoded.oldest_sequence, 3u);
    ASSERT_EQ(decoded.records.size(), 2u);
    EXPECT_EQ(decoded.records[0].sequence, 11u);
    EXPECT_EQ(decoded.records[0].payload, chunk.records[0].payload);
    EXPECT_EQ(decoded.records[1].payload, chunk.records[1].payload);
  }

  // A flipped bit inside a shipped record must fail the per-record CRC —
  // corruption in transit never reaches a replica's log. The last 16
  // payload bytes are the epoch section, so aim before it.
  bytes[bytes.size() - 16 - 5] ^= 0x08;
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  OplogChunk decoded;
  EXPECT_FALSE(DecodeOplogChunkResponse(reader, &decoded));
}

TEST(BodyCodecTest, SnapshotChunkCrcDetectsFlippedBit) {
  SnapshotChunk chunk;
  chunk.sequence = 3;
  chunk.total_size = 1000;
  chunk.offset = 256;
  chunk.bytes = std::string(300, 'x');
  auto bytes = EncodeSnapshotChunkResponse(chunk);

  {
    PayloadReader reader(bytes);
    EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
    SnapshotChunk decoded;
    ASSERT_TRUE(DecodeSnapshotChunkResponse(reader, &decoded));
    EXPECT_EQ(decoded.bytes, chunk.bytes);
    EXPECT_EQ(decoded.offset, 256u);
  }

  bytes.back() ^= 0x10;  // Flip one bit inside the chunk data.
  PayloadReader reader(bytes);
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()), StatusCode::kOk);
  SnapshotChunk decoded;
  EXPECT_FALSE(DecodeSnapshotChunkResponse(reader, &decoded));
}

TEST(OpcodeTableTest, EveryOpcodeHasOneRowAndOneMetricsSeries) {
  // Every Opcode but kError, the server-to-client fatal-error frame.
  const Opcode spoken[] = {
      Opcode::kPing,          Opcode::kHealth,        Opcode::kMetrics,
      Opcode::kDumpDiag,      Opcode::kSearchBoolean, Opcode::kSearchRanked,
      Opcode::kInsertDoc,     Opcode::kDeleteDoc,     Opcode::kUpdateDoc,
      Opcode::kSnapshot,      Opcode::kReload,        Opcode::kFetchSnapshot,
      Opcode::kFetchOplog,    Opcode::kPromote,
  };
  ASSERT_EQ(std::size(spoken), kNumOpcodes);
  EXPECT_EQ(kNumOpcodes, 14u);
  std::set<std::string_view> names;
  for (const Opcode opcode : spoken) {
    const OpcodeInfo* row = FindOpcode(opcode);
    ASSERT_NE(row, nullptr) << static_cast<int>(opcode);
    EXPECT_EQ(std::count_if(std::begin(kOpcodeTable), std::end(kOpcodeTable),
                            [&](const OpcodeInfo& r) {
                              return r.opcode == opcode;
                            }),
              1)
        << row->name;
    EXPECT_TRUE(names.insert(row->name).second) << row->name;
  }
  // No other byte has a row: kError, the retired STATS (0x02) and the
  // retired writes (0x20-0x23) included.
  EXPECT_EQ(FindOpcode(static_cast<Opcode>(0x02)), nullptr);
  for (int byte = 0; byte < 256; ++byte) {
    const auto opcode = static_cast<Opcode>(byte);
    if (std::find(std::begin(spoken), std::end(spoken), opcode) ==
        std::end(spoken)) {
      EXPECT_EQ(FindOpcode(opcode), nullptr) << byte;
    }
  }
  // METRICS reports exactly one kspin_opcode_<name> series per row.
  const ServerMetrics metrics;
  std::map<std::string, int> opcode_series;
  for (const auto& sample :
       ParseMetricsText(RenderPrometheusText(metrics.FullSnapshot(0)))
           .samples) {
    if (sample.series.starts_with("kspin_opcode_")) {
      ++opcode_series[sample.series];
    }
  }
  EXPECT_EQ(opcode_series.size(), kNumOpcodes);
  for (const OpcodeInfo& row : kOpcodeTable) {
    EXPECT_EQ(opcode_series["kspin_opcode_" + std::string(row.name)], 1)
        << row.name;
  }
}

// ---------------------------------------------------------------------
// Deterministic byte-stream fuzzing. Seeded xorshift64*, no wall-clock
// or entropy inputs: a failure replays bit-for-bit.

class Fuzzer {
 public:
  explicit Fuzzer(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }
  /// Uniform-ish value in [0, bound).
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

  std::vector<std::uint8_t> Bytes(std::size_t count) {
    std::vector<std::uint8_t> out(count);
    for (auto& b : out) b = static_cast<std::uint8_t>(Next());
    return out;
  }

 private:
  std::uint64_t state_;
};

/// A frame that is valid up to the fuzzed mutation: real magic/version,
/// random opcode byte, random payload.
std::vector<std::uint8_t> RandomFrame(Fuzzer& fuzz) {
  FrameHeader header;
  header.opcode = static_cast<Opcode>(fuzz.Below(256));
  header.request_id = fuzz.Next();
  header.deadline_ms = static_cast<std::uint32_t>(fuzz.Below(1000));
  return EncodeFrame(header, fuzz.Bytes(fuzz.Below(256)));
}

TEST(WireFuzzTest, ParserNeverOverreadsRandomBuffers) {
  Fuzzer fuzz(0xF00DF00Du);
  for (int i = 0; i < 4000; ++i) {
    auto buffer = fuzz.Bytes(fuzz.Below(96));
    // Half the time, splice the real magic in front so the fuzz reaches
    // past the magic check into header parsing.
    if (buffer.size() >= 4 && fuzz.Below(2) == 0) {
      const std::uint32_t magic = kMagic;
      std::memcpy(buffer.data(), &magic, sizeof magic);
    }
    FrameHeader header;
    std::size_t frame_size = 0;
    const DecodeResult result = TryDecodeFrame(buffer, &header, &frame_size);
    if (result == DecodeResult::kFrame) {
      ASSERT_LE(frame_size, buffer.size());
      ASSERT_LE(header.payload_size, kMaxPayloadSize);
      ASSERT_EQ(frame_size, kHeaderSize + header.payload_size);
    }
  }
}

TEST(WireFuzzTest, ParserHandlesMutatedValidFrames) {
  Fuzzer fuzz(0xC0FFEEu);
  for (int i = 0; i < 4000; ++i) {
    auto frame = RandomFrame(fuzz);
    // Mutate: bit flip, truncate, or both.
    if (fuzz.Below(2) == 0 && !frame.empty()) {
      frame[fuzz.Below(frame.size())] ^=
          static_cast<std::uint8_t>(1u << fuzz.Below(8));
    }
    if (fuzz.Below(2) == 0) frame.resize(fuzz.Below(frame.size() + 1));

    FrameHeader header;
    std::size_t frame_size = 0;
    const DecodeResult result = TryDecodeFrame(frame, &header, &frame_size);
    if (result == DecodeResult::kFrame) {
      ASSERT_LE(frame_size, frame.size());
      ASSERT_LE(header.payload_size, kMaxPayloadSize);
    }
  }
}

TEST(WireFuzzTest, BodyDecodersNeverCrashOnRandomPayloads) {
  Fuzzer fuzz(0xDECAFBADu);
  for (int i = 0; i < 4000; ++i) {
    const auto payload = fuzz.Bytes(fuzz.Below(160));
    // Request decoders: bool result is irrelevant, the assertion is the
    // absence of crashes/over-reads (ASan) on arbitrary input.
    SearchRequest search;
    DecodeSearchRequest(payload, &search);
    FetchSnapshotRequest fetch;
    DecodeFetchSnapshotRequest(payload, &fetch);
    InsertDocRequest insert;
    DecodeInsertDocRequest(payload, &insert);
    DeleteDocRequest del;
    DecodeDeleteDocRequest(payload, &del);
    UpdateDocRequest update;
    DecodeUpdateDocRequest(payload, &update);
    FetchOplogRequest fetch_oplog;
    DecodeFetchOplogRequest(payload, &fetch_oplog);
    PromoteRequest promote;
    DecodePromoteRequest(payload, &promote);
    // Response decoders.
    {
      PayloadReader reader(payload);
      std::vector<WireResult> results;
      std::uint8_t flags = 0;
      DecodeSearchResponse(reader, &results, &flags);
    }
    {
      PayloadReader reader(payload);
      std::string text;
      DecodeMetricsResponse(reader, &text);
    }
    {
      PayloadReader reader(payload);
      HealthInfo health;
      DecodeHealthResponse(reader, &health);
    }
    {
      PayloadReader reader(payload);
      SnapshotChunk chunk;
      DecodeSnapshotChunkResponse(reader, &chunk);
    }
    {
      PayloadReader reader(payload);
      std::uint64_t sequence = 0;
      std::string path;
      DecodeSnapshotResponse(reader, &sequence, &path);
    }
    {
      PayloadReader reader(payload);
      MutationReply mutation;
      DecodeMutationResponse(reader, &mutation);
    }
    {
      PayloadReader reader(payload);
      OplogChunk chunk;
      DecodeOplogChunkResponse(reader, &chunk);
    }
  }
}

TEST(WireFuzzTest, MutationDecodersSurviveMutatedValidBodies) {
  // Seed the fuzz with structurally valid mutation bodies, then bit-flip and
  // truncate: the decoders must reject damage without over-reading.
  Fuzzer fuzz(0x0B10609u);
  InsertDocRequest insert;
  insert.idempotency_key = 9;
  insert.vertex = 4;
  insert.name = "seed";
  insert.keywords = {"one", "two", "three"};
  UpdateDocRequest update;
  update.idempotency_key = 8;
  update.object = 2;
  update.add_keywords = {"plus"};
  update.remove_keywords = {"minus"};
  OplogChunk chunk;
  chunk.last_sequence = 5;
  chunk.oldest_sequence = 1;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    chunk.records.push_back({seq, std::string(10 + seq, 'r')});
  }
  const std::vector<std::vector<std::uint8_t>> seeds = {
      EncodeInsertDocRequest(insert),
      EncodeDeleteDocRequest({7, 3}),
      EncodeUpdateDocRequest(update),
      EncodeFetchOplogRequest({4, 512}),
      EncodeMutationResponse({42, 17}),
      EncodeOplogChunkResponse(chunk),
  };
  for (int i = 0; i < 4000; ++i) {
    auto payload = seeds[fuzz.Below(seeds.size())];
    if (fuzz.Below(2) == 0 && !payload.empty()) {
      payload[fuzz.Below(payload.size())] ^=
          static_cast<std::uint8_t>(1u << fuzz.Below(8));
    }
    if (fuzz.Below(2) == 0) payload.resize(fuzz.Below(payload.size() + 1));
    InsertDocRequest in;
    DecodeInsertDocRequest(payload, &in);
    DeleteDocRequest del;
    DecodeDeleteDocRequest(payload, &del);
    UpdateDocRequest up;
    DecodeUpdateDocRequest(payload, &up);
    FetchOplogRequest fetch;
    DecodeFetchOplogRequest(payload, &fetch);
    {
      PayloadReader reader(payload);
      MutationReply reply;
      DecodeMutationResponse(reader, &reply);
    }
    {
      PayloadReader reader(payload);
      OplogChunk decoded;
      DecodeOplogChunkResponse(reader, &decoded);
    }
  }
}

/// Boots a real server and feeds its socket fuzzed byte streams; the
/// server must neither crash nor wedge (a fresh PING must still work).
TEST(WireFuzzTest, LiveServerSurvivesFuzzedStreams) {
  Graph graph = kspin::testing::SmallRoadNetwork();
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  PoiService service(graph, oracle);
  SyntheticCatalogOptions catalog;
  catalog.num_pois = 50;
  catalog.num_keywords = 8;
  PopulateSyntheticCatalog(service, graph, catalog);
  Server server(service);
  server.Start();

  Fuzzer fuzz(0xBADF00D5u);
  for (int round = 0; round < 40; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.Port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);

    for (int burst = 0; burst < 4; ++burst) {
      std::vector<std::uint8_t> bytes;
      switch (fuzz.Below(3)) {
        case 0:  // Pure garbage.
          bytes = fuzz.Bytes(1 + fuzz.Below(128));
          break;
        case 1: {  // Valid header, random opcode + payload.
          bytes = RandomFrame(fuzz);
          break;
        }
        default: {  // Valid frame, then bit-flipped or truncated.
          bytes = RandomFrame(fuzz);
          if (fuzz.Below(2) == 0) {
            bytes[fuzz.Below(bytes.size())] ^=
                static_cast<std::uint8_t>(1u << fuzz.Below(8));
          } else {
            bytes.resize(1 + fuzz.Below(bytes.size()));
          }
          break;
        }
      }
      // MSG_NOSIGNAL: the server may already have closed this connection
      // after a fatal stream error; EPIPE is expected, SIGPIPE is not.
      (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    }
    ::close(fd);

    if (round % 10 == 9) {
      // The server must still answer a well-formed client promptly.
      Client probe;
      probe.Connect("127.0.0.1", server.Port());
      EXPECT_TRUE(probe.Ping().ok()) << "round " << round;
    }
  }

  Client probe;
  probe.Connect("127.0.0.1", server.Port());
  EXPECT_TRUE(probe.Ping().ok());
  const auto metrics = probe.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(ParseMetricsText(metrics.text).Value("kspin_connections_opened"),
            40u);
  server.Stop();
}

}  // namespace
}  // namespace kspin::server
