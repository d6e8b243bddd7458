// The mutation-subsystem suite: durable op-log append/sync/replay, torn
// tails and bit rot, a simulated crash at every phase of the
// append/fsync/rotate cycle, rotation and snapshot-driven truncation, the
// FETCH_OPLOG read path, the mutation record codec, the idempotency
// cache, and the epoch gate. Runs under ASan (fault suite) and TSan
// (group-commit and gate tests) in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "io/fault_injection.h"
#include "routing/dijkstra.h"
#include "server/mutation.h"
#include "server/oplog.h"
#include "service/poi_service.h"
#include "test_util.h"

namespace kspin::server {
namespace {

std::vector<std::uint8_t> Payload(std::uint8_t tag, std::size_t size = 8) {
  return std::vector<std::uint8_t>(size, tag);
}

class OplogTest : public ::testing::Test {
 protected:
  /// Options for a log rooted at `dir` (keeps aggregate-init warnings
  /// away from the call sites).
  static OplogOptions DirOptions(std::string dir,
                                 std::uint64_t segment_bytes = 4u << 20) {
    OplogOptions options;
    options.dir = std::move(dir);
    options.segment_bytes = segment_bytes;
    return options;
  }

  /// Replays `dir` from `from` and returns (result, delivered records).
  static std::pair<OplogReplayResult, std::vector<OplogRecord>> Replay(
      const std::string& dir, std::uint64_t from = 0) {
    std::vector<OplogRecord> records;
    const OplogReplayResult result = ReplayOplog(
        dir, from, [&](const OplogRecord& r) { records.push_back(r); });
    return {result, records};
  }
};

// ----- Append / sync / replay round trip -----------------------------------

TEST_F(OplogTest, AppendSyncReplayRoundTrip) {
  const std::string dir = testing::ScratchDir("oplog");
  {
    Oplog log(DirOptions(dir));
    ASSERT_TRUE(log.Open());
    for (std::uint8_t i = 1; i <= 5; ++i) {
      EXPECT_EQ(log.Append(Payload(i, i * 3)), i);
    }
    ASSERT_TRUE(log.Sync());
    EXPECT_EQ(log.LastSequence(), 5u);
    EXPECT_EQ(log.DurableSequence(), 5u);
    EXPECT_EQ(log.OldestSequence(), 1u);
    EXPECT_EQ(log.Appends(), 5u);
    EXPECT_GE(log.FsyncBatches(), 1u);
  }
  const auto [result, records] = Replay(dir);
  EXPECT_FALSE(result.stopped_at_corruption);
  EXPECT_EQ(result.records_applied, 5u);
  EXPECT_EQ(result.last_sequence, 5u);
  ASSERT_EQ(records.size(), 5u);
  for (std::uint8_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(records[i - 1].sequence, i);
    EXPECT_EQ(records[i - 1].payload, Payload(i, i * 3));
  }
  // Replay on top of a snapshot that already covers sequences 1..3.
  const auto [tail_result, tail] = Replay(dir, 3);
  EXPECT_EQ(tail_result.records_applied, 2u);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].sequence, 4u);
}

TEST_F(OplogTest, ReopenSeatsWriterAfterLastRecord) {
  const std::string dir = testing::ScratchDir("oplog");
  {
    Oplog log(DirOptions(dir));
    ASSERT_TRUE(log.Open());
    EXPECT_EQ(log.Append(Payload(1)), 1u);
    EXPECT_EQ(log.Append(Payload(2)), 2u);
    ASSERT_TRUE(log.Sync());
  }
  Oplog log(DirOptions(dir));
  ASSERT_TRUE(log.Open());
  EXPECT_EQ(log.LastSequence(), 2u);
  EXPECT_EQ(log.Append(Payload(3)), 3u);
  ASSERT_TRUE(log.Sync());
  EXPECT_EQ(Replay(dir).first.records_applied, 3u);
}

TEST_F(OplogTest, OpenSeedsSequenceFromRestoredSnapshot) {
  // A restored snapshot can be ahead of a truncated (or absent) log; the
  // next mutation must continue from the snapshot's applied position.
  const std::string dir = testing::ScratchDir("oplog");
  Oplog log(DirOptions(dir));
  ASSERT_TRUE(log.Open(101));
  EXPECT_EQ(log.LastSequence(), 100u);
  EXPECT_EQ(log.Append(Payload(1)), 101u);
}

TEST_F(OplogTest, DisabledLogAssignsSequencesInMemory) {
  Oplog log(OplogOptions{});  // Empty dir: durability off.
  EXPECT_FALSE(log.Enabled());
  ASSERT_TRUE(log.Open());
  EXPECT_EQ(log.Append(Payload(1)), 1u);
  EXPECT_EQ(log.Append(Payload(2)), 2u);
  EXPECT_TRUE(log.Sync());
  EXPECT_EQ(log.LastSequence(), 2u);
}

// ----- Torn tails and bit rot ----------------------------------------------

TEST_F(OplogTest, TornTailReplaysLongestValidPrefix) {
  const std::string dir = testing::ScratchDir("oplog");
  {
    Oplog log(DirOptions(dir));
    ASSERT_TRUE(log.Open());
    for (std::uint8_t i = 1; i <= 3; ++i) log.Append(Payload(i, 40));
    ASSERT_TRUE(log.Sync());
  }
  // A crash mid-write leaves the last record torn.
  const auto segments = FindOplogSegments(dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string& path = segments.front().second;
  io::TruncateFileTo(path, io::FileSize(path) - 7);

  const auto [result, records] = Replay(dir);
  EXPECT_TRUE(result.stopped_at_corruption);
  EXPECT_EQ(result.records_applied, 2u);
  EXPECT_EQ(result.last_sequence, 2u);

  // Reopening truncates the torn tail away and resumes cleanly after it.
  Oplog log(DirOptions(dir));
  ASSERT_TRUE(log.Open());
  EXPECT_EQ(log.LastSequence(), 2u);
  EXPECT_EQ(log.Append(Payload(9, 40)), 3u);
  ASSERT_TRUE(log.Sync());
  const auto [after, after_records] = Replay(dir);
  EXPECT_FALSE(after.stopped_at_corruption);
  EXPECT_EQ(after.records_applied, 3u);
  EXPECT_EQ(after_records.back().payload, Payload(9, 40));
}

TEST_F(OplogTest, BitFlipStopsReplayBeforeCorruptRecord) {
  const std::string dir = testing::ScratchDir("oplog");
  {
    Oplog log(DirOptions(dir));
    ASSERT_TRUE(log.Open());
    for (std::uint8_t i = 1; i <= 3; ++i) log.Append(Payload(i, 24));
    ASSERT_TRUE(log.Sync());
  }
  const auto segments = FindOplogSegments(dir);
  ASSERT_EQ(segments.size(), 1u);
  // Segment header (16) + record 1 (16 + 24) + a few bytes into record 2.
  io::FlipByteInFile(segments.front().second, 16 + 40 + 20, 0x04);

  const auto [result, records] = Replay(dir);
  EXPECT_TRUE(result.stopped_at_corruption);
  EXPECT_EQ(result.records_applied, 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().sequence, 1u);
  EXPECT_NE(result.corruption_detail.find("checksum"), std::string::npos);
}

// ----- Crash at every phase ------------------------------------------------

TEST_F(OplogTest, CrashAtEveryPhaseLeavesReplayableLog) {
  // Simulate kill -9 at each instrumented instant of the
  // append/fsync/rotate cycle; whatever is on disk afterwards must replay
  // to a dense, valid prefix, and a restarted writer must resume from it.
  for (const OplogPhase crash_phase :
       {OplogPhase::kAfterRecordWrite, OplogPhase::kAfterSync,
        OplogPhase::kBeforeRotate, OplogPhase::kAfterRotateTemp,
        OplogPhase::kAfterRotateRename}) {
    const std::string dir = testing::ScratchDir(
        "oplog_" + std::to_string(static_cast<int>(crash_phase)));
    std::uint64_t durable_at_crash = 0;
    {
      OplogOptions options;
      options.dir = dir;
      options.segment_bytes = 64;  // Rotate every couple of records.
      bool crashed = false;
      options.hooks.on_phase = [&](OplogPhase phase) {
        if (phase == crash_phase) {
          crashed = true;
          return false;
        }
        return true;
      };
      Oplog log(options);
      ASSERT_TRUE(log.Open());
      for (std::uint8_t i = 1; i <= 10 && !crashed; ++i) {
        if (log.Append(Payload(i, 24)) == 0) break;
        if (!log.Sync()) break;
        durable_at_crash = log.DurableSequence();
      }
      ASSERT_TRUE(crashed) << "phase " << static_cast<int>(crash_phase);
    }
    // Replay after the "crash": a dense prefix that covers at least every
    // record whose Sync completed before the crash.
    const auto [result, records] = Replay(dir);
    EXPECT_GE(result.last_sequence, durable_at_crash)
        << "phase " << static_cast<int>(crash_phase);
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].sequence, i + 1);
    }
    // Restart: the writer resumes exactly after the replayable prefix.
    Oplog restarted(DirOptions(dir));
    ASSERT_TRUE(restarted.Open(result.last_sequence + 1));
    EXPECT_EQ(restarted.Append(Payload(0xee, 24)),
              result.last_sequence + 1);
    ASSERT_TRUE(restarted.Sync());
    const auto [after, after_records] = Replay(dir);
    EXPECT_FALSE(after.stopped_at_corruption);
    EXPECT_EQ(after.last_sequence, result.last_sequence + 1);
  }
}

// ----- Rotation and truncation ---------------------------------------------

TEST_F(OplogTest, RotationKeepsSequencesDenseAcrossSegments) {
  const std::string dir = testing::ScratchDir("oplog");
  Oplog log(DirOptions(dir, 1));  // Rotate after every record.
  ASSERT_TRUE(log.Open());
  for (std::uint8_t i = 1; i <= 8; ++i) {
    ASSERT_EQ(log.Append(Payload(i)), i);
  }
  ASSERT_TRUE(log.Sync());
  EXPECT_GE(FindOplogSegments(dir).size(), 4u);
  const auto [result, records] = Replay(dir);
  EXPECT_FALSE(result.stopped_at_corruption);
  EXPECT_EQ(result.records_applied, 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sequence, i + 1);
  }
}

TEST_F(OplogTest, TruncateThroughDeletesOnlyCoveredSealedSegments) {
  const std::string dir = testing::ScratchDir("oplog");
  Oplog log(DirOptions(dir, 1));
  ASSERT_TRUE(log.Open());
  for (std::uint8_t i = 1; i <= 6; ++i) log.Append(Payload(i));
  ASSERT_TRUE(log.Sync());
  const std::size_t before = FindOplogSegments(dir).size();

  // A snapshot covering sequence 4 releases the segments holding 1..4.
  const std::size_t removed = log.TruncateThrough(4);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(FindOplogSegments(dir).size(), before - removed);
  EXPECT_GT(log.OldestSequence(), 1u);
  EXPECT_LE(log.OldestSequence(), 5u);

  // The surviving suffix still replays (from the covered position)...
  const auto [result, records] = Replay(dir, log.OldestSequence() - 1);
  EXPECT_FALSE(result.stopped_at_corruption);
  EXPECT_EQ(result.last_sequence, 6u);
  // ...and TruncateThrough never deletes the active segment, so the most
  // recent history stays tailable even when a snapshot covers everything.
  log.TruncateThrough(100);
  EXPECT_FALSE(FindOplogSegments(dir).empty());
  EXPECT_EQ(Replay(dir, 5).first.last_sequence, 6u);
}

// ----- The FETCH_OPLOG read path -------------------------------------------

TEST_F(OplogTest, ReadRangeRespectsBudgetWithProgressGuarantee) {
  const std::string dir = testing::ScratchDir("oplog");
  Oplog log(DirOptions(dir));
  ASSERT_TRUE(log.Open());
  for (std::uint8_t i = 1; i <= 6; ++i) log.Append(Payload(i, 100));
  ASSERT_TRUE(log.Sync());

  std::vector<OplogRecord> out;
  bool truncated = true;
  // Budget for roughly two records (payload 100 + overhead 32 each).
  ASSERT_TRUE(log.ReadRange(0, 280, &out, &truncated));
  EXPECT_FALSE(truncated);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].sequence, 1u);

  // A budget too small for even one record still returns one: progress.
  out.clear();
  ASSERT_TRUE(log.ReadRange(2, 1, &out, &truncated));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().sequence, 3u);

  // In sync: nothing to return, not truncated.
  out.clear();
  ASSERT_TRUE(log.ReadRange(6, 0, &out, &truncated));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(truncated);
}

TEST_F(OplogTest, ReadRangeSignalsTruncatedHistory) {
  const std::string dir = testing::ScratchDir("oplog");
  Oplog log(DirOptions(dir, 1));
  ASSERT_TRUE(log.Open());
  for (std::uint8_t i = 1; i <= 6; ++i) log.Append(Payload(i));
  ASSERT_TRUE(log.Sync());
  ASSERT_GT(log.TruncateThrough(4), 0u);

  // A replica at sequence 1 needs 2..6, but 2 is gone: snapshot fallback.
  std::vector<OplogRecord> out;
  bool truncated = false;
  ASSERT_TRUE(log.ReadRange(1, 0, &out, &truncated));
  EXPECT_TRUE(truncated);

  // A replica right at the retention edge can still tail.
  out.clear();
  ASSERT_TRUE(log.ReadRange(log.OldestSequence() - 1, 0, &out, &truncated));
  EXPECT_FALSE(truncated);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().sequence, log.OldestSequence());
  EXPECT_EQ(out.back().sequence, 6u);
}

TEST_F(OplogTest, ExplicitSequenceAppendMustStayDense) {
  const std::string dir = testing::ScratchDir("oplog");
  Oplog log(DirOptions(dir));
  ASSERT_TRUE(log.Open());
  EXPECT_EQ(log.Append(Payload(1), 5), 0u);  // Gap: rejected.
  EXPECT_EQ(log.Append(Payload(1), 1), 1u);
  EXPECT_EQ(log.Append(Payload(2), 3), 0u);  // Gap: rejected.
  EXPECT_EQ(log.Append(Payload(2), 2), 2u);
  EXPECT_EQ(log.Append(Payload(2), 2), 0u);  // Duplicate: rejected.
  ASSERT_TRUE(log.Sync());
  EXPECT_EQ(Replay(dir).first.last_sequence, 2u);
}

TEST_F(OplogTest, ResetDiscardsHistoryAndJumpsSequence) {
  const std::string dir = testing::ScratchDir("oplog");
  Oplog log(DirOptions(dir));
  ASSERT_TRUE(log.Open());
  for (std::uint8_t i = 1; i <= 3; ++i) log.Append(Payload(i));
  ASSERT_TRUE(log.Sync());

  // A replica that installed a snapshot at sequence 10 cannot represent
  // the 4..10 gap in a dense log; it starts over.
  ASSERT_TRUE(log.Reset(11));
  EXPECT_EQ(log.LastSequence(), 10u);
  EXPECT_EQ(log.Append(Payload(9), 11), 11u);
  ASSERT_TRUE(log.Sync());
  const auto [result, records] = Replay(dir);
  EXPECT_FALSE(result.stopped_at_corruption);
  EXPECT_EQ(result.records_applied, 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().sequence, 11u);
}

// ----- Divergence quarantine -----------------------------------------------

TEST_F(OplogTest, QuarantineTailPreservesDivergentRecords) {
  const std::string dir = testing::ScratchDir("oplog");
  Oplog log(DirOptions(dir));
  ASSERT_TRUE(log.Open());
  for (std::uint8_t i = 1; i <= 5; ++i) log.Append(Payload(i, 8 + i));
  ASSERT_TRUE(log.Sync());

  // Records 4..5 belong to a dead reign: preserve them aside.
  std::string path;
  EXPECT_EQ(log.QuarantineTail(4, &path), 2u);
  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(std::filesystem::exists(path));

  // The quarantine file uses the segment format, so renaming it into a
  // fresh directory makes the preserved records fully replayable — the
  // inspection story the failover runbook promises.
  const std::string inspect = dir + "_inspect";
  std::filesystem::remove_all(inspect);
  std::filesystem::create_directories(inspect);
  std::filesystem::copy_file(
      path, std::filesystem::path(inspect) / OplogSegmentFileName(4));
  const auto [result, records] = Replay(inspect);
  EXPECT_FALSE(result.stopped_at_corruption);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sequence, 4u);
  EXPECT_EQ(records[0].payload, Payload(4, 12));
  EXPECT_EQ(records[1].sequence, 5u);

  // Idempotent: a retry after a crash-before-truncate finds the file
  // already written and reports the same count without duplicating it.
  EXPECT_EQ(log.QuarantineTail(4, nullptr), 2u);
}

TEST_F(OplogTest, QuarantineTailEdgeCases) {
  const std::string dir = testing::ScratchDir("oplog");
  Oplog log(DirOptions(dir));
  ASSERT_TRUE(log.Open());
  log.Append(Payload(1));
  ASSERT_TRUE(log.Sync());

  EXPECT_EQ(log.QuarantineTail(0, nullptr), 0u);  // No boundary: no-op.
  EXPECT_EQ(log.QuarantineTail(2, nullptr), 0u);  // Nothing past the end.
  EXPECT_FALSE(
      std::filesystem::exists(std::filesystem::path(dir) / "quarantine"));

  Oplog disabled{OplogOptions{}};
  ASSERT_TRUE(disabled.Open());
  disabled.Append(Payload(1));
  EXPECT_EQ(disabled.QuarantineTail(1, nullptr), 0u);  // Nothing on disk.
}

// ----- Group commit (runs under TSan in CI) --------------------------------

TEST_F(OplogTest, ConcurrentAppendSyncGroupCommits) {
  const std::string dir = testing::ScratchDir("oplog");
  Oplog log(DirOptions(dir));
  ASSERT_TRUE(log.Open());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t seq =
            log.Append(Payload(static_cast<std::uint8_t>(t), 16));
        if (seq == 0 || !log.Sync() || log.DurableSequence() < seq) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(log.Appends(), kThreads * kPerThread);
  // Group commit: batches never exceed appends (usually far fewer).
  EXPECT_LE(log.FsyncBatches(), log.Appends());
  const auto [result, records] = Replay(dir);
  EXPECT_FALSE(result.stopped_at_corruption);
  EXPECT_EQ(result.records_applied,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ----- Mutation record codec -----------------------------------------------

TEST(MutationRecordTest, CodecRoundTripsEveryOp) {
  MutationRecord insert;
  insert.op = MutationOp::kInsert;
  insert.idempotency_key = 0xfeedbeefull;
  insert.vertex = 42;
  insert.name = "Thai Palace";
  insert.add_keywords = {"thai", "restaurant"};

  MutationRecord del;
  del.op = MutationOp::kDelete;
  del.object = 7;

  MutationRecord update;
  update.op = MutationOp::kUpdate;
  update.idempotency_key = 1;
  update.object = 3;
  update.add_keywords = {"takeaway"};
  update.remove_keywords = {"wifi"};

  for (const MutationRecord& record : {insert, del, update}) {
    const auto bytes = EncodeMutationRecord(record);
    MutationRecord decoded;
    ASSERT_TRUE(DecodeMutationRecord(bytes, &decoded));
    EXPECT_EQ(decoded.op, record.op);
    EXPECT_EQ(decoded.idempotency_key, record.idempotency_key);
    EXPECT_EQ(decoded.vertex, record.vertex);
    EXPECT_EQ(decoded.object, record.object);
    EXPECT_EQ(decoded.name, record.name);
    EXPECT_EQ(decoded.add_keywords, record.add_keywords);
    EXPECT_EQ(decoded.remove_keywords, record.remove_keywords);
  }
}

TEST(MutationRecordTest, DecodeRejectsDamage) {
  MutationRecord record;
  record.op = MutationOp::kInsert;
  record.vertex = 1;
  record.name = "x";
  record.add_keywords = {"a"};
  auto bytes = EncodeMutationRecord(record);
  MutationRecord decoded;

  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_FALSE(DecodeMutationRecord(truncated, &decoded));

  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeMutationRecord(trailing, &decoded));

  auto bad_op = bytes;
  bad_op[0] = 0x7f;  // Unknown op tag.
  EXPECT_FALSE(DecodeMutationRecord(bad_op, &decoded));

  EXPECT_FALSE(DecodeMutationRecord({}, &decoded));
}

TEST(MutationRecordTest, EpochTransitionRecordRoundTripsAndAppliesAsNoop) {
  MutationRecord record;
  record.op = MutationOp::kEpochTransition;
  record.idempotency_key = 0;
  record.epoch = 7;
  const auto bytes = EncodeMutationRecord(record);
  MutationRecord decoded;
  ASSERT_TRUE(DecodeMutationRecord(bytes, &decoded));
  EXPECT_EQ(decoded.op, MutationOp::kEpochTransition);
  EXPECT_EQ(decoded.epoch, 7u);

  // Epoch 0 never marks a transition; a record claiming it is damage.
  MutationRecord zero = record;
  zero.epoch = 0;
  EXPECT_FALSE(DecodeMutationRecord(EncodeMutationRecord(zero), &decoded));

  // Applying the record must not disturb the catalog: it moves
  // replication state only.
  const Graph graph = testing::SmallRoadNetwork(31);
  DijkstraOracle oracle(graph);
  PoiService service(graph, oracle);
  MutationRecord insert;
  insert.op = MutationOp::kInsert;
  insert.vertex = 3;
  insert.name = "anchor";
  insert.add_keywords = {"cafe"};
  const ObjectId anchor = ApplyMutationRecord(service, insert);
  EXPECT_EQ(ApplyMutationRecord(service, record), kInvalidObject);
  const auto hits = service.Search("cafe", 0, 4);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits.front().id, anchor);
}

TEST(MutationRecordTest, ApplyIsDeterministicAcrossServices) {
  // Same record stream, same starting state => same object ids and same
  // search results: the invariant crash replay and log shipping rely on.
  const Graph graph = testing::SmallRoadNetwork(77);
  DijkstraOracle oracle(graph);
  PoiService primary(graph, oracle);
  PoiService replica(graph, oracle);

  std::vector<MutationRecord> records;
  for (std::uint8_t i = 0; i < 4; ++i) {
    MutationRecord insert;
    insert.op = MutationOp::kInsert;
    insert.vertex = static_cast<VertexId>(10 + i * 7);
    insert.name = "poi" + std::to_string(i);
    insert.add_keywords = {"cafe", i % 2 ? "wifi" : "tea"};
    records.push_back(insert);
  }
  MutationRecord update;
  update.op = MutationOp::kUpdate;
  update.object = 1;
  update.add_keywords = {"takeaway"};
  update.remove_keywords = {"wifi"};
  records.push_back(update);
  MutationRecord del;
  del.op = MutationOp::kDelete;
  del.object = 2;
  records.push_back(del);

  for (const MutationRecord& record : records) {
    const ObjectId a = ApplyMutationRecord(primary, record);
    const ObjectId b = ApplyMutationRecord(replica, record);
    EXPECT_EQ(a, b);
  }
  for (const char* query : {"cafe", "takeaway", "wifi", "tea"}) {
    const auto lhs = primary.Search(query, 0, 8);
    const auto rhs = replica.Search(query, 0, 8);
    ASSERT_EQ(lhs.size(), rhs.size()) << query;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].id, rhs[i].id);
      EXPECT_EQ(lhs[i].travel_time, rhs[i].travel_time);
    }
  }
}

// ----- Idempotency cache ---------------------------------------------------

TEST(IdempotencyCacheTest, RemembersAndEvictsFifo) {
  IdempotencyCache cache(2);
  EXPECT_EQ(cache.Find(1), nullptr);
  cache.Remember(1, {10, 100});
  cache.Remember(2, {20, 200});
  ASSERT_NE(cache.Find(1), nullptr);
  EXPECT_EQ(cache.Find(1)->sequence, 10u);
  EXPECT_EQ(cache.Find(2)->object, 200u);

  cache.Remember(3, {30, 300});  // Capacity 2: key 1 evicted first.
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_NE(cache.Find(2), nullptr);
  EXPECT_NE(cache.Find(3), nullptr);

  cache.Remember(0, {40, 400});  // Key 0 = "no key": never stored.
  EXPECT_EQ(cache.Find(0), nullptr);
  EXPECT_EQ(cache.Size(), 2u);
}

// ----- Epoch gate (runs under TSan in CI) ----------------------------------

TEST(EpochGateTest, EpochCountsApplyWindows) {
  EpochGate gate;
  EXPECT_EQ(gate.Epoch(), 0u);
  { const EpochGate::ApplyGuard apply(gate); }
  { const EpochGate::ApplyGuard apply(gate); }
  EXPECT_EQ(gate.Epoch(), 2u);
  // Readers in and out freely with no writer active.
  { const auto reader = gate.Reader(0); }
  { const auto reader = gate.Reader(31); }
  EXPECT_EQ(gate.Epoch(), 2u);
}

TEST(EpochGateTest, ReadersAndWriterInterleaveWithoutDeadlock) {
  EpochGate gate;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto guard = gate.Reader(static_cast<std::size_t>(t));
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let the readers actually start before the writer storms through.
  while (reads.load(std::memory_order_relaxed) < 100) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 200; ++i) {
    const EpochGate::ApplyGuard apply(gate);
  }
  stop.store(true);
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(gate.Epoch(), 200u);
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace kspin::server
