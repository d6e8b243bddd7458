// The fault-injection suite (docs/persistence.md): every storage failure
// class — ENOSPC, short/torn writes, bit rot, truncation, a crash at any
// phase of the atomic write — must surface as a typed
// io::SerializationError or a clean fallback to the previous snapshot,
// never UB or a silently wrong index. Runs under ASan in CI so "no UB"
// is checked, not assumed.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "io/binary_format.h"
#include "io/fault_injection.h"
#include "io/serialization.h"
#include "io/snapshot.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "routing/hub_labeling.h"
#include "service/poi_service.h"
#include "service/service_snapshot.h"
#include "test_util.h"

namespace kspin {
namespace {

// A small serving state with enough variety to exercise every section:
// multiple keywords (flat and Voronoi-eligible), a closed POI, a retag.
class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : graph_(testing::SmallRoadNetwork(91)),
        oracle_(graph_),
        service_(graph_, oracle_) {
    const std::vector<std::string> cafe = {"cafe", "wifi"};
    const std::vector<std::string> fuel = {"fuel"};
    const std::vector<std::string> thai = {"thai", "restaurant"};
    for (VertexId v = 3; v < graph_.NumVertices(); v += 17) {
      service_.AddPoi("cafe" + std::to_string(v), v, cafe);
    }
    for (VertexId v = 5; v < graph_.NumVertices(); v += 41) {
      service_.AddPoi("fuel" + std::to_string(v), v, fuel);
    }
    for (VertexId v = 8; v < graph_.NumVertices(); v += 53) {
      service_.AddPoi("thai" + std::to_string(v), v, thai);
    }
    service_.ClosePoi(1);
    service_.TagPoi(0, "takeaway");
  }

  /// The snapshot image of the fixture's serving state.
  std::string SnapshotBytes() const {
    std::ostringstream out;
    WriteServiceSnapshot(service_, out);
    return out.str();
  }

  /// Query fingerprint used to prove restored state answers identically.
  std::vector<std::pair<ObjectId, Distance>> Fingerprint(
      PoiService& service) const {
    std::vector<std::pair<ObjectId, Distance>> out;
    for (VertexId from : {VertexId{0}, VertexId{17}, VertexId{100}}) {
      for (const char* query :
           {"cafe", "cafe and wifi", "thai or fuel", "takeaway"}) {
        for (const PoiResult& r : service.Search(query, from, 4)) {
          out.emplace_back(r.id, r.travel_time);
        }
      }
    }
    return out;
  }

  Graph graph_;
  DijkstraOracle oracle_;
  PoiService service_;
};

// ----- Stream faults (ENOSPC, torn writes, bit rot) ------------------------

TEST_F(FaultInjectionTest, WriteFailureThrowsNotTruncates) {
  // Fail at many different offsets: the first write past the limit must
  // throw (CheckWrite after every write), regardless of which artifact
  // or field it lands in.
  for (const std::uint64_t limit : {0ull, 1ull, 7ull, 64ull, 4096ull}) {
    std::ostringstream sink;
    io::StreamFaultPlan plan;
    plan.fail_after = limit;
    io::FaultyOStream faulty(sink, plan);
    EXPECT_THROW(WriteServiceSnapshot(service_, faulty),
                 io::SerializationError)
        << "fail_after=" << limit;
  }
}

TEST_F(FaultInjectionTest, SaveGraphEnospcThrows) {
  std::ostringstream sink;
  io::StreamFaultPlan plan;
  plan.fail_after = 100;
  io::FaultyOStream faulty(sink, plan);
  EXPECT_THROW(SaveGraph(graph_, faulty), io::SerializationError);
}

TEST_F(FaultInjectionTest, SilentShortWriteDetectedOnLoad) {
  // The writer cannot see a torn write (the stream claims success), but
  // the resulting truncated snapshot must fail validation cleanly.
  const std::string full = SnapshotBytes();
  for (const std::uint64_t keep : std::vector<std::uint64_t>{
           0, 8, 100, full.size() / 2, full.size() - 1}) {
    std::ostringstream sink;
    io::StreamFaultPlan plan;
    plan.silently_drop_after = keep;
    io::FaultyOStream faulty(sink, plan);
    WriteServiceSnapshot(service_, faulty);  // "Succeeds".
    ASSERT_EQ(sink.str().size(), std::min<std::uint64_t>(keep, full.size()));
    EXPECT_THROW(io::SnapshotReader reader(sink.str()),
                 io::SerializationError)
        << "keep=" << keep;
  }
}

TEST_F(FaultInjectionTest, InFlightBitFlipDetectedOnLoad) {
  const std::string full = SnapshotBytes();
  for (const std::uint64_t offset : std::vector<std::uint64_t>{
           20, full.size() / 3, full.size() - 20}) {
    std::ostringstream sink;
    io::StreamFaultPlan plan;
    plan.flip_byte_at = offset;
    plan.flip_mask = 0x40;
    io::FaultyOStream faulty(sink, plan);
    WriteServiceSnapshot(service_, faulty);
    ASSERT_EQ(sink.str().size(), full.size());
    EXPECT_THROW(io::SnapshotReader reader(sink.str()),
                 io::SerializationError)
        << "offset=" << offset;
  }
}

// ----- Container round trip ------------------------------------------------

TEST_F(FaultInjectionTest, SnapshotRoundTripAnswersIdentically) {
  const std::string bytes = SnapshotBytes();
  io::ViewIStream in(bytes);
  RestoredServiceState state = ReadServiceSnapshot(in);
  ASSERT_NE(state.graph, nullptr);
  DijkstraOracle oracle(*state.graph);
  PoiService restored(*state.graph, oracle,
                      std::move(state.catalog.vocabulary),
                      std::move(state.catalog.names), std::move(state.store),
                      std::move(state.alt), std::move(state.keyword_index));
  EXPECT_EQ(Fingerprint(restored), Fingerprint(service_));
  EXPECT_EQ(restored.NumLivePois(), service_.NumLivePois());
  EXPECT_EQ(restored.NameOf(0), service_.NameOf(0));
}

// A snapshot carrying the CH and hub-label sections restores both, and a
// service over either oracle answers like the original.
TEST_F(FaultInjectionTest, SnapshotWithOracleIndexesRestoresBoth) {
  const ContractionHierarchy ch(graph_);
  const HubLabeling hl(graph_, ch);
  std::ostringstream out;
  WriteServiceSnapshot(service_, out, {.ch = &ch, .hl = &hl});
  const std::string bytes = out.str();
  for (const bool use_hl : {false, true}) {
    io::ViewIStream in(bytes);
    RestoredServiceState state = ReadServiceSnapshot(in);
    ASSERT_NE(state.ch, nullptr);
    ASSERT_NE(state.hl, nullptr);
    ChOracle ch_oracle(*state.ch);
    HubLabelOracle hl_oracle(*state.hl);
    DistanceOracle& oracle =
        use_hl ? static_cast<DistanceOracle&>(hl_oracle) : ch_oracle;
    PoiService restored(*state.graph, oracle,
                        std::move(state.catalog.vocabulary),
                        std::move(state.catalog.names),
                        std::move(state.store), std::move(state.alt),
                        std::move(state.keyword_index));
    EXPECT_EQ(Fingerprint(restored), Fingerprint(service_))
        << "oracle=" << oracle.Name();
  }
}

// A CH or hub labeling built on another graph must not restore next to
// this graph, whether the snapshot brings its own graph or is reloaded
// against the serving one.
TEST_F(FaultInjectionTest, SnapshotRejectsOracleIndexesOfAnotherGraph) {
  const Graph other = testing::TinyGrid();
  const ContractionHierarchy ch(other);
  const HubLabeling hl(other, ch);
  for (const ServiceSnapshotArtifacts& extra :
       {ServiceSnapshotArtifacts{.ch = &ch},
        ServiceSnapshotArtifacts{.hl = &hl}}) {
    std::ostringstream out;
    WriteServiceSnapshot(service_, out, extra);
    const std::string bytes = out.str();
    io::ViewIStream in(bytes);
    EXPECT_THROW(ReadServiceSnapshot(in), io::SerializationError);
    io::ViewIStream reload(bytes);
    EXPECT_THROW(ReadServiceSnapshot(reload, &graph_),
                 io::SerializationError);
  }
}

TEST_F(FaultInjectionTest, SnapshotBytesAreDeterministic) {
  // Identical state => identical bytes: the property RELOAD's graph
  // byte-comparison and the kill-9 smoke test rely on.
  EXPECT_EQ(SnapshotBytes(), SnapshotBytes());
}

// ----- Corruption property tests -------------------------------------------

TEST_F(FaultInjectionTest, BitFlipAtEverySectionBoundaryDetected) {
  const std::string bytes = SnapshotBytes();
  const io::SnapshotReader reader(bytes);
  std::vector<std::uint64_t> offsets = {0, 8, 12, bytes.size() - 16,
                                        bytes.size() - 8, bytes.size() - 1};
  for (const auto& [section, payload_offset] : reader.SectionOffsets()) {
    offsets.push_back(payload_offset - 20);  // Section header start.
    offsets.push_back(payload_offset - 8);   // Payload CRC field.
    offsets.push_back(payload_offset);       // First payload byte.
  }
  for (const std::uint64_t offset : offsets) {
    ASSERT_LT(offset, bytes.size());
    for (const std::uint8_t mask : {0x01, 0x80}) {
      std::string corrupt = bytes;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ mask);
      EXPECT_THROW(io::SnapshotReader r(corrupt), io::SerializationError)
          << "offset=" << offset << " mask=" << int{mask};
    }
  }
}

TEST_F(FaultInjectionTest, BitFlipAtRandomOffsetsDetected) {
  const std::string bytes = SnapshotBytes();
  std::uint64_t rng = 0x5eed5eed5eed5eedull;
  auto next = [&rng] {
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    return rng * 0x2545f4914f6cdd1dull;
  };
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t offset = next() % bytes.size();
    const std::uint8_t mask =
        static_cast<std::uint8_t>(1u << (next() % 8));
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ mask);
    EXPECT_THROW(io::SnapshotReader r(corrupt), io::SerializationError)
        << "trial=" << trial << " offset=" << offset
        << " mask=" << int{mask};
  }
}

TEST_F(FaultInjectionTest, TruncationAtEveryBoundaryAndRandomSizesDetected) {
  const std::string bytes = SnapshotBytes();
  const io::SnapshotReader reader(bytes);
  std::vector<std::uint64_t> cuts = {0, 1, 7, 8, 15, 16, bytes.size() - 16,
                                     bytes.size() - 1};
  for (const auto& [section, payload_offset] : reader.SectionOffsets()) {
    cuts.push_back(payload_offset - 20);
    cuts.push_back(payload_offset);
    cuts.push_back(payload_offset + 1);
  }
  std::uint64_t rng = 0xabadcafe1234ull;
  auto next = [&rng] {
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    return rng * 0x2545f4914f6cdd1dull;
  };
  for (int trial = 0; trial < 100; ++trial) cuts.push_back(next() % bytes.size());
  for (const std::uint64_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    EXPECT_THROW(io::SnapshotReader r(bytes.substr(0, cut)),
                 io::SerializationError)
        << "cut=" << cut;
  }
}

// ----- Crash-safe file writing ---------------------------------------------

TEST_F(FaultInjectionTest, CrashBeforeTempWriteLeavesNothing) {
  const std::string dir = testing::ScratchDir("snapshots");
  const std::string path = dir + "/" + io::SnapshotFileName(1);
  io::AtomicWriteHooks hooks;
  hooks.on_phase = [](io::AtomicWritePhase phase) {
    return phase != io::AtomicWritePhase::kBeforeTempWrite;
  };
  EXPECT_FALSE(WriteServiceSnapshotFile(path, service_, {}, &hooks));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(io::FindSnapshots(dir).empty());
}

TEST_F(FaultInjectionTest, CrashAfterTempWriteLeavesOldStateUsable) {
  const std::string dir = testing::ScratchDir("snapshots");
  // A good snapshot exists from "yesterday".
  ASSERT_TRUE(
      WriteServiceSnapshotFile(dir + "/" + io::SnapshotFileName(1), service_));
  // Today's snapshot attempt crashes between temp write and rename.
  const std::string path = dir + "/" + io::SnapshotFileName(2);
  io::AtomicWriteHooks hooks;
  hooks.on_phase = [](io::AtomicWritePhase phase) {
    return phase != io::AtomicWritePhase::kAfterTempWrite;
  };
  EXPECT_FALSE(WriteServiceSnapshotFile(path, service_, {}, &hooks));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));  // Real crash debris.

  // Recovery ignores the temp file and restores yesterday's snapshot.
  const auto found = io::FindSnapshots(dir);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found.front().first, 1u);
  std::vector<std::string> errors;
  const auto loaded = LoadNewestValidServiceSnapshot(dir, nullptr, &errors);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 1u);
  EXPECT_TRUE(errors.empty());

  // Pruning clears the debris.
  EXPECT_GE(io::PruneSnapshots(dir, 4), 1u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(FaultInjectionTest, CrashAfterRenameIsAlreadyDurable) {
  const std::string dir = testing::ScratchDir("snapshots");
  const std::string path = dir + "/" + io::SnapshotFileName(1);
  io::AtomicWriteHooks hooks;
  hooks.on_phase = [](io::AtomicWritePhase phase) {
    return phase != io::AtomicWritePhase::kAfterRename;
  };
  EXPECT_FALSE(WriteServiceSnapshotFile(path, service_, {}, &hooks));
  // The rename happened: the snapshot is complete and valid.
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto loaded = LoadNewestValidServiceSnapshot(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 1u);
}

TEST_F(FaultInjectionTest, EnospcDuringAtomicWriteCleansUp) {
  const std::string dir = testing::ScratchDir("snapshots");
  const std::string path = dir + "/" + io::SnapshotFileName(1);
  io::AtomicWriteHooks hooks;
  hooks.stream_faults.fail_after = 512;
  EXPECT_THROW(WriteServiceSnapshotFile(path, service_, {}, &hooks),
               io::SerializationError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // Removed on throw.
}

// ----- Newest-valid fallback -----------------------------------------------

TEST_F(FaultInjectionTest, FallsBackPastCorruptNewestSnapshot) {
  const std::string dir = testing::ScratchDir("snapshots");
  ASSERT_TRUE(
      WriteServiceSnapshotFile(dir + "/" + io::SnapshotFileName(1), service_));
  const std::string newest = dir + "/" + io::SnapshotFileName(2);
  ASSERT_TRUE(WriteServiceSnapshotFile(newest, service_));
  io::FlipByteInFile(newest, io::FileSize(newest) / 2, 0x10);

  std::vector<std::string> errors;
  auto loaded = LoadNewestValidServiceSnapshot(dir, nullptr, &errors);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 1u);  // Skipped the corrupt sequence 2.
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find(io::SnapshotFileName(2)), std::string::npos);

  // The restored state still answers queries correctly.
  RestoredServiceState state = std::move(loaded->state);
  DijkstraOracle oracle(*state.graph);
  PoiService restored(*state.graph, oracle,
                      std::move(state.catalog.vocabulary),
                      std::move(state.catalog.names), std::move(state.store),
                      std::move(state.alt), std::move(state.keyword_index));
  EXPECT_EQ(Fingerprint(restored), Fingerprint(service_));
}

TEST_F(FaultInjectionTest, AllSnapshotsCorruptMeansCleanRebuildSignal) {
  const std::string dir = testing::ScratchDir("snapshots");
  for (std::uint64_t seq : {1u, 2u}) {
    const std::string path = dir + "/" + io::SnapshotFileName(seq);
    ASSERT_TRUE(WriteServiceSnapshotFile(path, service_));
    io::TruncateFileTo(path, io::FileSize(path) - 5);
  }
  std::vector<std::string> errors;
  EXPECT_FALSE(
      LoadNewestValidServiceSnapshot(dir, nullptr, &errors).has_value());
  EXPECT_EQ(errors.size(), 2u);
}

TEST_F(FaultInjectionTest, PruneKeepsNewestSnapshots) {
  const std::string dir = testing::ScratchDir("snapshots");
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    ASSERT_TRUE(WriteServiceSnapshotFile(
        dir + "/" + io::SnapshotFileName(seq), service_));
  }
  EXPECT_EQ(io::PruneSnapshots(dir, 2), 4u);
  const auto left = io::FindSnapshots(dir);
  ASSERT_EQ(left.size(), 2u);
  EXPECT_EQ(left[0].first, 6u);
  EXPECT_EQ(left[1].first, 5u);
}

}  // namespace
}  // namespace kspin
