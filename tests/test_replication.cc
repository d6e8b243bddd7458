// Replication integration tests: a real primary + replica pair on
// loopback, snapshot shipping over FETCH_SNAPSHOT, NOT_PRIMARY write
// rejection, corrupt-transfer rejection (fault injection), and
// client-side failover.
#include "server/replication.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/fault_injection.h"
#include "io/snapshot.h"
#include "routing/contraction_hierarchy.h"
#include "server/client.h"
#include "server/failover.h"
#include "server/metrics.h"
#include "server/server.h"
#include "service/poi_service.h"
#include "service/synthetic_catalog.h"
#include "test_util.h"

namespace kspin::server {
namespace {

std::string ScratchDir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("kspin_repl_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Polls `predicate` until it holds or ~5 s elapse.
bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

std::vector<std::pair<ObjectId, Distance>> Ids(
    const Client::SearchReply& reply) {
  std::vector<std::pair<ObjectId, Distance>> out;
  for (const WireResult& r : reply.results) {
    out.emplace_back(r.object, r.travel_time);
  }
  return out;
}

/// A primary and a replica serving the same road network (replication
/// requires byte-identical graphs; sharing the Graph object guarantees
/// it), each with its own PoiService and snapshot directory.
class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest()
      : graph_(testing::SmallRoadNetwork()), ch_(graph_), oracle_(ch_) {}

  void StartPrimary(ServerOptions options = {}) {
    primary_service_ = MakeService();
    options.snapshot.dir = primary_dir_ = ScratchDir("primary");
    primary_ = std::make_unique<Server>(*primary_service_, options);
    primary_->Start();
  }

  /// `mutate_fetched` simulates mid-transfer corruption (see
  /// ReplicationOptions::test_mutate_fetched).
  void StartReplica(std::function<void(std::string&)> mutate_fetched = {},
                    std::uint32_t poll_interval_ms = 50,
                    const std::string& oplog_dir = {}) {
    replica_service_ = MakeService();
    ServerOptions options;
    options.snapshot.dir = replica_dir_ = ScratchDir("replica");
    options.oplog.dir = oplog_dir;
    options.replication.role = ServerRole::kReplica;
    options.replication.primary = {"127.0.0.1", primary_->Port()};
    options.replication.poll_interval_ms = poll_interval_ms;
    options.replication.test_mutate_fetched = std::move(mutate_fetched);
    replica_ = std::make_unique<Server>(*replica_service_, options);
    replica_->Start();
  }

  std::unique_ptr<PoiService> MakeService() {
    auto service = std::make_unique<PoiService>(graph_, oracle_);
    SyntheticCatalogOptions catalog;
    catalog.num_pois = 120;
    catalog.num_keywords = 16;
    PopulateSyntheticCatalog(*service, graph_, catalog);
    return service;
  }

  Client ConnectTo(const Server& server) {
    Client client;
    client.Connect("127.0.0.1", server.Port());
    return client;
  }

  Graph graph_;
  ContractionHierarchy ch_;
  ChOracle oracle_;
  std::unique_ptr<PoiService> primary_service_;
  std::unique_ptr<PoiService> replica_service_;
  std::unique_ptr<Server> primary_;
  std::unique_ptr<Server> replica_;
  std::string primary_dir_;
  std::string replica_dir_;
};

TEST_F(ReplicationTest, HealthReportsRoleSequenceAndPrimary) {
  StartPrimary();
  Client client = ConnectTo(*primary_);
  auto health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.health.role, 0u);
  EXPECT_EQ(health.health.snapshot_sequence, 0u);
  EXPECT_TRUE(health.health.primary_address.empty());

  ASSERT_TRUE(client.Snapshot().ok());
  health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.health.snapshot_sequence, 1u);

  StartReplica();
  Client rclient = ConnectTo(*replica_);
  const auto rhealth = rclient.Health();
  ASSERT_TRUE(rhealth.ok());
  EXPECT_EQ(rhealth.health.role, 1u);
  EXPECT_EQ(rhealth.health.primary_address,
            "127.0.0.1:" + std::to_string(primary_->Port()));
}

TEST_F(ReplicationTest, ReplicaRejectsWritesWithPrimaryAddress) {
  StartPrimary();
  StartReplica();
  Client client = ConnectTo(*replica_);

  const std::vector<std::string> keywords = {"kw0"};
  const auto add = client.InsertDoc(0, 1, "new poi", keywords);
  EXPECT_EQ(add.status, StatusCode::kNotPrimary);
  EXPECT_EQ(add.error, "127.0.0.1:" + std::to_string(primary_->Port()));

  // Every write opcode is redirected, keyless or keyed.
  const std::vector<std::string> kw1 = {"kw1"};
  EXPECT_EQ(client.DeleteDoc(0, 0).status, StatusCode::kNotPrimary);
  EXPECT_EQ(client.UpdateDoc(0, 0, kw1, {}).status, StatusCode::kNotPrimary);
  EXPECT_EQ(client.UpdateDoc(0, 0, {}, kw1).status, StatusCode::kNotPrimary);
  EXPECT_EQ(client.InsertDoc(1, 1, "poi", keywords).status,
            StatusCode::kNotPrimary);
  EXPECT_EQ(client.DeleteDoc(2, 0).status, StatusCode::kNotPrimary);
  EXPECT_EQ(client.UpdateDoc(3, 0, keywords, {}).status,
            StatusCode::kNotPrimary);
  // Reads still work.
  EXPECT_TRUE(client.Search("kw0", 3, 5).ok());
  EXPECT_GE(replica_->Metrics().requests_not_primary.load(), 7u);
}

TEST_F(ReplicationTest, FetchSnapshotStreamsByteIdenticalFile) {
  StartPrimary();
  Client client = ConnectTo(*primary_);
  ASSERT_TRUE(client.Snapshot().ok());

  const auto snapshots = io::FindSnapshots(primary_dir_);
  ASSERT_EQ(snapshots.size(), 1u);
  std::ifstream file(snapshots.front().second, std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(on_disk.empty());

  // Tiny chunks force many round trips.
  std::uint64_t sequence = 0;
  std::string fetched;
  std::string error;
  ASSERT_TRUE(FetchSnapshotBytes(client, 0, 512, &sequence, &fetched,
                                 &error))
      << error;
  EXPECT_EQ(sequence, 1u);
  EXPECT_EQ(fetched, on_disk);
  EXPECT_GT(primary_->Metrics().snapshot_chunks_served.load(), 1u);

  // Explicit missing sequence: clean in-band rejection.
  ASSERT_FALSE(
      FetchSnapshotBytes(client, 999, 512, &sequence, &fetched, &error));
  // Nonzero offset without a pinned sequence is rejected too.
  const auto reply = client.FetchSnapshotChunk(0, 10, 512);
  EXPECT_EQ(reply.status, StatusCode::kBadQuery);
}

TEST_F(ReplicationTest, FetchSkipsCorruptNewestSnapshot) {
  StartPrimary();
  Client client = ConnectTo(*primary_);
  ASSERT_TRUE(client.Snapshot().ok());  // sequence 1 (stays valid)
  ASSERT_TRUE(client.Snapshot().ok());  // sequence 2 (gets corrupted)

  const auto snapshots = io::FindSnapshots(primary_dir_);
  ASSERT_EQ(snapshots.size(), 2u);
  ASSERT_EQ(snapshots.front().first, 2u);
  io::FlipByteInFile(snapshots.front().second, 100);

  std::uint64_t sequence = 0;
  std::string fetched;
  std::string error;
  ASSERT_TRUE(
      FetchSnapshotBytes(client, 0, 1 << 20, &sequence, &fetched, &error))
      << error;
  EXPECT_EQ(sequence, 1u);  // Newest *valid* wins, not newest.
}

TEST_F(ReplicationTest, ReplicaCatchesUpAndServesIdenticalResults) {
  StartPrimary();
  Client pclient = ConnectTo(*primary_);

  // Diverge the primary from the replica's synthetic base state.
  const std::vector<std::string> keywords = {"kw0", "kw3"};
  const auto add = pclient.InsertDoc(0, 7, "fresh poi", keywords);
  ASSERT_TRUE(add.ok());
  ASSERT_TRUE(pclient.Snapshot().ok());

  StartReplica();
  ASSERT_TRUE(WaitFor([&] {
    return replica_->Metrics().replication_installs_ok.load() >= 1;
  }));
  EXPECT_EQ(replica_->SnapshotSequence(), 1u);

  Client rclient = ConnectTo(*replica_);
  for (const VertexId from : {VertexId{3}, VertexId{50}, VertexId{200}}) {
    for (const bool ranked : {false, true}) {
      const auto on_primary = pclient.Search("kw0", from, 8, ranked);
      const auto on_replica = rclient.Search("kw0", from, 8, ranked);
      ASSERT_TRUE(on_primary.ok());
      ASSERT_TRUE(on_replica.ok());
      EXPECT_EQ(Ids(on_primary), Ids(on_replica));
    }
  }
  // The new POI made it across.
  const auto hits = rclient.Search("kw0 and kw3", 7, 120);
  ASSERT_TRUE(hits.ok());
  bool found = false;
  for (const auto& r : hits.results) found |= r.object == add.id;
  EXPECT_TRUE(found);

  // The shipped snapshot was persisted locally (crash-safe restart path)
  // and lag metrics are exported.
  EXPECT_EQ(io::FindSnapshots(replica_dir_).size(), 1u);
  const auto metrics = rclient.Metrics();
  ASSERT_TRUE(metrics.ok());
  const ParsedMetrics scrape = ParseMetricsText(metrics.text);
  EXPECT_EQ(scrape.Value("kspin_replication_last_sequence"), 1u);
  EXPECT_EQ(scrape.Value("kspin_replication_sequence_delta"), 0u);

  // A second snapshot on the primary replicates too.
  const std::vector<std::string> kw5 = {"kw5"};
  ASSERT_TRUE(pclient.UpdateDoc(0, add.id, kw5, {}).ok());
  ASSERT_TRUE(pclient.Snapshot().ok());
  ASSERT_TRUE(WaitFor([&] { return replica_->SnapshotSequence() >= 2; }));
  const auto tagged = rclient.Search("kw5", 7, 120);
  ASSERT_TRUE(tagged.ok());
  found = false;
  for (const auto& r : tagged.results) found |= r.object == add.id;
  EXPECT_TRUE(found);
}

TEST_F(ReplicationTest, CorruptTransferRejectedThenRetriedCleanly) {
  StartPrimary();
  Client pclient = ConnectTo(*primary_);
  const std::vector<std::string> keywords = {"kw2"};
  const auto add = pclient.InsertDoc(0, 11, "poison test poi", keywords);
  ASSERT_TRUE(add.ok());
  ASSERT_TRUE(pclient.Snapshot().ok());

  // First fetched image gets one byte flipped mid-stream (the same
  // corruption FaultyOStream's flip_byte_at plan applies on write);
  // subsequent fetches arrive intact.
  auto corrupt_once = [flipped = false](std::string& bytes) mutable {
    if (flipped || bytes.size() < 200) return;
    flipped = true;
    bytes[137] = static_cast<char>(bytes[137] ^ 0x40);
  };
  StartReplica(corrupt_once);

  // The corrupt install is rejected...
  ASSERT_TRUE(WaitFor([&] {
    return replica_->Metrics().replication_installs_rejected.load() >= 1;
  }));
  // ...without interrupting replica reads of its previous state...
  Client rclient = ConnectTo(*replica_);
  EXPECT_TRUE(rclient.Search("kw0", 3, 5).ok());
  // ...and the next poll ships a clean copy.
  ASSERT_TRUE(WaitFor([&] {
    return replica_->Metrics().replication_installs_ok.load() >= 1;
  }));
  EXPECT_EQ(replica_->SnapshotSequence(), 1u);
  const auto hits = rclient.Search("kw2", 11, 120);
  ASSERT_TRUE(hits.ok());
  bool found = false;
  for (const auto& r : hits.results) found |= r.object == add.id;
  EXPECT_TRUE(found);

  // The rejected image never reached the replica's snapshot directory:
  // only the clean install is on disk, and it validates.
  const auto local = io::FindSnapshots(replica_dir_);
  ASSERT_EQ(local.size(), 1u);
  EXPECT_NO_THROW(io::ValidateSnapshotFile(local.front().second));
}

TEST_F(ReplicationTest, TruncatedTransferRejected) {
  StartPrimary();
  Client pclient = ConnectTo(*primary_);
  ASSERT_TRUE(pclient.Snapshot().ok());

  // Truncation variant of the fault plan: drop the image's tail once.
  auto truncate_once = [done = false](std::string& bytes) mutable {
    if (done) return;
    done = true;
    bytes.resize(bytes.size() / 2);
  };
  StartReplica(truncate_once);
  ASSERT_TRUE(WaitFor([&] {
    return replica_->Metrics().replication_installs_rejected.load() >= 1;
  }));
  Client rclient = ConnectTo(*replica_);
  EXPECT_TRUE(rclient.Search("kw0", 3, 5).ok());
  ASSERT_TRUE(WaitFor([&] {
    return replica_->Metrics().replication_installs_ok.load() >= 1;
  }));
}

TEST_F(ReplicationTest, FailoverClientPrefersReplicaAndFollowsRedirects) {
  StartPrimary();
  Client pclient = ConnectTo(*primary_);
  ASSERT_TRUE(pclient.Snapshot().ok());
  StartReplica();
  ASSERT_TRUE(WaitFor([&] {
    return replica_->Metrics().replication_installs_ok.load() >= 1;
  }));

  RetryPolicy policy;
  policy.max_attempts = 2;
  // Endpoint order starts at the primary; probing must still route reads
  // to the replica and writes to the primary.
  FailoverClient client({{"127.0.0.1", primary_->Port()},
                         {"127.0.0.1", replica_->Port()}},
                        policy);
  client.SetSleepFunction([](std::uint32_t) {});

  ASSERT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.LastEndpoint(), 1u);  // The replica.

  const std::vector<std::string> keywords = {"kw1"};
  const auto add = client.InsertDoc(5, "routed write", keywords);
  ASSERT_TRUE(add.ok());  // Landed on the primary, not NOT_PRIMARY.
  EXPECT_EQ(client.LastEndpoint(), 0u);
}

TEST_F(ReplicationTest, FailoverClientFollowsNotPrimaryRedirect) {
  StartPrimary();
  StartReplica();

  // Only the replica is configured; the write must chase the redirect to
  // the primary learned from the NOT_PRIMARY reply.
  FailoverClient client({{"127.0.0.1", replica_->Port()}});
  client.SetSleepFunction([](std::uint32_t) {});
  const std::vector<std::string> keywords = {"kw1"};
  const auto add = client.InsertDoc(5, "redirected write", keywords);
  ASSERT_TRUE(add.ok());
  ASSERT_EQ(client.Endpoints().size(), 2u);
  EXPECT_EQ(client.Endpoints()[1].port, primary_->Port());
}

TEST_F(ReplicationTest, FailoverClientSurvivesPrimaryStop) {
  StartPrimary();
  Client pclient = ConnectTo(*primary_);
  const std::vector<std::string> keywords = {"kw0"};
  ASSERT_TRUE(pclient.InsertDoc(0, 9, "pre-crash poi", keywords).ok());
  ASSERT_TRUE(pclient.Snapshot().ok());
  StartReplica();
  ASSERT_TRUE(WaitFor([&] {
    return replica_->Metrics().replication_installs_ok.load() >= 1;
  }));

  RetryPolicy policy;
  policy.max_attempts = 2;
  FailoverClient client({{"127.0.0.1", primary_->Port()},
                         {"127.0.0.1", replica_->Port()}},
                        policy);
  client.SetSleepFunction([](std::uint32_t) {});

  const auto before = client.Search("kw0", 9, 10);
  ASSERT_TRUE(before.ok());

  primary_->Stop();

  // Reads keep working through failover, with identical results.
  const auto after = client.Search("kw0", 9, 10);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Ids(before), Ids(after));
  EXPECT_EQ(client.LastEndpoint(), 1u);
}

TEST_F(ReplicationTest, ReplicaCatchesUpViaLogTailingWithoutSnapshotTransfer) {
  ServerOptions options;
  options.oplog.dir = ScratchDir("tail_oplog");
  StartPrimary(options);
  Client pclient = ConnectTo(*primary_);
  ASSERT_TRUE(pclient.Snapshot().ok());  // Bootstrap image for the replica.

  StartReplica();
  ASSERT_TRUE(WaitFor([&] {
    return replica_->Metrics().replication_installs_ok.load() >= 1;
  }));
  const std::uint64_t installs =
      replica_->Metrics().replication_installs_ok.load();

  // A durable write on the primary...
  const std::vector<std::string> tags = {"kw0", "kw9"};
  const auto insert = pclient.InsertDoc(41, 7, "tailed poi", tags);
  ASSERT_TRUE(insert.ok());
  ASSERT_GT(insert.sequence, 0u);

  // ...reaches the replica through FETCH_OPLOG tailing...
  ASSERT_TRUE(WaitFor([&] {
    return replica_->AppliedSequence() >= insert.sequence;
  }));
  EXPECT_EQ(replica_->Metrics().replication_source.load(), 1u);
  EXPECT_GE(replica_->Metrics().replication_oplog_records.load(), 1u);
  EXPECT_GE(replica_->Metrics().mutations_applied.load(), 1u);
  // ...and never via another snapshot install.
  EXPECT_EQ(replica_->Metrics().replication_installs_ok.load(), installs);

  Client rclient = ConnectTo(*replica_);
  auto hits = rclient.Search("kw0 and kw9", 7, 200);
  ASSERT_TRUE(hits.ok());
  bool found = false;
  for (const auto& r : hits.results) found |= r.object == insert.id;
  EXPECT_TRUE(found);

  // Updates and deletes ship through the same log stream.
  const std::vector<std::string> adds = {"kw5"};
  const std::vector<std::string> removes;
  const auto update = pclient.UpdateDoc(42, insert.id, adds, removes);
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(WaitFor([&] {
    return replica_->AppliedSequence() >= update.sequence;
  }));
  hits = rclient.Search("kw5 and kw9", 7, 200);
  ASSERT_TRUE(hits.ok());
  found = false;
  for (const auto& r : hits.results) found |= r.object == insert.id;
  EXPECT_TRUE(found);

  const auto del = pclient.DeleteDoc(43, insert.id);
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE(WaitFor([&] {
    return replica_->AppliedSequence() >= del.sequence;
  }));
  hits = rclient.Search("kw0 and kw9", 7, 200);
  ASSERT_TRUE(hits.ok());
  for (const auto& r : hits.results) EXPECT_NE(r.object, insert.id);
}

TEST_F(ReplicationTest, IdempotentRetryReturnsOriginalResult) {
  ServerOptions options;
  options.oplog.dir = ScratchDir("idem_oplog");
  StartPrimary(options);
  Client client = ConnectTo(*primary_);

  const std::vector<std::string> tags = {"kw1"};
  const auto first = client.InsertDoc(12345, 5, "once", tags);
  ASSERT_TRUE(first.ok());
  // A re-send with the same key (a client retrying a torn reply) gets the
  // original sequence and object id without applying twice.
  const auto retry = client.InsertDoc(12345, 5, "once", tags);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.sequence, first.sequence);
  EXPECT_EQ(retry.id, first.id);
  EXPECT_EQ(primary_->AppliedSequence(), first.sequence);

  // A different key is a genuinely new operation.
  const auto fresh = client.InsertDoc(12346, 5, "twice", tags);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.sequence, first.sequence + 1);
}

TEST_F(ReplicationTest, FailoverClientRoutesKeyedMutationsToPrimary) {
  ServerOptions options;
  options.oplog.dir = ScratchDir("failover_oplog");
  StartPrimary(options);
  StartReplica();

  // Only the replica is configured: every keyed mutation must chase the
  // NOT_PRIMARY redirect to the real primary.
  FailoverClient client({{"127.0.0.1", replica_->Port()}});
  client.SetSleepFunction([](std::uint32_t) {});
  const std::vector<std::string> tags = {"kw4"};
  const auto insert = client.InsertDoc(9, "redirected insert", tags);
  ASSERT_TRUE(insert.ok());
  EXPECT_GT(insert.sequence, 0u);
  ASSERT_EQ(client.Endpoints().size(), 2u);
  EXPECT_EQ(client.Endpoints()[1].port, primary_->Port());

  const std::vector<std::string> adds = {"kw6"};
  const std::vector<std::string> removes;
  const auto update = client.UpdateDoc(insert.id, adds, removes);
  ASSERT_TRUE(update.ok());
  const auto del = client.DeleteDoc(insert.id);
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(primary_->AppliedSequence(), del.sequence);
}

TEST_F(ReplicationTest, BootReplayRestoresAckedWrites) {
  const std::string oplog_dir = ScratchDir("boot_oplog");
  ServerOptions options;
  options.oplog.dir = oplog_dir;
  StartPrimary(options);
  Client client = ConnectTo(*primary_);
  const std::vector<std::string> tags = {"kw3", "kw8"};
  const auto insert = client.InsertDoc(1, 9, "durable poi", tags);
  ASSERT_TRUE(insert.ok());
  primary_->Stop();  // No snapshot was ever taken.
  primary_.reset();

  // A fresh process over the same base state replays the log tail on
  // boot and serves the acked write.
  ServerOptions reopened;
  reopened.snapshot.dir = primary_dir_;
  reopened.oplog.dir = oplog_dir;
  auto base = MakeService();
  Server second(*base, reopened);
  second.Start();
  EXPECT_EQ(second.AppliedSequence(), insert.sequence);
  EXPECT_GE(second.Metrics().oplog_replay_records.load(), 1u);

  Client c2;
  c2.Connect("127.0.0.1", second.Port());
  const auto hits = c2.Search("kw3 and kw8", 9, 200);
  ASSERT_TRUE(hits.ok());
  bool found = false;
  for (const auto& r : hits.results) found |= r.object == insert.id;
  EXPECT_TRUE(found);
  second.Stop();
}

TEST_F(ReplicationTest, PromoteFlipsReplicaToPrimaryAndBumpsEpoch) {
  StartPrimary();
  StartReplica();
  Client rclient = ConnectTo(*replica_);

  // The applied-sequence guard refuses a replica that is too far behind.
  const auto refused = rclient.Promote(1000);
  EXPECT_EQ(refused.status, StatusCode::kBadQuery);
  EXPECT_EQ(replica_->Role(), ServerRole::kReplica);

  const auto promoted = rclient.Promote();
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted.epoch, 1u);
  EXPECT_EQ(promoted.role, 0);
  EXPECT_EQ(replica_->Role(), ServerRole::kPrimary);
  EXPECT_EQ(replica_->PrimaryEpoch(), 1u);
  EXPECT_EQ(replica_->Metrics().promotions.load(), 1u);

  // Health advertises the new reign.
  const auto health = rclient.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.health.role, 0u);
  EXPECT_EQ(health.health.primary_epoch, 1u);

  // A second PROMOTE is idempotent: same epoch, no second bump.
  const auto again = rclient.Promote();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.epoch, 1u);
  EXPECT_EQ(replica_->Metrics().promotions.load(), 1u);

  // The promoted server now accepts writes it used to redirect.
  const std::vector<std::string> tags = {"kw2"};
  const auto insert = rclient.InsertDoc(77, 5, "post-promote poi", tags);
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert.primary_epoch, 1u);
}

TEST_F(ReplicationTest, FencedPrimaryRejectsAllWritesWithStaleEpoch) {
  StartPrimary();
  Client fencing = ConnectTo(*primary_);
  fencing.SetFenceEpoch(5);
  const std::vector<std::string> tags = {"kw1"};

  // The fence epoch rides the mutation; the primary (epoch 0) is stale.
  const auto rejected = fencing.InsertDoc(1, 5, "fenced write", tags);
  EXPECT_EQ(rejected.status, StatusCode::kStaleEpoch);

  // The fence latches: clients that know nothing about epochs are
  // rejected too, on every write opcode, keyed or keyless — a fenced
  // ex-primary must not accept ANY write.
  Client naive = ConnectTo(*primary_);
  EXPECT_EQ(naive.InsertDoc(2, 5, "naive write", tags).status,
            StatusCode::kStaleEpoch);
  EXPECT_EQ(naive.InsertDoc(0, 5, "keyless write", tags).status,
            StatusCode::kStaleEpoch);
  EXPECT_EQ(naive.UpdateDoc(0, 0, tags, {}).status, StatusCode::kStaleEpoch);
  EXPECT_EQ(naive.DeleteDoc(0, 0).status, StatusCode::kStaleEpoch);
  EXPECT_GE(primary_->Metrics().requests_stale_epoch.load(), 5u);

  // Reads keep flowing — fencing only guards the write path.
  EXPECT_TRUE(naive.Search("kw0", 3, 5).ok());
  const auto health = naive.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.health.primary_epoch, 0u);  // Its own epoch, unchanged.
}

TEST_F(ReplicationTest, FailoverClientReroutesWritesAfterPromotion) {
  StartPrimary();
  StartReplica();

  RetryPolicy policy;
  policy.max_attempts = 2;
  FailoverClient client({{"127.0.0.1", primary_->Port()},
                         {"127.0.0.1", replica_->Port()}},
                        policy);
  client.SetSleepFunction([](std::uint32_t) {});
  // Pin the probe so the test controls exactly when roles are re-learned:
  // the re-route below must come from the STALE_EPOCH recovery path, not
  // a lucky timer.
  client.SetProbeIntervalMs(1u << 30);

  const std::vector<std::string> tags = {"kw3"};
  const auto before = client.InsertDoc(5, "pre-failover", tags);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(client.LastEndpoint(), 0u);  // The old primary.

  // Failover: promote the replica, then fence the old primary (the first
  // epoch-aware writer to touch it does this in production).
  Client promoter = ConnectTo(*replica_);
  ASSERT_TRUE(promoter.Promote().ok());
  Client fencer = ConnectTo(*primary_);
  fencer.SetFenceEpoch(1);
  EXPECT_EQ(fencer.InsertDoc(99, 5, "fence", tags).status,
            StatusCode::kStaleEpoch);

  // The pinned client still believes the old primary; its next write is
  // rejected STALE_EPOCH, which triggers one fresh probe round — the
  // promoted replica claims the higher epoch and wins.
  const auto after = client.InsertDoc(5, "post-failover", tags);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(client.LastEndpoint(), 1u);  // The new primary.
  EXPECT_EQ(after.primary_epoch, 1u);
  EXPECT_EQ(client.ObservedEpoch(), 1u);
}

TEST_F(ReplicationTest, RejoiningExPrimaryQuarantinesDivergentTail) {
  const std::string primary_oplog = ScratchDir("rejoin_oplog_a");
  const std::string replica_oplog = ScratchDir("rejoin_oplog_b");
  ServerOptions options;
  options.oplog.dir = primary_oplog;
  StartPrimary(options);
  Client pclient = ConnectTo(*primary_);

  // Shared history: one replicated write, snapshotted for bootstrap.
  const std::vector<std::string> shared_tags = {"kw0", "kw7"};
  const auto shared = pclient.InsertDoc(1, 9, "shared poi", shared_tags);
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(pclient.Snapshot().ok());
  StartReplica({}, 50, replica_oplog);
  ASSERT_TRUE(
      WaitFor([&] { return replica_->AppliedSequence() >= shared.sequence; }));

  // Promote the replica (its replicator stops tailing), then land one
  // more write on the old primary: a divergent record the new reign
  // never saw, occupying the same sequence as the epoch record.
  Client promoter = ConnectTo(*replica_);
  const auto promoted = promoter.Promote(shared.sequence);
  ASSERT_TRUE(promoted.ok());
  const std::vector<std::string> doomed_tags = {"kw1", "kw8"};
  const auto doomed = pclient.InsertDoc(2, 9, "doomed poi", doomed_tags);
  ASSERT_TRUE(doomed.ok());
  EXPECT_EQ(doomed.sequence, promoted.applied_sequence);

  // The old primary dies and rejoins as a replica of the new one.
  primary_->Stop();
  primary_.reset();
  ServerOptions rejoin;
  rejoin.snapshot.dir = primary_dir_;
  rejoin.oplog.dir = primary_oplog;
  rejoin.replication.role = ServerRole::kReplica;
  rejoin.replication.primary = {"127.0.0.1", replica_->Port()};
  rejoin.replication.poll_interval_ms = 50;
  auto base = MakeService();
  Server rejoined(*base, rejoin);
  rejoined.Start();
  // (Boot replay brought back both writes — including the divergent one;
  // the first poll against the new primary may already be repairing that
  // by the time this line runs, so no assertion on the interim state.)

  // Tailing the new primary detects the divergence, truncates the tail
  // into quarantine, resyncs via snapshot, and adopts the new epoch.
  ASSERT_TRUE(WaitFor([&] {
    return rejoined.PrimaryEpoch() == promoted.epoch &&
           rejoined.AppliedSequence() >= promoted.applied_sequence;
  }));
  EXPECT_GE(rejoined.Metrics().oplog_quarantined_records.load(), 1u);
  EXPECT_EQ(rejoined.EpochBoundarySequence(), promoted.applied_sequence);

  // The quarantined records are preserved on disk for inspection...
  const std::filesystem::path quarantine =
      std::filesystem::path(primary_oplog) / "quarantine";
  ASSERT_TRUE(std::filesystem::exists(quarantine));
  bool found_file = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(quarantine)) {
    found_file = true;
    EXPECT_GT(std::filesystem::file_size(entry.path()), 0u);
  }
  EXPECT_TRUE(found_file);

  // ...and the serving state reflects the new reign: the shared write
  // survives, the divergent one is gone.
  Client rclient;
  rclient.Connect("127.0.0.1", rejoined.Port());
  auto hits = rclient.Search("kw0 and kw7", 9, 200);
  ASSERT_TRUE(hits.ok());
  bool found = false;
  for (const auto& r : hits.results) found |= r.object == shared.id;
  EXPECT_TRUE(found);
  hits = rclient.Search("kw1 and kw8", 9, 200);
  ASSERT_TRUE(hits.ok());
  for (const auto& r : hits.results) EXPECT_NE(r.object, doomed.id);
  rejoined.Stop();
}

TEST_F(ReplicationTest, ReplicaRefusesToTailStalePrimaryAndFencesIt) {
  // A replica that has lived through epoch 1 must never follow a primary
  // still claiming epoch 0 — and the act of asking fences that primary.
  const std::string replica_oplog = ScratchDir("stale_oplog_b");
  StartPrimary();
  // Shared baseline first: tailing (and with it the fencing FETCH_OPLOG)
  // only runs on top of an installed snapshot.
  Client seeder = ConnectTo(*primary_);
  const std::vector<std::string> seed_tags = {"kw0"};
  ASSERT_TRUE(seeder.InsertDoc(1, 5, "baseline poi", seed_tags).ok());
  ASSERT_TRUE(seeder.Snapshot().ok());
  StartReplica({}, 50, replica_oplog);
  ASSERT_TRUE(WaitFor([&] {
    return replica_->Metrics().replication_installs_ok.load() >= 1;
  }));

  // Promote the replica (epoch 1, persisted to its epoch sidecar)...
  Client promoter = ConnectTo(*replica_);
  const auto promoted = promoter.Promote();
  ASSERT_TRUE(promoted.ok());
  const std::uint64_t applied = replica_->AppliedSequence();
  // ...then restart it as a replica of the never-promoted old primary —
  // the "operator pointed the replica at a stale primary" misconfig.
  replica_->Stop();
  replica_.reset();
  ServerOptions options;
  options.snapshot.dir = replica_dir_;
  options.oplog.dir = replica_oplog;
  options.replication.role = ServerRole::kReplica;
  options.replication.primary = {"127.0.0.1", primary_->Port()};
  options.replication.poll_interval_ms = 50;
  auto base = MakeService();
  Server restarted(*base, options);
  restarted.Start();
  EXPECT_EQ(restarted.PrimaryEpoch(), 1u);  // Epoch survived the restart.

  // Polls run and are refused — no snapshot install ever pulls the stale
  // reign's state over the newer one, and nothing regresses.
  ASSERT_TRUE(WaitFor([&] {
    return restarted.Metrics().replication_poll_errors.load() >= 2;
  }));
  EXPECT_EQ(restarted.Metrics().replication_installs_ok.load(), 0u);
  EXPECT_EQ(restarted.PrimaryEpoch(), 1u);
  EXPECT_GE(restarted.AppliedSequence(), applied);

  // The refused FETCH_OPLOG carried epoch 1, which fenced the stale
  // primary: it now rejects writes until it rejoins properly.
  Client pclient = ConnectTo(*primary_);
  const std::vector<std::string> tags = {"kw1"};
  EXPECT_EQ(pclient.InsertDoc(9, 5, "fenced by tail", tags).status,
            StatusCode::kStaleEpoch);
  restarted.Stop();
}

TEST(ParseEndpointTest, AcceptsValidRejectsInvalid) {
  const auto ep = ParseEndpoint("10.1.2.3:8080");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->host, "10.1.2.3");
  EXPECT_EQ(ep->port, 8080);
  EXPECT_EQ(ep->ToString(), "10.1.2.3:8080");

  EXPECT_FALSE(ParseEndpoint("").has_value());
  EXPECT_FALSE(ParseEndpoint("host").has_value());
  EXPECT_FALSE(ParseEndpoint("host:").has_value());
  EXPECT_FALSE(ParseEndpoint(":123").has_value());
  EXPECT_FALSE(ParseEndpoint("host:0").has_value());
  EXPECT_FALSE(ParseEndpoint("host:65536").has_value());
  EXPECT_FALSE(ParseEndpoint("host:12x").has_value());
}

}  // namespace
}  // namespace kspin::server
