// Integration tests for the kspin serving subsystem: a real Server bound
// to a loopback ephemeral port, exercised through the blocking Client
// (and a raw socket for protocol-violation cases). Concurrent results are
// checked for exact equality against serial PoiService execution.
#include "server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>

#include "routing/contraction_hierarchy.h"
#include "server/client.h"
#include "server/failover.h"
#include "server/metrics.h"
#include "server/retry.h"
#include "service/poi_service.h"
#include "service/synthetic_catalog.h"
#include "test_util.h"

namespace kspin::server {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  ServerTest()
      : graph_(testing::SmallRoadNetwork()), ch_(graph_), oracle_(ch_) {}

  /// Builds the service + catalogue and starts a server with `options`.
  void StartServer(ServerOptions options = {}) {
    service_ = std::make_unique<PoiService>(graph_, oracle_);
    SyntheticCatalogOptions catalog;
    catalog.num_pois = 150;
    catalog.num_keywords = 20;
    PopulateSyntheticCatalog(*service_, graph_, catalog);
    server_ = std::make_unique<Server>(*service_, options);
    server_->Start();
  }

  Client Connect() {
    Client client;
    client.Connect("127.0.0.1", server_->Port());
    return client;
  }

  /// One METRICS scrape over `client`, parsed.
  static ParsedMetrics Scrape(Client& client) {
    const auto reply = client.Metrics();
    EXPECT_TRUE(reply.ok()) << reply.error;
    return ParseMetricsText(reply.text);
  }

  Graph graph_;
  ContractionHierarchy ch_;
  ChOracle oracle_;
  std::unique_ptr<PoiService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingAndMetrics) {
  StartServer();
  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());

  const auto scrape = Scrape(client);
  EXPECT_GE(scrape.Value("kspin_connections_opened"), 1u);
  EXPECT_GE(scrape.Value("kspin_opcode_ping"), 1u);
  EXPECT_EQ(scrape.Value("kspin_requests_overloaded"), 0u);
}

TEST_F(ServerTest, LoopbackMatchesSerialExecution) {
  StartServer();

  struct Case {
    std::string query;
    VertexId from;
    std::uint32_t k;
  };
  const std::vector<Case> cases = {
      {"kw0", 3, 5},
      {"kw1 or kw2", 50, 8},
      {"kw0 and kw3", 120, 5},
      {"(kw1 and kw2) or kw4", 200, 10},
      {"kw5 and (kw0 or kw1)", 310, 6},
      {"nosuchkeyword", 10, 5},  // Unknown keyword: empty result, kOk.
  };

  // Serial ground truth, computed while the server is idle.
  std::vector<std::vector<PoiResult>> expected_bool;
  std::vector<std::vector<PoiResult>> expected_ranked;
  for (const Case& c : cases) {
    expected_bool.push_back(service_->Search(c.query, c.from, c.k));
    expected_ranked.push_back(service_->SearchRanked(c.query, c.from, c.k));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Client client = Connect();
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
          const Case& c = cases[i];
          for (const bool ranked : {false, true}) {
            const auto reply =
                client.Search(c.query, c.from, c.k, ranked);
            const auto& expected =
                ranked ? expected_ranked[i] : expected_bool[i];
            if (!reply.ok() || reply.results.size() != expected.size()) {
              ++mismatches;
              continue;
            }
            for (std::size_t j = 0; j < expected.size(); ++j) {
              if (reply.results[j].object != expected[j].id ||
                  reply.results[j].travel_time !=
                      expected[j].travel_time ||
                  reply.results[j].score != expected[j].score ||
                  reply.results[j].name != expected[j].name) {
                ++mismatches;
              }
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  Client client = Connect();
  const auto scrape = Scrape(client);
  const std::uint64_t per_mode = kThreads * kRounds * cases.size();
  EXPECT_EQ(scrape.Value("kspin_opcode_search_boolean"), per_mode);
  EXPECT_EQ(scrape.Value("kspin_opcode_search_ranked"), per_mode);
  EXPECT_EQ(scrape.Value("kspin_requests_ok"), 2 * per_mode);
  EXPECT_EQ(scrape.Value("kspin_query_latency_us_count"), 2 * per_mode);
}

TEST_F(ServerTest, BadQuerySyntaxKeepsConnectionUsable) {
  StartServer();
  Client client = Connect();

  const auto bad = client.Search("((kw1", 3, 5);
  EXPECT_EQ(bad.status, StatusCode::kBadQuery);
  EXPECT_FALSE(bad.error.empty());

  // Application-level rejection, not a protocol error: the connection
  // must survive and serve the next request.
  const auto good = client.Search("kw0", 3, 5);
  EXPECT_TRUE(good.ok());
}

TEST_F(ServerTest, OutOfRangeVertexAndOversizedKRejected) {
  StartServer();
  Client client = Connect();

  const auto bad_vertex = client.Search(
      "kw0", static_cast<VertexId>(graph_.NumVertices()) + 10, 5);
  EXPECT_EQ(bad_vertex.status, StatusCode::kBadQuery);

  const auto bad_k = client.Search("kw0", 3, kMaxSearchK + 1);
  EXPECT_EQ(bad_k.status, StatusCode::kBadQuery);
}

TEST_F(ServerTest, ZeroCapacityQueueShedsQueriesButAnswersPing) {
  ServerOptions options;
  options.queue_capacity = 0;  // Admit nothing.
  StartServer(options);
  Client client = Connect();

  const auto reply = client.Search("kw0", 3, 5);
  EXPECT_EQ(reply.status, StatusCode::kOverloaded);

  // PING and METRICS are answered on the I/O thread, bypassing admission:
  // the liveness probe must work precisely when the server is drowning.
  EXPECT_TRUE(client.Ping().ok());
  const auto scrape = Scrape(client);
  EXPECT_GE(scrape.Value("kspin_requests_overloaded"), 1u);
}

TEST_F(ServerTest, ExpiredDeadlineDroppedAtDequeue) {
  ServerOptions options;
  options.test_dequeue_delay_ms = 30;  // Everything expires in the queue.
  StartServer(options);
  Client client = Connect();

  const auto reply = client.Search("kw0", 3, 5, false, /*deadline_ms=*/1);
  EXPECT_EQ(reply.status, StatusCode::kDeadlineExceeded);

  const auto scrape = Scrape(client);
  EXPECT_GE(scrape.Value("kspin_requests_deadline_dropped"), 1u);
  EXPECT_EQ(scrape.Value("kspin_requests_deadline_cancelled"), 0u);
}

TEST_F(ServerTest, ExpiredDeadlineCancelledCooperatively) {
  ServerOptions options;
  options.test_dequeue_delay_ms = 30;
  options.enforce_deadline_at_dequeue = false;  // Force the in-query path.
  StartServer(options);
  Client client = Connect();

  const auto reply = client.Search("kw0", 3, 5, false, /*deadline_ms=*/1);
  EXPECT_EQ(reply.status, StatusCode::kDeadlineExceeded);

  const auto scrape = Scrape(client);
  EXPECT_EQ(scrape.Value("kspin_requests_deadline_dropped"), 0u);
  EXPECT_GE(scrape.Value("kspin_requests_deadline_cancelled"), 1u);
}

TEST_F(ServerTest, NoDeadlineMeansNoExpiry) {
  ServerOptions options;
  options.test_dequeue_delay_ms = 10;
  StartServer(options);
  Client client = Connect();
  const auto reply = client.Search("kw0", 3, 5);  // deadline_ms = 0.
  EXPECT_TRUE(reply.ok());
}

TEST_F(ServerTest, UpdatesThroughServerVisibleToSearches) {
  StartServer();
  Client client = Connect();

  // A keyword no synthetic POI carries.
  const std::vector<std::string> keywords = {"uniquekw"};
  const std::vector<std::string> another = {"anotherkw"};
  const auto added = client.InsertDoc(0, 7, "newplace", keywords);
  ASSERT_TRUE(added.ok());

  auto found = client.Search("uniquekw", 7, 3);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found.results.size(), 1u);
  EXPECT_EQ(found.results[0].object, added.id);
  EXPECT_EQ(found.results[0].name, "newplace");
  EXPECT_EQ(found.results[0].travel_time, 0u);  // Same vertex.

  // Tag with another fresh keyword; searchable immediately.
  ASSERT_TRUE(client.UpdateDoc(0, added.id, another, {}).ok());
  found = client.Search("uniquekw and anotherkw", 7, 3);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found.results.size(), 1u);

  ASSERT_TRUE(client.UpdateDoc(0, added.id, {}, another).ok());
  found = client.Search("uniquekw and anotherkw", 7, 3);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found.results.empty());

  ASSERT_TRUE(client.DeleteDoc(0, added.id).ok());
  found = client.Search("uniquekw", 7, 3);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found.results.empty());

  // Operating on a deleted POI is a BAD_QUERY, not a crash.
  EXPECT_EQ(client.DeleteDoc(0, added.id).status, StatusCode::kBadQuery);
  EXPECT_EQ(client.UpdateDoc(0, added.id, another, {}).status,
            StatusCode::kBadQuery);
}

TEST_F(ServerTest, IdempotencyCacheSizeOptionAndCountersWork) {
  // A deliberately tiny cache so eviction is observable through METRICS.
  ServerOptions options;
  options.idempotency_cache_size = 2;
  StartServer(options);
  Client client = Connect();
  const std::vector<std::string> tags = {"idemkw"};

  // First keyed write misses; its retry hits and replays the original
  // result without applying twice.
  const auto first = client.InsertDoc(101, 3, "poi a", tags);
  ASSERT_TRUE(first.ok());
  const auto retry = client.InsertDoc(101, 3, "poi a", tags);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.sequence, first.sequence);
  EXPECT_EQ(retry.id, first.id);

  auto scrape = Scrape(client);
  EXPECT_EQ(scrape.Value("kspin_idempotency_cache_hits"), 1u);
  EXPECT_EQ(scrape.Value("kspin_idempotency_cache_misses"), 1u);

  // Two more keys push 101 out of the size-2 cache: the next retry of it
  // re-applies as a fresh operation (a miss, a new object).
  ASSERT_TRUE(client.InsertDoc(102, 4, "poi b", tags).ok());
  ASSERT_TRUE(client.InsertDoc(103, 5, "poi c", tags).ok());
  const auto evicted = client.InsertDoc(101, 3, "poi a", tags);
  ASSERT_TRUE(evicted.ok());
  EXPECT_NE(evicted.id, first.id);

  scrape = Scrape(client);
  EXPECT_EQ(scrape.Value("kspin_idempotency_cache_hits"), 1u);
  EXPECT_EQ(scrape.Value("kspin_idempotency_cache_misses"), 4u);

  // Key 0 means "no token": it never touches the cache or its counters.
  ASSERT_TRUE(client.InsertDoc(0, 6, "poi d", tags).ok());
  scrape = Scrape(client);
  EXPECT_EQ(scrape.Value("kspin_idempotency_cache_hits"), 1u);
  EXPECT_EQ(scrape.Value("kspin_idempotency_cache_misses"), 4u);
}

TEST_F(ServerTest, ConcurrentSearchesDuringUpdatesStayConsistent) {
  StartServer();

  // Readers hammer a stable keyword while a writer inserts/deletes POIs
  // carrying a different one. Every reply must be kOk and every result
  // list internally consistent (sorted by travel time).
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      Client client = Connect();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto reply = client.Search("kw0 or kw1", 40, 6);
        if (!reply.ok()) {
          ++failures;
          break;
        }
        for (std::size_t i = 1; i < reply.results.size(); ++i) {
          if (reply.results[i - 1].travel_time >
              reply.results[i].travel_time) {
            ++failures;
          }
        }
      }
    });
  }

  Client writer = Connect();
  const std::vector<std::string> churn_kw = {"churnkw"};
  for (int round = 0; round < 20; ++round) {
    const auto added = writer.InsertDoc(0, 11, "churn", churn_kw);
    if (!added.ok() || !writer.DeleteDoc(0, added.id).ok()) {
      ++failures;
      break;
    }
  }
  stop = true;
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

/// Raw loopback connection to the test server (protocol-violation cases).
int RawConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fd;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads everything `fd` sends until the peer closes.
std::vector<std::uint8_t> ReadUntilClose(int fd) {
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[256];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof chunk)) > 0;) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  return bytes;
}

/// Reads one whole frame off `fd` into `*bytes`; false on EOF first.
bool ReadFrame(int fd, std::vector<std::uint8_t>* bytes, FrameHeader* header) {
  bytes->clear();
  std::uint8_t chunk[256];
  std::size_t frame_size = 0;
  while (TryDecodeFrame(*bytes, header, &frame_size) ==
         DecodeResult::kNeedMore) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) return false;
    bytes->insert(bytes->end(), chunk, chunk + n);
  }
  return TryDecodeFrame(*bytes, header, &frame_size) == DecodeResult::kFrame;
}

TEST_F(ServerTest, GarbageStreamGetsErrorFrameThenClose) {
  StartServer();
  const int fd = RawConnect(server_->Port());
  ASSERT_GE(fd, 0);

  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::write(fd, garbage, sizeof garbage - 1), 0);

  // The server must answer with one kError frame, then close.
  const std::vector<std::uint8_t> bytes = ReadUntilClose(fd);
  ::close(fd);

  FrameHeader header;
  std::size_t frame_size = 0;
  ASSERT_EQ(TryDecodeFrame(bytes, &header, &frame_size),
            DecodeResult::kFrame);
  EXPECT_EQ(header.opcode, Opcode::kError);
  EXPECT_EQ(frame_size, bytes.size());  // Nothing after the error frame.

  PayloadReader reader(std::span<const std::uint8_t>(
      bytes.data() + kHeaderSize, header.payload_size));
  EXPECT_EQ(static_cast<StatusCode>(reader.U8()),
            StatusCode::kMalformedPayload);
}

TEST_F(ServerTest, WrongVersionGetsUnsupportedErrorWithRequestId) {
  StartServer();

  // The server speaks exactly one version: an older frame is refused
  // like a newer one.
  for (const int version : {kProtocolVersion - 1, kProtocolVersion + 1}) {
    const int fd = RawConnect(server_->Port());
    ASSERT_GE(fd, 0);
    FrameHeader ping;
    ping.opcode = Opcode::kPing;
    ping.request_id = 424242;
    auto frame = EncodeFrame(ping, {});
    frame[4] = static_cast<std::uint8_t>(version);
    ASSERT_EQ(::write(fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    const std::vector<std::uint8_t> bytes = ReadUntilClose(fd);
    ::close(fd);

    FrameHeader header;
    std::size_t frame_size = 0;
    ASSERT_EQ(TryDecodeFrame(bytes, &header, &frame_size),
              DecodeResult::kFrame)
        << "version " << version;
    EXPECT_EQ(header.opcode, Opcode::kError);
    EXPECT_EQ(header.request_id, 424242u);  // Echoed despite the version.
    EXPECT_EQ(frame_size, bytes.size());    // Then the server closed.

    PayloadReader reader(std::span<const std::uint8_t>(
        bytes.data() + kHeaderSize, header.payload_size));
    EXPECT_EQ(static_cast<StatusCode>(reader.U8()),
              StatusCode::kUnsupported);
  }
}

TEST_F(ServerTest, RetiredOpcodesGetUnsupportedAndConnectionStaysOpen) {
  StartServer();
  const int fd = RawConnect(server_->Port());
  ASSERT_GE(fd, 0);

  // 0x02 (the old STATS) and 0x20-0x23 (the old write opcodes) are
  // retired. Each frame is well-formed, so it gets an UNSUPPORTED reply,
  // applies nothing, and the stream stays usable.
  for (const std::uint8_t retired : {0x02, 0x20, 0x21, 0x22, 0x23}) {
    FrameHeader request;
    request.opcode = static_cast<Opcode>(retired);
    request.request_id = 1000 + retired;
    const std::vector<std::uint8_t> body = {7, 0, 0, 0};
    const auto frame = EncodeFrame(request, body);
    ASSERT_EQ(::write(fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    std::vector<std::uint8_t> bytes;
    FrameHeader header;
    ASSERT_TRUE(ReadFrame(fd, &bytes, &header)) << int(retired);
    EXPECT_EQ(header.opcode, request.opcode);
    EXPECT_EQ(header.request_id, request.request_id);
    PayloadReader reader(std::span<const std::uint8_t>(
        bytes.data() + kHeaderSize, header.payload_size));
    EXPECT_EQ(static_cast<StatusCode>(reader.U8()),
              StatusCode::kUnsupported);
  }

  FrameHeader ping;
  ping.opcode = Opcode::kPing;
  ping.request_id = 7;
  const auto frame = EncodeFrame(ping, {});
  ASSERT_EQ(::write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  std::vector<std::uint8_t> bytes;
  FrameHeader header;
  ASSERT_TRUE(ReadFrame(fd, &bytes, &header));
  EXPECT_EQ(header.opcode, Opcode::kPing);
  EXPECT_EQ(bytes[kHeaderSize], static_cast<std::uint8_t>(StatusCode::kOk));
  ::close(fd);

  Client client = Connect();
  const auto scrape = Scrape(client);
  EXPECT_EQ(scrape.Value("kspin_requests_unsupported"), 5u);
  EXPECT_EQ(scrape.Value("kspin_mutations_applied"), 0u);
}

TEST_F(ServerTest, StopDrainsAdmittedRequests) {
  ServerOptions options;
  options.num_workers = 2;
  StartServer(options);

  // Queue a burst, then stop the server while replies are in flight.
  // Graceful shutdown promises every admitted request still gets its
  // response before the connection closes.
  Client client = Connect();
  std::atomic<int> answered{0};
  std::thread burst([&] {
    for (int i = 0; i < 30; ++i) {
      const auto reply = client.Search("kw0 or kw2", 40, 5);
      if (reply.ok()) ++answered;
    }
  });
  burst.join();
  server_->Stop();
  EXPECT_EQ(answered.load(), 30);
}

TEST_F(ServerTest, StopIsIdempotent) {
  StartServer();
  server_->Stop();
  server_->Stop();
}

// ---------------------------------------------------------------------
// Persistence over the wire (SNAPSHOT / RELOAD) and connection hardening.

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

TEST_F(ServerTest, SnapshotAndReloadRestoreStateOverWire) {
  ServerOptions options;
  options.snapshot.dir = testing::ScratchDir("wire_reload");
  StartServer(options);
  Client client = Connect();

  const auto before = client.Search("kw3 or kw5", 40, 6);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before.results.empty());

  const auto snap = client.Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.error;
  EXPECT_EQ(snap.sequence, 1u);
  EXPECT_TRUE(std::filesystem::exists(snap.path)) << snap.path;

  // Mutate the serving state past recognition: delete every result.
  for (const WireResult& r : before.results) {
    ASSERT_TRUE(client.DeleteDoc(0, r.object).ok());
  }
  const auto mutated = client.Search("kw3 or kw5", 40, 6);
  ASSERT_TRUE(mutated.ok());
  EXPECT_NE(Ids(mutated), Ids(before));

  // RELOAD must serve the snapshot's answers again, byte for byte.
  const auto reload = client.Reload();
  ASSERT_TRUE(reload.ok()) << reload.error;
  EXPECT_EQ(reload.sequence, 1u);
  const auto after = client.Search("kw3 or kw5", 40, 6);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Ids(after), Ids(before));

  EXPECT_GE(Scrape(client).Value("kspin_snapshots_written"), 1u);
  EXPECT_GE(Scrape(client).Value("kspin_reloads_ok"), 1u);
}

TEST_F(ServerTest, SnapshotAndReloadRejectedWithoutSnapshotDir) {
  StartServer();  // No snapshot.dir configured.
  Client client = Connect();

  const auto snap = client.Snapshot();
  EXPECT_EQ(snap.status, StatusCode::kBadQuery);
  const auto reload = client.Reload();
  EXPECT_EQ(reload.status, StatusCode::kBadQuery);

  // The connection stays usable after both rejections.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, PeriodicSnapshotsWrittenAndPruned) {
  ServerOptions options;
  options.snapshot.dir = testing::ScratchDir("periodic");
  options.snapshot.period_ms = 25;
  options.snapshot.keep = 2;
  StartServer(options);

  ASSERT_TRUE(WaitFor([&] {
    return server_->Metrics().snapshots_written.load() >= 3;
  }));
  server_->Stop();  // Quiesce the snapshot thread before counting files.

  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.snapshot.dir)) {
    if (entry.path().extension() == ".snap") ++files;
  }
  EXPECT_GE(files, 1u);
  EXPECT_LE(files, options.snapshot.keep);
}

TEST_F(ServerTest, IdleConnectionsReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);

  Client client = Connect();
  ASSERT_TRUE(client.Ping().ok());
  // Go silent; the I/O thread must reap us within a few poll ticks.
  ASSERT_TRUE(WaitFor([&] {
    return server_->Metrics().connections_reaped_idle.load() >= 1;
  }));
  EXPECT_THROW(
      {
        client.Ping();
        client.Ping();  // First call may succeed on buffered bytes.
      },
      ClientError);
}

TEST_F(ServerTest, SlowLorisPartialFrameReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 0;  // Isolate the read-deadline path.
  options.read_deadline_ms = 100;
  StartServer(options);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->Port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  // Dribble 4 bytes of a valid frame header, then stall forever.
  FrameHeader ping;
  ping.opcode = Opcode::kPing;
  const auto frame = EncodeFrame(ping, {});
  ASSERT_EQ(::write(fd, frame.data(), 4), 4);

  ASSERT_TRUE(WaitFor([&] {
    return server_->Metrics().connections_reaped_slow.load() >= 1;
  }));
  std::uint8_t byte = 0;
  EXPECT_EQ(::read(fd, &byte, 1), 0);  // Server closed on us.
  ::close(fd);
}

TEST_F(ServerTest, BackpressureOverflowClosesConnection) {
  ServerOptions options;
  options.idle_timeout_ms = 0;
  options.max_write_queue_bytes = 1;  // Any queued response overflows.
  StartServer(options);

  Client client = Connect();
  try {
    client.Ping();  // The reply may or may not flush before the reap.
  } catch (const ClientError&) {
  }
  ASSERT_TRUE(WaitFor([&] {
    return server_->Metrics().connections_reaped_backpressure.load() >= 1;
  }));
}

// ---------------------------------------------------------------------
// RetryingClient: reconnects, backoff, idempotency.

TEST_F(ServerTest, RetryingClientRetriesOverloadedSearches) {
  ServerOptions options;
  options.queue_capacity = 0;  // Every search is shed at admission.
  StartServer(options);

  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryingClient client("127.0.0.1", server_->Port(), policy);
  std::vector<std::uint32_t> sleeps;
  client.SetSleepFunction([&](std::uint32_t ms) { sleeps.push_back(ms); });

  const auto reply = client.Search("kw0", 40, 5);
  EXPECT_EQ(reply.status, StatusCode::kOverloaded);
  EXPECT_EQ(client.LastAttempts(), 3u);
  // Jittered exponential backoff: sleep i is uniform in [base/2, base]
  // with base = initial * multiplier^i.
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_GE(sleeps[0], 25u);
  EXPECT_LE(sleeps[0], 50u);
  EXPECT_GE(sleeps[1], 50u);
  EXPECT_LE(sleeps[1], 100u);

  // PING bypasses the admission queue, so it succeeds first try.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.LastAttempts(), 1u);
}

TEST_F(ServerTest, RetryingClientReconnectsAfterServerRestart) {
  StartServer();
  const std::uint16_t port = server_->Port();

  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryingClient client("127.0.0.1", port, policy);
  client.SetSleepFunction([](std::uint32_t) {});
  ASSERT_TRUE(client.Ping().ok());

  server_->Stop();
  ServerOptions options;
  options.port = port;
  Server second(*service_, options);
  second.Start();

  // The stale connection fails mid-request; an idempotent search must
  // transparently reconnect and succeed.
  const auto reply = client.Search("kw0 or kw1", 40, 5);
  EXPECT_TRUE(reply.ok()) << reply.error;
  EXPECT_GE(client.LastAttempts(), 2u);
  second.Stop();
}

TEST_F(ServerTest, NonIdempotentUpdateNotRetriedAfterDisconnect) {
  StartServer();
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryingClient client("127.0.0.1", server_->Port(), policy);
  client.SetSleepFunction([](std::uint32_t) {});
  ASSERT_TRUE(client.Ping().ok());

  server_->Stop();  // Connection is now dead; no replacement server.

  // A torn keyless insert may already be applied server-side, so the
  // wrapper must surface the transport error on the FIRST attempt, not
  // re-send.
  const std::vector<std::string> keywords = {"kw0"};
  EXPECT_THROW(client.InsertDoc(0, 7, "new poi", keywords), ClientError);
  EXPECT_EQ(client.LastAttempts(), 1u);
}

TEST_F(ServerTest, RetryBudgetBoundsTotalBackoff) {
  ServerOptions options;
  options.queue_capacity = 0;  // Every search is shed -> retried.
  StartServer(options);

  RetryPolicy policy;
  policy.max_attempts = 50;  // Far more than the budget can fund.
  policy.initial_backoff_ms = 40;
  policy.multiplier = 1.0;  // Every backoff in [20, 40] ms.
  policy.max_total_ms = 100;
  RetryingClient client("127.0.0.1", server_->Port(), policy);
  std::uint64_t total_slept = 0;
  client.SetSleepFunction([&](std::uint32_t ms) { total_slept += ms; });

  const auto reply = client.Search("kw0", 40, 5);
  EXPECT_EQ(reply.status, StatusCode::kOverloaded);
  // The budget stops retrying long before max_attempts: with >= 20 ms per
  // backoff and a 100 ms budget, at most 5 sleeps fit.
  EXPECT_LT(client.LastAttempts(), 10u);
  EXPECT_GE(client.LastAttempts(), 2u);
  EXPECT_LE(total_slept, policy.max_total_ms);
}

TEST_F(ServerTest, RetryBudgetClampsRequestDeadline) {
  ServerOptions options;
  options.test_dequeue_delay_ms = 30;  // Every request waits 30 ms queued.
  StartServer(options);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.max_total_ms = 5;  // Budget far below the queue delay.
  RetryingClient client("127.0.0.1", server_->Port(), policy);
  client.SetSleepFunction([](std::uint32_t) {});

  // deadline_ms 0 normally means "no deadline", but under a budget the
  // sent deadline is the remaining budget — so the server expires the
  // request at dequeue instead of running it past the caller's patience.
  const auto reply = client.Search("kw0", 40, 5, false, 0);
  EXPECT_EQ(reply.status, StatusCode::kDeadlineExceeded);
}

TEST_F(ServerTest, RetryBudgetZeroKeepsUnlimitedDeadline) {
  ServerOptions options;
  options.test_dequeue_delay_ms = 30;
  StartServer(options);

  RetryPolicy policy;  // max_total_ms = 0: no budget.
  RetryingClient client("127.0.0.1", server_->Port(), policy);
  client.SetSleepFunction([](std::uint32_t) {});
  const auto reply = client.Search("kw0", 40, 5, false, 0);
  EXPECT_TRUE(reply.ok()) << reply.error;
}

TEST_F(ServerTest, AcceptErrorMetricStartsAtZero) {
  StartServer();
  Client client = Connect();
  const auto scrape = Scrape(client);
  EXPECT_EQ(scrape.Value("kspin_accept_errors"), 0u);
}

// ---------------------------------------------------------------------
// Observability: engine counters, METRICS histograms and text, and
// tracing (docs/observability.md).

TEST_F(ServerTest, MetricsCarryEngineCountersAndHistograms) {
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.Search("kw0 or kw1", 10, 5).ok());
  ASSERT_TRUE(client.Search("kw2", 20, 3, /*ranked=*/true).ok());

  const auto scrape = Scrape(client);
  // Engine counters moved: the searches above popped candidates and paid
  // exact distances.
  EXPECT_GT(scrape.Value("kspin_engine_heap_pops"), 0u);
  EXPECT_GT(scrape.Value("kspin_engine_distance_computations"), 0u);
  EXPECT_GT(scrape.Value("kspin_engine_results_returned"), 0u);
  // fp = distance computations minus results, so ndc >= both.
  EXPECT_GE(scrape.Value("kspin_engine_distance_computations"),
            scrape.Value("kspin_engine_false_positive_distances"));
  EXPECT_GE(scrape.Value("kspin_engine_distance_computations"),
            scrape.Value("kspin_engine_results_returned"));

  // Three histograms; the last rendered bucket holds every sample.
  ASSERT_EQ(scrape.histograms.size(), 3u);
  const ParsedHistogram& query =
      scrape.histograms.at("kspin_query_latency_us");
  EXPECT_EQ(query.count, 2u);
  ASSERT_FALSE(query.buckets.empty());
  EXPECT_EQ(query.buckets.back().second, query.count);
  EXPECT_EQ(scrape.histograms.at("kspin_update_latency_us").count, 0u);
  // Queue sojourn histogram: one entry per admitted request.
  EXPECT_EQ(scrape.histograms.at("kspin_admission_queue_sojourn_us").count,
            2u);
}

TEST_F(ServerTest, MetricsReturnsPrometheusTextThatMovesWithTraffic) {
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.Search("kw0 or kw1", 10, 5).ok());

  const auto first = client.Metrics();
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_NE(first.text.find("# TYPE kspin_requests_ok counter\n"),
            std::string::npos);
  EXPECT_NE(first.text.find("kspin_engine_distance_computations "),
            std::string::npos);
  EXPECT_NE(first.text.find("# TYPE kspin_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(first.text.find("# TYPE kspin_replication_lag_ms gauge\n"),
            std::string::npos);
  EXPECT_NE(first.text.find("# TYPE kspin_query_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(first.text.find("kspin_query_latency_us_bucket{le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_NE(first.text.find("kspin_query_latency_us_count 1\n"),
            std::string::npos);

  // A counter parsed out of one scrape must be monotone across scrapes.
  const std::uint64_t before = ParseMetricsText(first.text)
                                   .Value("kspin_engine_distance_computations");
  EXPECT_GT(before, 0u);
  ASSERT_TRUE(client.Search("kw0 or kw1", 10, 5).ok());
  EXPECT_GT(Scrape(client).Value("kspin_engine_distance_computations"),
            before);
}

TEST_F(ServerTest, TraceFileRecordsExecutedSearches) {
  ServerOptions options;
  options.trace_path = testing::ScratchDir("trace") + "/trace.jsonl";
  StartServer(options);
  Client client = Connect();
  ASSERT_TRUE(client.Search("kw0 or kw1", 10, 5).ok());
  ASSERT_TRUE(client.Search("kw2", 20, 3, /*ranked=*/true).ok());
  ASSERT_TRUE(client.Ping().ok());  // Non-queries must not be traced.

  EXPECT_TRUE(WaitFor([&] {
    return server_->Metrics().traces_emitted.load() >= 2;
  }));
  EXPECT_EQ(server_->Metrics().traces_emitted.load(), 2u);

  std::ifstream in(options.trace_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"opcode\":\"search_boolean\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"query\":\"kw0 or kw1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"OK\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"distance_computations\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"opcode\":\"search_ranked\""),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Overload control and graceful degradation (docs/protocol.md "Overload
// control & degradation"): admission-time expiry, per-client rate limits,
// the RETRY_AFTER hint, brownout, and failover around shedding nodes.

TEST_F(ServerTest, ExpiredDeadlineRejectedAtAdmission) {
  ServerOptions options;
  options.test_admission_delay_ms = 30;  // Deadline passes pre-admission.
  StartServer(options);
  Client client = Connect();

  const auto reply = client.Search("kw0", 3, 5, false, /*deadline_ms=*/1);
  EXPECT_EQ(reply.status, StatusCode::kDeadlineExceeded);

  // Refused at the door: counted as a deadline rejection, not an
  // overload shed, and never as a dequeue-time drop.
  const auto scrape = Scrape(client);
  EXPECT_GE(scrape.Value("kspin_requests_deadline_rejected"), 1u);
  EXPECT_EQ(scrape.Value("kspin_requests_deadline_dropped"), 0u);
  EXPECT_EQ(scrape.Value("kspin_requests_overloaded"), 0u);
}

TEST_F(ServerTest, PerClientRateLimitShedsOnlyTheNoisyConnection) {
  ServerOptions options;
  options.overload.per_client_qps = 1.0;
  options.overload.per_client_burst = 2.0;
  options.overload.retry_after_ms = 321;
  StartServer(options);
  Client noisy = Connect();

  // The bucket starts with `burst` tokens; the burst beyond that is
  // shed inline with the configured RETRY_AFTER hint.
  int ok = 0, limited = 0;
  for (int i = 0; i < 8; ++i) {
    const auto reply = noisy.Search("kw0", 3, 5);
    if (reply.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(reply.status, StatusCode::kOverloaded);
      EXPECT_EQ(reply.error, "rate limited");
      EXPECT_EQ(reply.retry_after_ms, 321u);
      ++limited;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(limited, 6);

  // The limit is per connection: a fresh client has its own bucket.
  Client quiet = Connect();
  EXPECT_TRUE(quiet.Search("kw0", 3, 5).ok());

  const auto scrape = Scrape(quiet);
  EXPECT_EQ(scrape.Value("kspin_requests_rate_limited"), 6u);
  EXPECT_EQ(scrape.Value("kspin_requests_overloaded"), 0u);
}

TEST_F(ServerTest, RetryingClientHonorsRetryAfterHint) {
  ServerOptions options;
  options.queue_capacity = 0;  // Every search shed at admission.
  options.overload.retry_after_ms = 777;
  StartServer(options);

  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryingClient client("127.0.0.1", server_->Port(), policy);
  std::vector<std::uint32_t> sleeps;
  client.SetSleepFunction([&](std::uint32_t ms) { sleeps.push_back(ms); });

  const auto reply = client.Search("kw0", 40, 5);
  EXPECT_EQ(reply.status, StatusCode::kOverloaded);
  EXPECT_EQ(reply.retry_after_ms, 777u);
  // The hint (777 ms) dominates the jittered backoff (<= 100 ms here),
  // so every inter-attempt sleep is exactly the server's ask.
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], 777u);
  EXPECT_EQ(sleeps[1], 777u);
}

TEST_F(ServerTest, BrownoutDegradesSearchesAndRecordsEpisode) {
  ServerOptions options;
  options.overload.latency_slo_ms = 1;     // Violated by every query:
  options.test_dequeue_delay_ms = 5;       // end-to-end latency >= 5 ms.
  options.overload.tick_interval_ms = 10;
  options.overload.brownout_enter_ticks = 1;
  options.overload.brownout_exit_ticks = 1000;  // Stay browned out.
  options.overload.brownout_max_k = 2;
  StartServer(options);
  Client client = Connect();

  // Keep slow queries flowing until a controller tick observes the SLO
  // violation and flips brownout on; replies then carry DEGRADED.
  Client::SearchReply degraded;
  ASSERT_TRUE(WaitFor([&] {
    degraded = client.Search("kw0 or kw1", 10, 5);
    return degraded.ok() && degraded.degraded;
  }));
  // Brownout clamps k to brownout_max_k.
  EXPECT_LE(degraded.results.size(), 2u);

  const auto scrape = Scrape(client);
  EXPECT_GE(scrape.Value("kspin_brownout_entries"), 1u);
  EXPECT_GE(scrape.Value("kspin_requests_degraded"), 1u);
  EXPECT_EQ(scrape.Value("kspin_overload_state"), 2u);  // 2 = brownout.
  // The AIMD limiter has been decreasing through the violating ticks.
  EXPECT_LT(scrape.Value("kspin_admission_limit"), options.queue_capacity);
}

TEST_F(ServerTest, HealthySearchesAreNotDegraded) {
  ServerOptions options;
  options.overload.latency_slo_ms = 1000;  // Never violated.
  StartServer(options);
  Client client = Connect();
  const auto reply = client.Search("kw0", 10, 5);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.degraded);
  const auto scrape = Scrape(client);
  EXPECT_EQ(scrape.Value("kspin_overload_state"), 0u);
  EXPECT_EQ(scrape.Value("kspin_brownout_entries"), 0u);
}

TEST_F(ServerTest, FailoverClientRoutesReadsAroundSheddingNode) {
  // Endpoint 0 sheds every search at admission; endpoint 1 is healthy.
  ServerOptions shedding;
  shedding.queue_capacity = 0;
  shedding.overload.retry_after_ms = 99;
  StartServer(shedding);

  PoiService healthy_service(graph_, oracle_);
  SyntheticCatalogOptions catalog;
  catalog.num_pois = 150;
  catalog.num_keywords = 20;
  PopulateSyntheticCatalog(healthy_service, graph_, catalog);
  Server healthy(healthy_service);
  healthy.Start();

  RetryPolicy policy;
  policy.max_attempts = 1;  // Isolate failover from per-endpoint retries.
  FailoverClient client({{"127.0.0.1", server_->Port()},
                         {"127.0.0.1", healthy.Port()}},
                        policy);
  client.SetSleepFunction([](std::uint32_t) {});

  // Reads re-route around the shed to the healthy endpoint; the shed
  // itself reached endpoint 0 (its counter moved).
  const auto first = client.Search("kw0", 10, 5);
  EXPECT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(client.LastEndpoint(), 1u);
  EXPECT_GE(server_->Metrics().requests_overloaded.load(), 1u);

  // Reads now stick to the endpoint that served (no shed round-trip per
  // read) — but the shedding node was never marked unhealthy: when the
  // sticky endpoint dies, endpoint 0 is tried again and its in-band shed
  // reply surfaces instead of a transport error.
  healthy.Stop();
  const auto after = client.Search("kw0", 10, 5);
  EXPECT_EQ(after.status, StatusCode::kOverloaded);
  EXPECT_EQ(after.retry_after_ms, 99u);
}

TEST_F(ServerTest, FailoverClientSurfacesOverloadWhenAllEndpointsShed) {
  ServerOptions options;
  options.queue_capacity = 0;
  options.overload.retry_after_ms = 444;
  StartServer(options);

  RetryPolicy policy;
  policy.max_attempts = 1;
  FailoverClient client({{"127.0.0.1", server_->Port()}}, policy);
  client.SetSleepFunction([](std::uint32_t) {});

  // No endpoint could serve: the shed reply (with its RETRY_AFTER hint)
  // surfaces instead of a transport error.
  const auto reply = client.Search("kw0", 10, 5);
  EXPECT_EQ(reply.status, StatusCode::kOverloaded);
  EXPECT_EQ(reply.retry_after_ms, 444u);
}

TEST_F(ServerTest, SlowQueryThresholdCountsSlowSearches) {
  ServerOptions options;
  options.slow_query_threshold_ms = 1;
  options.test_dequeue_delay_ms = 10;  // Every search waits >= 10 ms.
  StartServer(options);
  Client client = Connect();
  ASSERT_TRUE(client.Search("kw0", 10, 3).ok());
  const auto scrape = Scrape(client);
  EXPECT_GE(scrape.Value("kspin_slow_queries"), 1u);
  // No trace file configured: slow queries log to stderr only.
  EXPECT_EQ(scrape.Value("kspin_traces_emitted"), 0u);
}

// ---------------------------------------------------------------------
// One reply path: every reply counts under its status (or, for OVERLOADED
// and DEADLINE_EXCEEDED, its cause), and every executed opcode leaves a
// span and a latency sample.

/// The requests_* counter a reply must have bumped. OVERLOADED and
/// DEADLINE_EXCEEDED count by cause, which the reply's message names.
std::string CounterOf(const Client::Reply& reply) {
  switch (reply.status) {
    case StatusCode::kOk: return "kspin_requests_ok";
    case StatusCode::kMalformedPayload:
      return "kspin_requests_malformed_payload";
    case StatusCode::kBadQuery: return "kspin_requests_bad_query";
    case StatusCode::kInternal: return "kspin_requests_internal_error";
    case StatusCode::kUnsupported: return "kspin_requests_unsupported";
    case StatusCode::kNotPrimary: return "kspin_requests_not_primary";
    case StatusCode::kStaleEpoch: return "kspin_requests_stale_epoch";
    case StatusCode::kOverloaded:
      if (reply.error == "rate limited") return "kspin_requests_rate_limited";
      if (reply.error == "admission limited") {
        return "kspin_requests_admission_limited";
      }
      if (reply.error == "admission queue full") {
        return "kspin_requests_overloaded";
      }
      return "kspin_requests_codel_shed";
    case StatusCode::kDeadlineExceeded:
      if (reply.error == "deadline expired before admission") {
        return "kspin_requests_deadline_rejected";
      }
      if (reply.error == "deadline expired before execution") {
        return "kspin_requests_deadline_dropped";
      }
      return "kspin_requests_deadline_cancelled";
  }
  return "unknown status";
}

/// Sends one raw frame on `fd` and decodes the reply's status and message.
Client::Reply RawRequest(int fd, const FrameHeader& request,
                         const std::vector<std::uint8_t>& payload) {
  const auto frame = EncodeFrame(request, payload);
  EXPECT_EQ(::write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  std::vector<std::uint8_t> bytes;
  FrameHeader header;
  Client::Reply reply;
  if (!ReadFrame(fd, &bytes, &header)) {
    ADD_FAILURE() << "no reply frame";
    return reply;
  }
  PayloadReader reader(std::span<const std::uint8_t>(
      bytes.data() + kHeaderSize, header.payload_size));
  reply.status = static_cast<StatusCode>(reader.U8());
  if (reply.status != StatusCode::kOk) reply.error = reader.String();
  return reply;
}

TEST_F(ServerTest, EveryReplyCountsUnderItsStatusOrCause) {
  // Replies by the counter they must bump, for the running server and
  // over the whole test.
  std::map<std::string, std::uint64_t> tally;
  std::map<std::string, std::uint64_t> seen;
  const auto note = [&](const Client::Reply& reply) {
    ++tally[CounterOf(reply)];
    ++seen[CounterOf(reply)];
  };
  // Every outcome counter of the running server equals its tally (a
  // METRICS reply does not count itself); then the server goes.
  const auto check = [&](const std::string& server) {
    Client client = Connect();
    const ParsedMetrics scrape = Scrape(client);
    for (const char* name :
         {"kspin_requests_ok", "kspin_requests_bad_query",
          "kspin_requests_malformed_payload", "kspin_requests_unsupported",
          "kspin_requests_internal_error", "kspin_requests_not_primary",
          "kspin_requests_stale_epoch", "kspin_requests_overloaded",
          "kspin_requests_admission_limited", "kspin_requests_codel_shed",
          "kspin_requests_rate_limited", "kspin_requests_deadline_rejected",
          "kspin_requests_deadline_dropped",
          "kspin_requests_deadline_cancelled"}) {
      EXPECT_EQ(scrape.Value(name), tally[name]) << server << ": " << name;
    }
    tally.clear();
    server_.reset();
  };
  const std::vector<std::string> keywords = {"kw1"};

  // A primary with an empty snapshot directory and an op log whose
  // appends crash.
  ServerOptions options;
  options.snapshot.dir = testing::ScratchDir("counted_snapshots");
  options.oplog.dir = testing::ScratchDir("counted_oplog");
  options.oplog.hooks.on_phase = [](OplogPhase phase) {
    return phase != OplogPhase::kAfterRecordWrite;
  };
  StartServer(options);
  {
    Client client = Connect();
    note(client.Ping());
    note(client.Search("kw0", 3, 5));
    note(client.Search("((kw1", 3, 5));
    note(client.Search("kw0", static_cast<VertexId>(graph_.NumVertices()), 5));
    note(client.Search("kw0", 3, kMaxSearchK + 1));
    const auto reload = client.Reload();  // No snapshot to reload.
    EXPECT_EQ(reload.status, StatusCode::kBadQuery);
    note(reload);
    const auto crashed = client.InsertDoc(0, 5, "crashed", keywords);
    EXPECT_EQ(crashed.status, StatusCode::kInternal);
    note(crashed);
    client.SetFenceEpoch(7);  // Fences the server while it executes.
    note(client.InsertDoc(0, 5, "fenced", keywords));
    client.SetFenceEpoch(0);  // Refused at the door from now on.
    note(client.DeleteDoc(0, 0));

    const int fd = RawConnect(server_->Port());
    ASSERT_GE(fd, 0);
    FrameHeader header;
    header.request_id = 1;
    header.opcode = Opcode::kSearchBoolean;
    note(RawRequest(fd, header, {7, 0, 0, 0}));  // Body does not decode.
    header.opcode = Opcode::kPing;
    header.flags = kFrameFlagTraceContext;
    note(RawRequest(fd, header, {1, 2, 3}));  // Trace trailer cut short.
    header.opcode = static_cast<Opcode>(0x02);  // Retired STATS.
    header.flags = 0;
    note(RawRequest(fd, header, {}));
    ::close(fd);
  }
  check("primary");

  ServerOptions replica;
  replica.replication.role = ServerRole::kReplica;
  StartServer(replica);
  {
    Client client = Connect();
    note(client.Search("kw0", 3, 5));
    note(client.InsertDoc(0, 5, "redirected", keywords));
  }
  check("replica");

  ServerOptions full;
  full.queue_capacity = 0;
  StartServer(full);
  {
    Client client = Connect();
    note(client.Search("kw0", 3, 5));
  }
  check("zero-capacity queue");

  ServerOptions limited;
  limited.overload.per_client_qps = 0.001;
  limited.overload.per_client_burst = 1.0;
  StartServer(limited);
  {
    Client client = Connect();
    note(client.Search("kw0", 3, 5));  // Spends the only token.
    note(client.Search("kw0", 3, 5));
  }
  check("rate limit");

  ServerOptions late_admission;
  late_admission.test_admission_delay_ms = 30;
  StartServer(late_admission);
  {
    Client client = Connect();
    note(client.Search("kw0", 3, 5, false, /*deadline_ms=*/1));
  }
  check("deadline at admission");

  ServerOptions late_dequeue;
  late_dequeue.test_dequeue_delay_ms = 30;
  StartServer(late_dequeue);
  {
    Client client = Connect();
    note(client.Search("kw0", 3, 5, false, /*deadline_ms=*/1));
  }
  check("deadline at dequeue");

  // Every status the scenarios set out to reach was reached.
  EXPECT_EQ(seen["kspin_requests_ok"], 4u);
  EXPECT_EQ(seen["kspin_requests_bad_query"], 4u);
  EXPECT_EQ(seen["kspin_requests_malformed_payload"], 2u);
  EXPECT_EQ(seen["kspin_requests_unsupported"], 1u);
  EXPECT_EQ(seen["kspin_requests_internal_error"], 1u);
  EXPECT_EQ(seen["kspin_requests_stale_epoch"], 2u);
  EXPECT_EQ(seen["kspin_requests_not_primary"], 1u);
  EXPECT_EQ(seen["kspin_requests_overloaded"], 1u);
  EXPECT_EQ(seen["kspin_requests_rate_limited"], 1u);
  EXPECT_EQ(seen["kspin_requests_deadline_rejected"], 1u);
  EXPECT_EQ(seen["kspin_requests_deadline_dropped"], 1u);
}

TEST_F(ServerTest, PromoteLeavesASpanAndALatencySample) {
  ServerOptions options;
  options.replication.role = ServerRole::kReplica;  // No primary to tail.
  StartServer(options);
  Client client = Connect();
  const auto ack = client.Promote();
  ASSERT_TRUE(ack.ok()) << ack.error;
  EXPECT_EQ(ack.epoch, 1u);
  EXPECT_EQ(Scrape(client).Value("kspin_update_latency_us_count"), 1u);
  // The span is recorded right after the reply is queued.
  EXPECT_TRUE(WaitFor([&] {
    return server_->Recorder().Dump().find("\"opcode\":\"PROMOTE\"") !=
           std::string::npos;
  }));
}

}  // namespace
}  // namespace kspin::server
