// End-to-end trace-context propagation tests: a trace id stamped on the
// client side must show up in the flight-recorder spans of every server
// the request touched — through RetryingClient retries, the
// FailoverClient's NOT_PRIMARY redirect, and a RETRY_AFTER (overloaded)
// failover hop — so one grep over `kspin_cli diag` output reconstructs a
// request's whole journey across the deployment.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "routing/contraction_hierarchy.h"
#include "server/client.h"
#include "server/failover.h"
#include "server/flight_recorder.h"
#include "server/retry.h"
#include "server/server.h"
#include "service/poi_service.h"
#include "service/synthetic_catalog.h"
#include "test_util.h"

namespace kspin::server {
namespace {

std::string HexTraceId(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, id);
  return buf;
}

std::size_t CountOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Spans are recorded after the reply is written (reply_us is part of
/// the span), so a dump taken right after the client saw its response
/// can race the worker by a few microseconds — poll briefly.
bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

class TracePropagationTest : public ::testing::Test {
 protected:
  TracePropagationTest()
      : graph_(testing::SmallRoadNetwork()), ch_(graph_), oracle_(ch_) {}

  std::unique_ptr<PoiService> MakeService() {
    auto service = std::make_unique<PoiService>(graph_, oracle_);
    SyntheticCatalogOptions catalog;
    catalog.num_pois = 120;
    catalog.num_keywords = 16;
    PopulateSyntheticCatalog(*service, graph_, catalog);
    return service;
  }

  /// Starts a standalone server; returns its index into servers_.
  std::size_t StartServer(ServerOptions options = {}) {
    services_.push_back(MakeService());
    servers_.push_back(
        std::make_unique<Server>(*services_.back(), options));
    servers_.back()->Start();
    return servers_.size() - 1;
  }

  Graph graph_;
  ContractionHierarchy ch_;
  ChOracle oracle_;
  std::vector<std::unique_ptr<PoiService>> services_;
  std::vector<std::unique_ptr<Server>> servers_;
};

TEST_F(TracePropagationTest, ClientTraceContextAppearsInServerSpan) {
  const std::size_t s = StartServer();
  Client client;
  client.Connect("127.0.0.1", servers_[s]->Port());
  TraceContext context;
  context.trace_id = 0x00ABCDEF01234567ull;
  context.parent_span_id = 0x1234123412341234ull;
  context.flags = kTraceFlagSampled;
  client.SetTraceContext(context);
  ASSERT_TRUE(client.Search("kw1", 5, 4).ok());

  ASSERT_TRUE(WaitFor([&] {
    return servers_[s]->Recorder().Dump().find("\"kind\":\"span\"") !=
           std::string::npos;
  }));
  const std::string dump = servers_[s]->Recorder().Dump();
  EXPECT_NE(dump.find("\"trace_id\":\"00abcdef01234567\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"parent_span_id\":\"1234123412341234\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"opcode\":\"SEARCH_BOOLEAN\""), std::string::npos);
  EXPECT_NE(dump.find("\"status\":\"OK\""), std::string::npos);
}

TEST_F(TracePropagationTest, UntracedRequestStillRecordsSpan) {
  const std::size_t s = StartServer();
  Client client;
  client.Connect("127.0.0.1", servers_[s]->Port());
  ASSERT_TRUE(client.Search("kw1", 5, 4).ok());
  ASSERT_TRUE(WaitFor([&] {
    return servers_[s]->Recorder().Dump().find("\"kind\":\"span\"") !=
           std::string::npos;
  }));
  const std::string dump = servers_[s]->Recorder().Dump();
  // The span exists; its trace id is the all-zero "no context" value.
  EXPECT_NE(dump.find("\"opcode\":\"SEARCH_BOOLEAN\""), std::string::npos);
  EXPECT_NE(dump.find("\"trace_id\":\"0000000000000000\""),
            std::string::npos);
}

TEST_F(TracePropagationTest, TraceIdSurvivesRetryingClientRetries) {
  // Token bucket with a 1-token burst and a glacial refill: the first
  // search is admitted, every later one is rate-limited (OVERLOADED),
  // which RetryingClient retries until its attempts run out.
  ServerOptions options;
  options.overload.per_client_qps = 0.001;
  options.overload.per_client_burst = 1.0;
  const std::size_t s = StartServer(options);

  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryingClient client("127.0.0.1", servers_[s]->Port(), policy);
  client.SetSleepFunction([](std::uint32_t) {});
  TraceContext context;
  context.trace_id = 0x00000000FACEFEEDull;
  context.flags = kTraceFlagSampled;
  client.SetTraceContext(context);

  ASSERT_TRUE(client.Search("kw1", 5, 4).ok());  // Consumes the token.
  const auto shed = client.Search("kw2", 5, 4);
  EXPECT_EQ(shed.status, StatusCode::kOverloaded);
  EXPECT_EQ(client.LastAttempts(), 3u);

  // Every rate-limited attempt left an envelope span under the SAME
  // trace id on the shedding server.
  const std::string hex =
      "\"trace_id\":\"" + HexTraceId(context.trace_id) + "\"";
  ASSERT_TRUE(WaitFor([&] {
    return CountOccurrences(servers_[s]->Recorder().Dump(), hex) >= 4;
  }));  // 1 OK + 3 shed attempts.
  const std::string dump = servers_[s]->Recorder().Dump();
  EXPECT_NE(dump.find("\"status\":\"OVERLOADED\""), std::string::npos);
}

TEST_F(TracePropagationTest,
       NotPrimaryRedirectCarriesOneTraceIdAcrossBothNodes) {
  ServerOptions primary_options;
  primary_options.snapshot.dir = testing::ScratchDir("primary");
  const std::size_t primary = StartServer(primary_options);

  ServerOptions replica_options;
  replica_options.snapshot.dir = testing::ScratchDir("replica");
  replica_options.replication.role = ServerRole::kReplica;
  replica_options.replication.primary = {"127.0.0.1",
                                         servers_[primary]->Port()};
  const std::size_t replica = StartServer(replica_options);

  // Only the replica is configured: the write is rejected NOT_PRIMARY
  // there and chased to the primary — one logical operation, one id.
  FailoverClient client({{"127.0.0.1", servers_[replica]->Port()}});
  client.SetSleepFunction([](std::uint32_t) {});
  const std::vector<std::string> keywords = {"kw1"};
  ASSERT_TRUE(client.InsertDoc(5, "redirected", keywords).ok());
  const std::uint64_t trace_id = client.LastTraceId();
  ASSERT_NE(trace_id, 0u);
  const std::string hex = "\"trace_id\":\"" + HexTraceId(trace_id) + "\"";

  // Redirecting node: an envelope span for the NOT_PRIMARY rejection.
  const std::string replica_dump = servers_[replica]->Recorder().Dump();
  EXPECT_NE(replica_dump.find(hex), std::string::npos);
  EXPECT_NE(replica_dump.find("\"status\":\"NOT_PRIMARY\""),
            std::string::npos);
  // Serving node: the executed write span, same id.
  ASSERT_TRUE(WaitFor([&] {
    return servers_[primary]->Recorder().Dump().find(hex) !=
           std::string::npos;
  }));
  const std::string primary_dump = servers_[primary]->Recorder().Dump();
  EXPECT_NE(primary_dump.find(hex), std::string::npos);
  EXPECT_NE(primary_dump.find("\"opcode\":\"INSERT_DOC\""),
            std::string::npos);
}

TEST_F(TracePropagationTest, RetryAfterFailoverHopCarriesTraceId) {
  // Node A sheds all reads after its single burst token is spent; node B
  // is healthy. The second read is refused OVERLOADED (with RETRY_AFTER)
  // on A and hops to B — both recorders must show the same trace id.
  ServerOptions shed_options;
  shed_options.overload.per_client_qps = 0.001;
  shed_options.overload.per_client_burst = 1.0;
  const std::size_t a = StartServer(shed_options);
  const std::size_t b = StartServer();

  RetryPolicy policy;
  policy.max_attempts = 2;
  FailoverClient client({{"127.0.0.1", servers_[a]->Port()},
                         {"127.0.0.1", servers_[b]->Port()}},
                        policy);
  client.SetSleepFunction([](std::uint32_t) {});
  ASSERT_TRUE(client.Search("kw1", 5, 4).ok());  // A's token spent.
  const auto hopped = client.Search("kw2", 5, 4);
  ASSERT_TRUE(hopped.ok());  // Served by B after the hop.
  const std::uint64_t trace_id = client.LastTraceId();
  ASSERT_NE(trace_id, 0u);
  const std::string hex = "\"trace_id\":\"" + HexTraceId(trace_id) + "\"";

  const std::string a_dump = servers_[a]->Recorder().Dump();
  EXPECT_NE(a_dump.find(hex), std::string::npos);
  EXPECT_NE(a_dump.find("\"status\":\"OVERLOADED\""), std::string::npos);
  ASSERT_TRUE(WaitFor([&] {
    return servers_[b]->Recorder().Dump().find(hex) != std::string::npos;
  }));
  const std::string b_dump = servers_[b]->Recorder().Dump();
  EXPECT_NE(b_dump.find(hex), std::string::npos);
  EXPECT_NE(b_dump.find("\"status\":\"OK\""), std::string::npos);
}

TEST_F(TracePropagationTest, DumpDiagOpcodeServesTheRecorder) {
  const std::size_t s = StartServer();
  Client client;
  client.Connect("127.0.0.1", servers_[s]->Port());
  TraceContext context;
  context.trace_id = 0x00000000DEADBEEFull;
  client.SetTraceContext(context);
  ASSERT_TRUE(client.Search("kw1", 5, 4).ok());
  ASSERT_TRUE(WaitFor([&] {
    return servers_[s]->Recorder().Dump().find("\"kind\":\"span\"") !=
           std::string::npos;
  }));

  // The diag dump goes over the wire (DUMP_DIAG) and must carry the same
  // spans the in-process recorder holds.
  const auto reply = client.DumpDiag();
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(reply.text.find("\"trace_id\":\"" +
                            HexTraceId(context.trace_id) + "\""),
            std::string::npos);
  EXPECT_NE(reply.text.find("\"kind\":\"span\""), std::string::npos);
}

}  // namespace
}  // namespace kspin::server
