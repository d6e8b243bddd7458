// kspin_client: command-line client for kspin_server (docs/protocol.md).
//
//   kspin_client [--host=H] --port=P <command> [args...]
//   kspin_client --endpoints=H1:P1,H2:P2,... <command> [args...]
//
// Commands:
//   ping
//   stats
//   metrics                             Prometheus 0.0.4 text exposition
//   health                              role, snapshot sequence, uptime
//   search   <vertex> <k> <query...>    boolean kNN
//   ranked   <vertex> <k> <query...>    ranked top-k
//   insert   <vertex> <name> <kw...>    add a POI through the op log:
//                                       idempotency-keyed, safe to retry;
//                                       prints "<id>\tseq=<sequence>"
//   delete   <id>                       remove a POI from search
//   update   <id> <+kw|-kw>...          add (+) / remove (-) keyword tags
//                                       as one logged operation
//   snapshot                            write a snapshot now, print its path
//   reload                              restore the newest valid snapshot
//   promote  [min_applied_seq]          flip the addressed endpoint (the
//                                       FIRST of --endpoints) to primary,
//                                       bumping the primary epoch; refused
//                                       when its applied sequence is below
//                                       min_applied_seq
//
// Options:
//   --endpoints=LIST  comma-separated HOST:PORT list of a replicated
//                     deployment. Reads prefer a healthy replica and fail
//                     over on transport errors; writes follow NOT_PRIMARY
//                     redirects to the real primary. With a single
//                     endpoint this degenerates to plain retrying.
//   --deadline-ms=D   attach a deadline to search commands
//   --retries=N       total attempts on retryable failures (default 4;
//                     1 disables retrying). Connect failures, OVERLOADED
//                     rejections, and — for idempotent commands — torn
//                     responses are retried with jittered exponential
//                     backoff (docs/protocol.md, "Client retry guidance").
//   --retry-backoff-ms=B  initial backoff (default 50, doubling per try)
//   --retry-budget-ms=T   overall per-command time budget across attempts
//                     (0 = unlimited); also clamps search deadlines
//   --fence-epoch=N   stamp epoch N into keyed mutations (insert/delete/
//                     update): a primary whose epoch is older rejects the
//                     write with STALE_EPOCH and fences itself — use after
//                     a promotion to prove the old primary is fenced
//
// Exit status: 0 on kOk, 2 when the server rejects the request
// (OVERLOADED, DEADLINE_EXCEEDED, BAD_QUERY, NOT_PRIMARY, ...), 1 on
// usage or transport errors.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "server/failover.h"
#include "server/retry.h"

namespace kspin::clientd {
namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: kspin_client [--host=H] --port=P [--endpoints=H:P,...] "
      "[--deadline-ms=D] [--retries=N] [--retry-backoff-ms=B] "
      "[--retry-budget-ms=T] [--fence-epoch=N] <command> [args...]\n"
      "commands: ping | stats | metrics | health | "
      "search <vertex> <k> <query...> |\n"
      "          ranked <vertex> <k> <query...> |\n"
      "          insert <vertex> <name> <kw...> | delete <id> |\n"
      "          update <id> <+kw|-kw>... | snapshot | reload |\n"
      "          promote [min_applied_seq]\n");
}

int ReportStatus(const server::Client::Reply& reply) {
  if (reply.ok()) return 0;
  std::fprintf(stderr, "error: %s: %s\n",
               std::string(server::StatusName(reply.status)).c_str(),
               reply.error.c_str());
  return 2;
}

int RunSearch(server::FailoverClient& client, bool ranked,
              const std::vector<std::string>& args,
              std::uint32_t deadline_ms) {
  if (args.size() < 3) {
    Usage();
    return 1;
  }
  const VertexId vertex = static_cast<VertexId>(std::stoul(args[0]));
  const std::uint32_t k =
      static_cast<std::uint32_t>(std::stoul(args[1]));
  std::string query;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (i > 2) query += ' ';
    query += args[i];
  }
  const auto reply = client.Search(query, vertex, k, ranked, deadline_ms);
  if (const int rc = ReportStatus(reply)) return rc;
  for (const auto& r : reply.results) {
    const auto time = static_cast<unsigned long long>(r.travel_time);
    if (ranked) {
      std::printf("%u\t%s\ttime=%llu\tscore=%.4f\n", r.object,
                  r.name.c_str(), time, r.score);
    } else {
      std::printf("%u\t%s\ttime=%llu\n", r.object, r.name.c_str(), time);
    }
  }
  return 0;
}

int ReportSnapshot(const server::Client::SnapshotReply& reply) {
  if (const int rc = ReportStatus(reply)) return rc;
  std::printf("%llu\t%s\n", static_cast<unsigned long long>(reply.sequence),
              reply.path.c_str());
  return 0;
}

int RunHealth(server::FailoverClient& client) {
  const auto reply = client.Health();
  if (const int rc = ReportStatus(reply)) return rc;
  const auto& h = reply.health;
  std::printf("role\t%s\n", h.role == 0 ? "primary" : "replica");
  std::printf("snapshot_sequence\t%llu\n",
              static_cast<unsigned long long>(h.snapshot_sequence));
  std::printf("uptime_ms\t%llu\n",
              static_cast<unsigned long long>(h.uptime_ms));
  std::printf("queue_depth\t%llu\n",
              static_cast<unsigned long long>(h.queue_depth));
  std::printf("applied_sequence\t%llu\n",
              static_cast<unsigned long long>(h.applied_sequence));
  std::printf("primary_epoch\t%llu\n",
              static_cast<unsigned long long>(h.primary_epoch));
  if (!h.primary_address.empty()) {
    std::printf("primary\t%s\n", h.primary_address.c_str());
  }
  return 0;
}

/// Promote goes straight at the addressed endpoint (first of the list):
/// routing it like a write would send it to the current primary, which is
/// exactly the server a failover wants to abandon.
int RunPromote(const server::Endpoint& endpoint,
               const std::vector<std::string>& args) {
  if (args.size() > 1) {
    Usage();
    return 1;
  }
  const std::uint64_t min_applied =
      args.empty() ? 0 : std::stoull(args[0]);
  server::Client client;
  client.Connect(endpoint.host, endpoint.port);
  const auto reply = client.Promote(min_applied);
  if (const int rc = ReportStatus(reply)) return rc;
  std::printf("epoch\t%llu\n", static_cast<unsigned long long>(reply.epoch));
  std::printf("applied_sequence\t%llu\n",
              static_cast<unsigned long long>(reply.applied_sequence));
  std::printf("role\t%s\n", reply.role == 0 ? "primary" : "replica");
  return 0;
}

/// "H1:P1,H2:P2" -> endpoints. Empty result means a parse error.
std::vector<server::Endpoint> ParseEndpoints(const std::string& list) {
  std::vector<server::Endpoint> endpoints;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const auto endpoint =
        server::ParseEndpoint(list.substr(start, comma - start));
    if (!endpoint) return {};
    endpoints.push_back(*endpoint);
    start = comma + 1;
  }
  return endpoints;
}

int Main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string endpoints_arg;
  std::uint32_t deadline_ms = 0;
  std::uint64_t fence_epoch = 0;
  server::RetryPolicy policy;
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) {
      host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      port = static_cast<std::uint16_t>(std::stoul(arg.substr(7)));
    } else if (arg.rfind("--endpoints=", 0) == 0) {
      endpoints_arg = arg.substr(12);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = static_cast<std::uint32_t>(std::stoul(arg.substr(14)));
    } else if (arg.rfind("--fence-epoch=", 0) == 0) {
      fence_epoch = std::stoull(arg.substr(14));
    } else if (arg.rfind("--retries=", 0) == 0) {
      policy.max_attempts = static_cast<std::uint32_t>(
          std::max(1ul, std::stoul(arg.substr(10))));
    } else if (arg.rfind("--retry-backoff-ms=", 0) == 0) {
      policy.initial_backoff_ms =
          static_cast<std::uint32_t>(std::stoul(arg.substr(19)));
    } else if (arg.rfind("--retry-budget-ms=", 0) == 0) {
      policy.max_total_ms =
          static_cast<std::uint32_t>(std::stoul(arg.substr(18)));
    } else {
      rest.push_back(arg);
    }
  }

  std::vector<server::Endpoint> endpoints;
  if (!endpoints_arg.empty()) {
    endpoints = ParseEndpoints(endpoints_arg);
    if (endpoints.empty()) {
      std::fprintf(stderr, "bad --endpoints (want H:P[,H:P...]): %s\n",
                   endpoints_arg.c_str());
      return 1;
    }
  } else if (port != 0) {
    endpoints.push_back({host, port});
  }
  if (endpoints.empty() || rest.empty()) {
    Usage();
    return 1;
  }
  const std::string command = rest.front();
  const std::vector<std::string> args(rest.begin() + 1, rest.end());

  try {
    if (command == "promote") {
      return RunPromote(endpoints.front(), args);
    }

    server::FailoverClient client(endpoints, policy);
    if (fence_epoch != 0) client.SetFenceEpoch(fence_epoch);

    if (command == "ping") {
      return ReportStatus(client.Ping());
    }
    if (command == "stats") {
      const auto reply = client.Stats();
      if (const int rc = ReportStatus(reply)) return rc;
      for (const auto& [key, value] : reply.stats) {
        std::printf("%s\t%llu\n", key.c_str(),
                    static_cast<unsigned long long>(value));
      }
      return 0;
    }
    if (command == "metrics") {
      const auto reply = client.Metrics();
      if (const int rc = ReportStatus(reply)) return rc;
      std::fputs(reply.text.c_str(), stdout);
      return 0;
    }
    if (command == "health") {
      return RunHealth(client);
    }
    if (command == "search" || command == "ranked") {
      return RunSearch(client, command == "ranked", args, deadline_ms);
    }
    if (command == "insert") {
      if (args.size() < 3) {
        Usage();
        return 1;
      }
      const VertexId vertex = static_cast<VertexId>(std::stoul(args[0]));
      const std::vector<std::string> keywords(args.begin() + 2,
                                              args.end());
      const auto reply = client.InsertDoc(vertex, args[1], keywords);
      if (const int rc = ReportStatus(reply)) return rc;
      std::printf("%u\tseq=%llu\n", reply.id,
                  static_cast<unsigned long long>(reply.sequence));
      return 0;
    }
    if (command == "delete") {
      if (args.size() != 1) {
        Usage();
        return 1;
      }
      const auto reply =
          client.DeleteDoc(static_cast<ObjectId>(std::stoul(args[0])));
      if (const int rc = ReportStatus(reply)) return rc;
      std::printf("%u\tseq=%llu\n", reply.id,
                  static_cast<unsigned long long>(reply.sequence));
      return 0;
    }
    if (command == "update") {
      if (args.size() < 2) {
        Usage();
        return 1;
      }
      const ObjectId id = static_cast<ObjectId>(std::stoul(args[0]));
      std::vector<std::string> adds;
      std::vector<std::string> removes;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i].size() < 2 ||
            (args[i][0] != '+' && args[i][0] != '-')) {
          Usage();
          return 1;
        }
        (args[i][0] == '+' ? adds : removes).push_back(args[i].substr(1));
      }
      const auto reply = client.UpdateDoc(id, adds, removes);
      if (const int rc = ReportStatus(reply)) return rc;
      std::printf("%u\tseq=%llu\n", reply.id,
                  static_cast<unsigned long long>(reply.sequence));
      return 0;
    }
    if (command == "snapshot") {
      return ReportSnapshot(client.Snapshot());
    }
    if (command == "reload") {
      return ReportSnapshot(client.Reload());
    }
    Usage();
    return 1;
  } catch (const server::ClientError& e) {
    std::fprintf(stderr, "transport error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace
}  // namespace kspin::clientd

int main(int argc, char** argv) { return kspin::clientd::Main(argc, argv); }
