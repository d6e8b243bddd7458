// kspin_cli: command-line front end for dataset generation, index
// pre-processing with on-disk persistence, and ad-hoc queries — the
// offline/online split a production deployment would use.
//
//   kspin_cli generate --dataset=FL --dir=/tmp/fl
//       Generates the synthetic road network + keyword dataset and writes
//       graph.bin, docs.bin (binary) plus graph.gr/graph.co (DIMACS).
//   kspin_cli build --dir=/tmp/fl
//       Loads the dataset, builds the Contraction Hierarchy and hub
//       labels, and persists them (ch.bin, hl.bin).
//   kspin_cli stats --dir=/tmp/fl
//       Prints dataset and index statistics.
//   kspin_cli query --dir=/tmp/fl --vertex=123 --k=5 --op=or
//                   --keywords=3,17,42 [--module=ch|hl] [--ranked]
//       Loads everything back and answers a Boolean kNN or ranked top-k
//       query, reporting latency.
//   kspin_cli snapshot --dir=/tmp/fl [--snapshots=/tmp/fl/snapshots]
//       Builds the full serving state from the dataset and writes one
//       crash-safe, checksummed snapshot file (docs/persistence.md).
//       With --endpoints=H:P[,...] instead, asks the primary to write one
//       now (SNAPSHOT opcode) and prints "<sequence>\t<path>".
//   kspin_cli restore --dir=IGNORED --snapshots=/tmp/fl/snapshots
//                     [--vertex=V --k=K --keywords=3,17]
//       Restores the newest valid snapshot (skipping corrupt ones) and
//       optionally answers a query against the restored state.
//   kspin_cli fetch --endpoints=H:P[,H:P...] --snapshots=/tmp/fl/snapshots
//       Pulls the newest valid snapshot from the first reachable server
//       (FETCH_SNAPSHOT, chunked + CRC-checked), validates it end-to-end,
//       and writes it crash-safely into the snapshots directory — offline
//       replica seeding / backup.
//   kspin_cli metrics --endpoints=H:P[,H:P...] [--watch] [--interval-ms=T]
//       Scrapes the Prometheus text exposition (METRICS opcode,
//       docs/observability.md) from the first reachable server. --watch
//       re-scrapes every --interval-ms (default 2000) until interrupted
//       and prints counter/histogram series as DELTAS per interval
//       (gauges stay raw), so rates are readable without a Prometheus
//       server doing the rate() for you.
//   kspin_cli diag --endpoints=H:P[,H:P...]
//       Dumps the server's in-memory flight recorder (DUMP_DIAG opcode):
//       the last few thousand request spans and control-plane events
//       (promotions, fencing, brownout transitions, replication source
//       switches), one JSON line each, oldest first. Served inline by
//       the I/O thread, so it works even on a saturated server.
//   kspin_cli ping --endpoints=H:P[,...]
//       Liveness probe; prints nothing.
//   kspin_cli search --endpoints=H:P[,...] --vertex=V --k=K
//                    --query="thai and takeaway" [--ranked]
//       Boolean kNN (or ranked top-k) against a server; one
//       "<id>\t<name>\ttime=<t>" line per result (ranked adds
//       "\tscore=<s>").
//   kspin_cli reload --endpoints=H:P[,...]
//       Replaces the server's state from its newest valid snapshot
//       (RELOAD opcode); prints "<sequence>\t<path>".
//   kspin_cli insert --endpoints=H:P[,...] --vertex=V --name=NAME
//                    --tags=thai,takeaway
//   kspin_cli delete --endpoints=H:P[,...] --id=N
//   kspin_cli update --endpoints=H:P[,...] --id=N [--add=a,b] [--remove=c]
//       Durable write-path mutations (docs/protocol.md):
//       idempotency-keyed so retries and failover redirects apply at most
//       once; prints "<id>\tseq=<op-log sequence>".
//   kspin_cli health --endpoints=H:P[,H:P...]
//       One row per endpoint: role, primary epoch, applied op-log
//       sequence, snapshot sequence, queue depth — the failover dashboard.
//   kspin_cli promote --endpoints=H:P[,...] [--min-applied=N]
//       Flips the FIRST endpoint to primary (PROMOTE opcode), bumping the
//       primary epoch; refused when its applied sequence is below N.
//
//   ping, search, snapshot --endpoints, reload and the mutations go
//   through a FailoverClient: reads prefer a replica and fail over on
//   transport errors, writes follow NOT_PRIMARY redirects. --retries=N
//   sets the attempts per request (default 4; 1 disables retrying) and
//   --fence-epoch=N stamps epoch N into keyed mutations, so a primary
//   older than N rejects them with STALE_EPOCH and fences itself. These
//   commands (and promote) exit 0 on success, 2 when the server rejects
//   the request and 1 on usage or transport errors. Every command rejects
//   an argument it does not know, or runs without a flag it needs (query
//   and search never default --vertex or --k), with exit status 1.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "graph/dimacs_io.h"
#include "graph/road_network_generator.h"
#include "io/serialization.h"
#include "io/snapshot.h"
#include "kspin/kspin.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "routing/hub_labeling.h"
#include "server/client.h"
#include "server/failover.h"
#include "server/metrics.h"
#include "server/replication.h"
#include "server/retry.h"
#include "service/poi_service.h"
#include "service/service_snapshot.h"
#include "text/zipf_generator.h"

namespace kspin::cli {
namespace {

struct Args {
  std::string command;
  std::string dir = ".";
  std::string snapshots;  // Defaults to <dir>/snapshots.
  std::string endpoints;  // For `fetch`: comma-separated HOST:PORT list.
  std::string dataset = "FL";
  std::string op = "or";
  std::string module = "ch";
  // Required by the commands that read them: never defaulted.
  std::optional<VertexId> vertex;
  std::optional<std::uint32_t> k;
  std::vector<KeywordId> keywords;
  std::string query;  // For `search`: the and/or query text.
  bool ranked = false;
  bool watch = false;               // For `metrics`: keep scraping.
  std::uint32_t interval_ms = 2000; // Delay between --watch scrapes.
  // For `promote`: refuse when the target's applied sequence is lower.
  std::uint64_t min_applied = 0;
  // For `insert` / `delete` / `update` (the online mutation commands).
  ObjectId id = kInvalidObject;
  std::string name;
  std::vector<std::string> tags;     // insert: keyword strings.
  std::vector<std::string> adds;     // update: keywords to add.
  std::vector<std::string> removes;  // update: keywords to remove.
  // Attempts per request of the FailoverClient commands.
  std::uint32_t retries = server::RetryPolicy{}.max_attempts;
  std::uint64_t fence_epoch = 0;  // 0 = stamp no epoch.
};

/// "a,b,c" -> {"a","b","c"} (empty string -> empty list).
std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream in(list);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

using U64 = std::uint64_t;

/// Whole-string unsigned parse: "12x", "-1" and "" are errors, not 12.
template <typename T = std::uint32_t>
T Number(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("not a number: \"" + text + "\"");
  }
  return value;
}

/// Parses argv[2..] into `args`. Throws std::invalid_argument on an
/// unknown flag, a stray positional argument or a bad number: a
/// misspelled flag must fail the command, never fall back to a default.
void Parse(int argc, char** argv, Args& args) {
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    bool known = arg == "--ranked" || arg == "--watch";
    auto value = [&](const char* name) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      known = true;
      return arg.substr(prefix.size());
    };
    if (auto v = value("dir")) args.dir = *v;
    if (auto v = value("snapshots")) args.snapshots = *v;
    if (auto v = value("endpoints")) args.endpoints = *v;
    if (auto v = value("dataset")) args.dataset = *v;
    if (auto v = value("op")) args.op = *v;
    if (auto v = value("module")) args.module = *v;
    if (auto v = value("vertex")) args.vertex = Number(*v);
    if (auto v = value("k")) args.k = Number(*v);
    if (arg == "--ranked") args.ranked = true;
    if (arg == "--watch") args.watch = true;
    if (auto v = value("interval-ms")) args.interval_ms = Number(*v);
    if (auto v = value("min-applied")) args.min_applied = Number<U64>(*v);
    if (auto v = value("id")) args.id = Number(*v);
    if (auto v = value("name")) args.name = *v;
    if (auto v = value("tags")) args.tags = SplitCommaList(*v);
    if (auto v = value("add")) args.adds = SplitCommaList(*v);
    if (auto v = value("remove")) args.removes = SplitCommaList(*v);
    if (auto v = value("query")) args.query = *v;
    if (auto v = value("retries")) args.retries = Number(*v);
    if (auto v = value("fence-epoch")) args.fence_epoch = Number<U64>(*v);
    if (auto v = value("keywords")) {
      for (const std::string& token : SplitCommaList(*v)) {
        args.keywords.push_back(Number(token));
      }
    }
    if (!known) throw std::invalid_argument("unknown argument " + arg);
  }
  if (args.snapshots.empty()) args.snapshots = args.dir + "/snapshots";
}

template <typename T, typename LoadFn>
T LoadFile(const std::string& path, LoadFn load) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return load(in);
}

template <typename SaveFn>
void SaveFile(const std::string& path, SaveFn save) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  save(out);
}

void Usage();

/// A command ran without a flag it needs: names the flags, prints the
/// usage and returns exit status 1.
int MissingFlags(const char* command, const char* flags) {
  std::fprintf(stderr, "%s: %s required\n", command, flags);
  Usage();
  return 1;
}

int Generate(const Args& args) {
  const DatasetSpec spec = DatasetSpecByName(args.dataset);
  RoadNetworkOptions road;
  road.grid_width = spec.grid_width;
  road.grid_height = spec.grid_height;
  road.seed = spec.seed;
  Timer timer;
  const Graph graph = GenerateRoadNetwork(road);
  KeywordDatasetOptions kw;
  kw.num_keywords = spec.num_keywords;
  kw.object_fraction = spec.object_fraction;
  kw.seed = spec.seed + 1000;
  const DocumentStore store = GenerateKeywordDataset(graph, kw);
  std::printf("generated %s: |V|=%zu |E|=%zu |O|=%zu (%.1fs)\n",
              spec.name.c_str(), graph.NumVertices(), graph.NumEdges(),
              store.NumLiveObjects(), timer.ElapsedSeconds());

  SaveFile(args.dir + "/graph.bin",
           [&](std::ostream& out) { SaveGraph(graph, out); });
  SaveFile(args.dir + "/docs.bin",
           [&](std::ostream& out) { SaveDocumentStore(store, out); });
  SaveFile(args.dir + "/graph.gr",
           [&](std::ostream& out) { WriteDimacsGraph(graph, out); });
  SaveFile(args.dir + "/graph.co",
           [&](std::ostream& out) { WriteDimacsCoordinates(graph, out); });
  std::printf("wrote graph.bin, docs.bin, graph.gr, graph.co to %s\n",
              args.dir.c_str());
  return 0;
}

int Build(const Args& args) {
  const Graph graph = LoadFile<Graph>(
      args.dir + "/graph.bin", [](std::istream& in) { return LoadGraph(in); });
  Timer timer;
  const ContractionHierarchy ch(graph);
  std::printf("contraction hierarchy: %.1fs, %zu shortcuts\n",
              timer.ElapsedSeconds(), ch.NumShortcuts());
  timer.Restart();
  const HubLabeling hl(graph, ch);
  std::printf("hub labels: %.1fs, avg label %.1f\n", timer.ElapsedSeconds(),
              hl.AverageLabelSize());
  SaveFile(args.dir + "/ch.bin", [&](std::ostream& out) {
    SaveContractionHierarchy(ch, out);
  });
  SaveFile(args.dir + "/hl.bin",
           [&](std::ostream& out) { SaveHubLabeling(hl, out); });
  std::printf("wrote ch.bin, hl.bin to %s\n", args.dir.c_str());
  return 0;
}

int Stats(const Args& args) {
  const Graph graph = LoadFile<Graph>(
      args.dir + "/graph.bin", [](std::istream& in) { return LoadGraph(in); });
  const DocumentStore store =
      LoadFile<DocumentStore>(args.dir + "/docs.bin", [](std::istream& in) {
        return LoadDocumentStore(in);
      });
  std::printf("graph: |V|=%zu |E|=%zu (%.1f MB)\n", graph.NumVertices(),
              graph.NumEdges(), graph.MemoryBytes() / 1048576.0);
  std::printf("objects: %zu live, %zu keyword slots\n",
              store.NumLiveObjects(), store.TotalKeywordSlots());
  KeywordId max_keyword = 0;
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    if (!store.IsLive(o)) continue;
    for (const DocEntry& e : store.Document(o)) {
      max_keyword = std::max(max_keyword, e.keyword);
    }
  }
  InvertedIndex inverted(store, max_keyword + 1);
  std::size_t nonempty = 0, tiny = 0;
  for (KeywordId t = 0; t <= max_keyword; ++t) {
    if (inverted.ListSize(t) > 0) ++nonempty;
    if (inverted.ListSize(t) > 0 && inverted.ListSize(t) <= 5) ++tiny;
  }
  std::printf("keywords: %zu non-empty, %zu (%.0f%%) under the rho=5 "
              "cutoff (Observation 1)\n",
              nonempty, tiny, 100.0 * tiny / std::max<std::size_t>(1,
                                                                   nonempty));
  return 0;
}

int Query(const Args& args) {
  if (!args.vertex || !args.k || args.keywords.empty()) {
    return MissingFlags("query", "--vertex=V, --k=K and --keywords=1,2,3");
  }
  const Graph graph = LoadFile<Graph>(
      args.dir + "/graph.bin", [](std::istream& in) { return LoadGraph(in); });
  DocumentStore store =
      LoadFile<DocumentStore>(args.dir + "/docs.bin", [](std::istream& in) {
        return LoadDocumentStore(in);
      });
  if (*args.vertex >= graph.NumVertices()) {
    std::fprintf(stderr, "query: vertex out of range\n");
    return 1;
  }

  // Network Distance Module from disk; K-SPIN side built fresh (it is the
  // cheap part and depends on the live object set).
  const ContractionHierarchy ch = LoadFile<ContractionHierarchy>(
      args.dir + "/ch.bin",
      [](std::istream& in) { return LoadContractionHierarchy(in); });
  if (ch.NumVertices() != graph.NumVertices()) {
    std::fprintf(stderr, "query: ch.bin was built for another graph\n");
    return 1;
  }
  std::optional<HubLabeling> hl;
  ChOracle ch_oracle(ch);
  std::optional<HubLabelOracle> hl_oracle;
  DistanceOracle* oracle = &ch_oracle;
  if (args.module == "hl") {
    hl = LoadFile<HubLabeling>(args.dir + "/hl.bin", [](std::istream& in) {
      return LoadHubLabeling(in);
    });
    if (hl->NumVertices() != graph.NumVertices()) {
      std::fprintf(stderr, "query: hl.bin was built for another graph\n");
      return 1;
    }
    hl_oracle.emplace(*hl);
    oracle = &*hl_oracle;
  }

  Timer build_timer;
  KSpin engine(graph, std::move(store), *oracle);
  std::printf("k-spin side built in %.2fs (module: %s)\n",
              build_timer.ElapsedSeconds(), oracle->Name().c_str());

  Timer query_timer;
  if (args.ranked) {
    const auto results = engine.TopK(*args.vertex, *args.k, args.keywords);
    const double ms = query_timer.ElapsedMillis();
    for (const TopKResult& r : results) {
      std::printf("object %u  score %.2f  travel %llu  relevance %.3f\n",
                  r.object, r.score,
                  static_cast<unsigned long long>(r.distance), r.relevance);
    }
    std::printf("top-%u in %.3f ms\n", *args.k, ms);
  } else {
    const BooleanOp op = args.op == "and" ? BooleanOp::kConjunctive
                                          : BooleanOp::kDisjunctive;
    const auto results =
        engine.BooleanKnn(*args.vertex, *args.k, args.keywords, op);
    const double ms = query_timer.ElapsedMillis();
    for (const BkNNResult& r : results) {
      std::printf("object %u  travel %llu\n", r.object,
                  static_cast<unsigned long long>(r.distance));
    }
    std::printf("B%uNN (%s) in %.3f ms\n", *args.k, args.op.c_str(), ms);
  }
  return 0;
}

// Builds the serving state from the dataset files and writes one
// crash-safe snapshot (temp file + fsync + atomic rename; see
// docs/persistence.md) into the snapshot directory.
int WriteLocalSnapshot(const Args& args) {
  const Graph graph = LoadFile<Graph>(
      args.dir + "/graph.bin", [](std::istream& in) { return LoadGraph(in); });
  const DocumentStore store =
      LoadFile<DocumentStore>(args.dir + "/docs.bin", [](std::istream& in) {
        return LoadDocumentStore(in);
      });

  std::optional<ContractionHierarchy> ch;
  std::optional<ChOracle> ch_oracle;
  std::optional<DijkstraOracle> dijkstra_oracle;
  DistanceOracle* oracle;
  if (std::filesystem::exists(args.dir + "/ch.bin")) {
    ch = LoadFile<ContractionHierarchy>(
        args.dir + "/ch.bin",
        [](std::istream& in) { return LoadContractionHierarchy(in); });
    ch_oracle.emplace(*ch);
    oracle = &*ch_oracle;
  } else {
    dijkstra_oracle.emplace(graph);
    oracle = &*dijkstra_oracle;
  }

  // Re-express the dataset at the service layer ("poi<slot>" / "kw<id>")
  // so the snapshot carries the full string-level catalogue.
  Timer timer;
  PoiService service(graph, *oracle);
  std::vector<std::string> keywords;
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    if (!store.IsLive(o)) continue;
    keywords.clear();
    for (const DocEntry& e : store.Document(o)) {
      keywords.push_back("kw" + std::to_string(e.keyword));
    }
    service.AddPoi("poi" + std::to_string(o), store.ObjectVertex(o),
                   keywords);
  }
  std::printf("service state built in %.1fs (%zu pois, module: %s)\n",
              timer.ElapsedSeconds(), service.NumLivePois(),
              oracle->Name().c_str());

  std::filesystem::create_directories(args.snapshots);
  const auto existing = io::FindSnapshots(args.snapshots);
  const std::uint64_t sequence =
      existing.empty() ? 1 : existing.front().first + 1;
  const std::string path =
      (std::filesystem::path(args.snapshots) / io::SnapshotFileName(sequence))
          .string();
  timer.Restart();
  ServiceSnapshotArtifacts extra;
  if (ch) extra.ch = &*ch;
  WriteServiceSnapshotFile(path, service, extra);
  std::printf("wrote snapshot %llu: %s (%.1f MB, %.2fs)\n",
              static_cast<unsigned long long>(sequence), path.c_str(),
              std::filesystem::file_size(path) / 1048576.0,
              timer.ElapsedSeconds());
  return 0;
}

// Restores the newest valid snapshot and optionally answers a query
// against the restored state — end-to-end proof the file round-trips.
int Restore(const Args& args) {
  if (!args.keywords.empty() && (!args.vertex || !args.k)) {
    return MissingFlags("restore", "--vertex=V and --k=K with --keywords");
  }
  std::vector<std::string> skipped;
  Timer timer;
  std::optional<LoadedServiceSnapshot> loaded =
      LoadNewestValidServiceSnapshot(args.snapshots, nullptr, &skipped);
  for (const std::string& reason : skipped) {
    std::fprintf(stderr, "snapshot skipped: %s\n", reason.c_str());
  }
  if (!loaded) {
    std::fprintf(stderr, "restore: no valid snapshot in %s\n",
                 args.snapshots.c_str());
    return 1;
  }
  const Graph& graph = *loaded->state.graph;

  std::unique_ptr<ContractionHierarchy> ch = std::move(loaded->state.ch);
  std::optional<ChOracle> ch_oracle;
  std::optional<DijkstraOracle> dijkstra_oracle;
  DistanceOracle* oracle;
  if (ch != nullptr) {
    ch_oracle.emplace(*ch);
    oracle = &*ch_oracle;
  } else {
    dijkstra_oracle.emplace(graph);
    oracle = &*dijkstra_oracle;
  }

  PoiService service(graph, *oracle,
                     std::move(loaded->state.catalog.vocabulary),
                     std::move(loaded->state.catalog.names),
                     std::move(loaded->state.store),
                     std::move(loaded->state.alt),
                     std::move(loaded->state.keyword_index));
  std::printf(
      "restored snapshot %llu from %s in %.2fs: |V|=%zu |E|=%zu, %zu pois, "
      "module: %s\n",
      static_cast<unsigned long long>(loaded->sequence), loaded->path.c_str(),
      timer.ElapsedSeconds(), graph.NumVertices(), graph.NumEdges(),
      service.NumLivePois(), oracle->Name().c_str());

  if (!args.keywords.empty()) {
    if (*args.vertex >= graph.NumVertices()) {
      std::fprintf(stderr, "restore: vertex out of range\n");
      return 1;
    }
    std::string query;
    for (std::size_t i = 0; i < args.keywords.size(); ++i) {
      if (i > 0) query += args.op == "and" ? " and " : " or ";
      query += "kw" + std::to_string(args.keywords[i]);
    }
    Timer query_timer;
    const auto results = service.Search(query, *args.vertex, *args.k);
    const double ms = query_timer.ElapsedMillis();
    for (const PoiResult& r : results) {
      std::printf("%u\t%s\ttime=%llu\n", r.id, r.name.c_str(),
                  static_cast<unsigned long long>(r.travel_time));
    }
    std::printf("\"%s\" -> %zu results in %.3f ms\n", query.c_str(),
                results.size(), ms);
  }
  return 0;
}

/// "H1:P1,H2:P2" -> endpoints; empty (with stderr diagnostics) on a parse
/// error or an empty list.
std::vector<server::Endpoint> ParseEndpointList(const char* command,
                                                const std::string& list) {
  if (list.empty()) {
    std::fprintf(stderr, "%s: --endpoints=H:P[,H:P...] required\n", command);
    return {};
  }
  std::vector<server::Endpoint> endpoints;
  std::stringstream in(list);
  std::string token;
  while (std::getline(in, token, ',')) {
    const auto endpoint = server::ParseEndpoint(token);
    if (!endpoint) {
      std::fprintf(stderr, "%s: bad endpoint (want HOST:PORT): %s\n",
                   command, token.c_str());
      return {};
    }
    endpoints.push_back(*endpoint);
  }
  return endpoints;
}

// Pulls the newest valid snapshot from the first reachable endpoint into
// the snapshots directory (the offline flavour of replica bootstrap).
int Fetch(const Args& args) {
  const auto endpoints = ParseEndpointList("fetch", args.endpoints);
  if (endpoints.empty()) return 1;

  for (const server::Endpoint& endpoint : endpoints) {
    std::uint64_t sequence = 0;
    std::string bytes;
    std::string error;
    try {
      server::Client client;
      client.Connect(endpoint.host, endpoint.port);
      Timer timer;
      if (!server::FetchSnapshotBytes(client, 0, 256 * 1024, &sequence,
                                      &bytes, &error)) {
        std::fprintf(stderr, "fetch: %s rejected: %s\n",
                     endpoint.ToString().c_str(), error.c_str());
        continue;
      }
      // Full container validation before the file becomes restorable.
      io::SnapshotReader validate(bytes);
      std::filesystem::create_directories(args.snapshots);
      const std::string path = (std::filesystem::path(args.snapshots) /
                                io::SnapshotFileName(sequence))
                                   .string();
      io::WriteFileAtomically(path, [&](std::ostream& out) {
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      });
      std::printf("fetched snapshot %llu from %s: %s (%.1f MB, %.2fs)\n",
                  static_cast<unsigned long long>(sequence),
                  endpoint.ToString().c_str(), path.c_str(),
                  bytes.size() / 1048576.0, timer.ElapsedSeconds());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fetch: %s failed: %s\n",
                   endpoint.ToString().c_str(), e.what());
    }
  }
  std::fprintf(stderr, "fetch: no endpoint yielded a snapshot\n");
  return 1;
}

// Scrapes the Prometheus text exposition from the first reachable
// endpoint; with --watch, keeps scraping until interrupted, printing
// counter and histogram series as deltas per interval (rates an operator
// can read directly) and gauges raw.
int Metrics(const Args& args) {
  const auto endpoints = ParseEndpointList("metrics", args.endpoints);
  if (endpoints.empty()) return 1;
  std::map<std::string, std::uint64_t> previous;
  bool have_previous = false;
  while (true) {
    bool scraped = false;
    for (const server::Endpoint& endpoint : endpoints) {
      try {
        server::Client client;
        client.Connect(endpoint.host, endpoint.port);
        const auto reply = client.Metrics();
        if (!reply.ok()) {
          std::fprintf(stderr, "metrics: %s rejected: %s\n",
                       endpoint.ToString().c_str(), reply.error.c_str());
          continue;
        }
        if (!args.watch) {
          std::fputs(reply.text.c_str(), stdout);
        } else {
          const server::ParsedMetrics scrape =
              server::ParseMetricsText(reply.text);
          std::printf("# scrape of %s (%s per %ums; gauges raw)\n",
                      endpoint.ToString().c_str(),
                      have_previous ? "counter deltas" : "raw first scrape",
                      args.interval_ms);
          std::map<std::string, std::uint64_t> current;
          for (const auto& [series, type, value] : scrape.samples) {
            current[series] = value;
            const bool cumulative = type == "counter" || type == "histogram";
            std::uint64_t shown = value;
            if (cumulative && have_previous) {
              const auto prev = previous.find(series);
              // A counter below its previous value means the server
              // restarted; show the raw count rather than a bogus
              // negative delta.
              shown = (prev != previous.end() && value >= prev->second)
                          ? value - prev->second
                          : value;
            }
            // Quiet cumulative series add nothing between scrapes.
            if (cumulative && have_previous && shown == 0) continue;
            std::printf("%s %llu%s\n", series.c_str(),
                        static_cast<unsigned long long>(shown),
                        cumulative && have_previous ? " (delta)" : "");
          }
          previous = std::move(current);
          have_previous = true;
        }
        std::fflush(stdout);
        scraped = true;
        break;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "metrics: %s failed: %s\n",
                     endpoint.ToString().c_str(), e.what());
      }
    }
    if (!args.watch) return scraped ? 0 : 1;
    // Watch mode keeps going through scrape failures (the server may be
    // restarting); each round is separated by a blank line.
    std::printf("\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
  }
}

// Dumps the flight recorder (DUMP_DIAG) of the first reachable endpoint:
// recent request spans and control-plane events as JSON lines, oldest
// first. Answered inline by the server's I/O thread, so this works even
// when the admission queue is rejecting everything else.
int Diag(const Args& args) {
  const auto endpoints = ParseEndpointList("diag", args.endpoints);
  if (endpoints.empty()) return 1;
  for (const server::Endpoint& endpoint : endpoints) {
    try {
      server::Client client;
      client.Connect(endpoint.host, endpoint.port);
      const auto reply = client.DumpDiag();
      if (!reply.ok()) {
        std::fprintf(stderr, "diag: %s rejected: %s\n",
                     endpoint.ToString().c_str(), reply.error.c_str());
        continue;
      }
      std::fputs(reply.text.c_str(), stdout);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "diag: %s failed: %s\n",
                   endpoint.ToString().c_str(), e.what());
    }
  }
  std::fprintf(stderr, "diag: no endpoint answered\n");
  return 1;
}

// One health row per endpoint: who is primary, at which epoch, and how
// far each has applied — the operator's failover dashboard. Unreachable
// endpoints are reported but do not fail the command (that is the whole
// point of asking during an outage).
int Health(const Args& args) {
  const auto endpoints = ParseEndpointList("health", args.endpoints);
  if (endpoints.empty()) return 1;
  bool any = false;
  std::printf("endpoint\trole\tepoch\tapplied\tsnapshot\tqueue\n");
  for (const server::Endpoint& endpoint : endpoints) {
    try {
      server::Client client;
      client.Connect(endpoint.host, endpoint.port);
      const auto reply = client.Health();
      if (!reply.ok()) {
        std::printf("%s\trejected: %s\n", endpoint.ToString().c_str(),
                    reply.error.c_str());
        continue;
      }
      const auto& h = reply.health;
      std::printf("%s\t%s\t%llu\t%llu\t%llu\t%llu\n",
                  endpoint.ToString().c_str(),
                  h.role == 0 ? "primary" : "replica",
                  static_cast<unsigned long long>(h.primary_epoch),
                  static_cast<unsigned long long>(h.applied_sequence),
                  static_cast<unsigned long long>(h.snapshot_sequence),
                  static_cast<unsigned long long>(h.queue_depth));
      any = true;
    } catch (const std::exception& e) {
      std::printf("%s\tunreachable: %s\n", endpoint.ToString().c_str(),
                  e.what());
    }
  }
  return any ? 0 : 1;
}

/// Reports a request the server answered with a non-OK status; the exit
/// status of a rejection is 2 (usage and transport errors exit 1).
int Rejected(const char* command, const server::Client::Reply& reply) {
  std::fprintf(stderr, "%s: rejected: %s: %s\n", command,
               std::string(server::StatusName(reply.status)).c_str(),
               reply.error.c_str());
  return 2;
}

// Flips the FIRST endpoint of --endpoints to primary (PROMOTE opcode).
// Deliberately not failover-routed: the operator names the server to
// promote, and that is where the request goes.
int Promote(const Args& args) {
  const auto endpoints = ParseEndpointList("promote", args.endpoints);
  if (endpoints.empty()) return 1;
  try {
    server::Client client;
    client.Connect(endpoints.front().host, endpoints.front().port);
    const auto reply = client.Promote(args.min_applied);
    if (!reply.ok()) return Rejected("promote", reply);
    std::printf("promoted %s: epoch=%llu applied=%llu\n",
                endpoints.front().ToString().c_str(),
                static_cast<unsigned long long>(reply.epoch),
                static_cast<unsigned long long>(reply.applied_sequence));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "promote: failed: %s\n", e.what());
    return 1;
  }
}

// Runs `op` through a FailoverClient over --endpoints with --retries
// attempts per request and --fence-epoch stamped on keyed mutations.
// `op` returns the exit status; a transport failure on every endpoint
// exits 1.
int Online(const char* command, const Args& args,
           const std::function<int(server::FailoverClient&)>& op) {
  const auto endpoints = ParseEndpointList(command, args.endpoints);
  if (endpoints.empty()) return 1;
  server::RetryPolicy policy;
  policy.max_attempts = std::max<std::uint32_t>(1, args.retries);
  try {
    server::FailoverClient client(endpoints, policy);
    if (args.fence_epoch != 0) client.SetFenceEpoch(args.fence_epoch);
    return op(client);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: failed: %s\n", command, e.what());
    return 1;
  }
}

int Ping(const Args& args) {
  return Online("ping", args, [](server::FailoverClient& client) {
    const auto reply = client.Ping();
    return reply.ok() ? 0 : Rejected("ping", reply);
  });
}

int Search(const Args& args) {
  if (!args.vertex || !args.k || args.query.empty()) {
    return MissingFlags("search", "--vertex=V, --k=K and --query=TEXT");
  }
  return Online("search", args, [&](server::FailoverClient& client) {
    const auto reply =
        client.Search(args.query, *args.vertex, *args.k, args.ranked);
    if (!reply.ok()) return Rejected("search", reply);
    for (const server::WireResult& r : reply.results) {
      const auto time = static_cast<unsigned long long>(r.travel_time);
      if (args.ranked) {
        std::printf("%u\t%s\ttime=%llu\tscore=%.4f\n", r.object,
                    r.name.c_str(), time, r.score);
      } else {
        std::printf("%u\t%s\ttime=%llu\n", r.object, r.name.c_str(), time);
      }
    }
    return 0;
  });
}

// SNAPSHOT / RELOAD against a server: prints "<sequence>\t<path>".
int SnapshotOnline(
    const char* command, const Args& args,
    server::Client::SnapshotReply (server::FailoverClient::*op)()) {
  return Online(command, args, [&](server::FailoverClient& client) {
    const auto reply = (client.*op)();
    if (!reply.ok()) return Rejected(command, reply);
    std::printf("%llu\t%s\n", static_cast<unsigned long long>(reply.sequence),
                reply.path.c_str());
    return 0;
  });
}

// `snapshot` writes one from the dataset files, or with --endpoints asks
// the server to write one.
int Snapshot(const Args& args) {
  if (args.endpoints.empty()) return WriteLocalSnapshot(args);
  return SnapshotOnline("snapshot", args, &server::FailoverClient::Snapshot);
}

int Reload(const Args& args) {
  return SnapshotOnline("reload", args, &server::FailoverClient::Reload);
}

// Shared tail of the three mutation commands: route the write through a
// FailoverClient (NOT_PRIMARY redirects + idempotent retries) and print
// the acked object id and op-log sequence.
int Mutate(const char* command, const Args& args,
           const std::function<server::Client::MutateReply(
               server::FailoverClient&)>& op) {
  return Online(command, args, [&](server::FailoverClient& client) {
    const auto reply = op(client);
    if (!reply.ok()) return Rejected(command, reply);
    std::printf("%u\tseq=%llu\n", reply.id,
                static_cast<unsigned long long>(reply.sequence));
    return 0;
  });
}

int Insert(const Args& args) {
  if (!args.vertex || args.name.empty()) {
    return MissingFlags("insert", "--vertex=V and --name=NAME");
  }
  return Mutate("insert", args, [&](server::FailoverClient& client) {
    return client.InsertDoc(*args.vertex, args.name, args.tags);
  });
}

int Delete(const Args& args) {
  if (args.id == kInvalidObject) return MissingFlags("delete", "--id=N");
  return Mutate("delete", args, [&](server::FailoverClient& client) {
    return client.DeleteDoc(args.id);
  });
}

int Update(const Args& args) {
  if (args.id == kInvalidObject) return MissingFlags("update", "--id=N");
  if (args.adds.empty() && args.removes.empty()) {
    std::fprintf(stderr, "update: need --add=... and/or --remove=...\n");
    return 1;
  }
  return Mutate("update", args, [&](server::FailoverClient& client) {
    return client.UpdateDoc(args.id, args.adds, args.removes);
  });
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: kspin_cli "
      "<generate|build|stats|query|snapshot|restore|fetch|metrics|diag|"
      "health|promote|ping|search|reload|insert|delete|update> [--dir=DIR]\n"
      "  generate --dataset=DE|ME|FL|E|US\n"
      "  query --vertex=V --k=K --keywords=1,2,3 [--op=and|or]\n"
      "        [--module=ch|hl] [--ranked]\n"
      "  snapshot [--snapshots=DIR]   write a crash-safe snapshot\n"
      "  restore  [--snapshots=DIR] [--vertex=V --k=K --keywords=1,2]\n"
      "  fetch    --endpoints=H:P[,...] [--snapshots=DIR]   pull newest\n"
      "           snapshot from a running server\n"
      "  metrics  --endpoints=H:P[,...] [--watch] [--interval-ms=T]\n"
      "           scrape Prometheus text; --watch prints counter deltas\n"
      "           per interval (gauges raw)\n"
      "  diag     --endpoints=H:P[,...]   dump the flight recorder:\n"
      "           recent spans + control-plane events as JSON lines\n"
      "  health   --endpoints=H:P[,...]   one row per endpoint: role,\n"
      "           primary epoch, applied op-log sequence\n"
      "  promote  --endpoints=H:P[,...] [--min-applied=N]   flip the\n"
      "           FIRST endpoint to primary, bumping the epoch\n"
      "  ping     --endpoints=H:P[,...]   liveness probe\n"
      "  search   --endpoints=H:P[,...] --vertex=V --k=K --query=TEXT\n"
      "           [--ranked]   boolean kNN or ranked top-k\n"
      "  snapshot --endpoints=H:P[,...]   the server writes a snapshot now\n"
      "  reload   --endpoints=H:P[,...]   the server reloads its newest\n"
      "           valid snapshot\n"
      "  insert   --endpoints=H:P[,...] --vertex=V --name=NAME\n"
      "           [--tags=a,b,c]   durable insert (prints id + sequence)\n"
      "  delete   --endpoints=H:P[,...] --id=N   durable delete\n"
      "  update   --endpoints=H:P[,...] --id=N [--add=a,b] [--remove=c]\n"
      "           durable keyword update\n"
      "  ping, search, snapshot --endpoints, reload, insert, delete and\n"
      "  update take [--retries=N] [--fence-epoch=N]. Exit status: 0 ok,\n"
      "  2 rejected by the server, 1 usage or transport error.\n");
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  Args args;
  try {
    Parse(argc, argv, args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[1], e.what());
    Usage();
    return 1;
  }
  const std::map<std::string_view, int (*)(const Args&)> commands = {
      {"generate", Generate}, {"build", Build},     {"stats", Stats},
      {"query", Query},       {"snapshot", Snapshot}, {"restore", Restore},
      {"fetch", Fetch},       {"metrics", Metrics}, {"diag", Diag},
      {"health", Health},     {"promote", Promote}, {"ping", Ping},
      {"search", Search},     {"reload", Reload},   {"insert", Insert},
      {"delete", Delete},     {"update", Update},
  };
  const auto command = commands.find(args.command);
  if (command == commands.end()) {
    std::fprintf(stderr, "unknown command %s\n", args.command.c_str());
    Usage();
    return 1;
  }
  try {
    return command->second(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace
}  // namespace kspin::cli

int main(int argc, char** argv) { return kspin::cli::Main(argc, argv); }
