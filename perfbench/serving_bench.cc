// Serving benchmark for K-SPIN on the paper's E road network: hosts
// server::Server in-process over a PoiService, drives it over loopback
// from the same process, checks sampled answers against brute force, and
// prints every metric by name and unit. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   serving_bench --workload bknn_ch|topk_hl --seed N
//                 --seconds S --trace 0|1 [--oracle-delay-pct P]
//                 [--run-dir DIR] [--commit TEXT]
//
// --trace 0 reports the end-to-end metrics (tracing off). --trace 1 is a
// separate pass that reports per-layer metrics: timing decorators around
// the oracle, server trace lines and flight-recorder spans joined to
// client samples by trace id, and an in-process replay of the same
// queries for lower-bound and parse time. perfbench/README.md lists what
// each metric is and which end-to-end metric it should move.
#include <pthread.h>
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "answer_check.h"
#include "bench_common.h"
#include "loadgen.h"
#include "server/client.h"
#include "server/server.h"
#include "service/poi_service.h"
#include "service/query_parser.h"
#include "timed_modules.h"

namespace kspin::perfbench {
namespace {

namespace fs = std::filesystem;

// ----- Configuration ---------------------------------------------------------

constexpr char kDatasetName[] = "E";
constexpr std::uint32_t kK = 10;
constexpr unsigned kServerWorkers = 2;
constexpr std::uint32_t kNumLandmarks = 16;  // KSpinOptions default.
constexpr double kWarmupSeconds = 1.0;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kVerifyPerKind = 20;
constexpr double kWriteProbeRate = 175.0;  // Open-loop writes per second.
// Writes cycle through the keywords of these frequency ranks: popular
// enough to have Voronoi-backed APX-NVDs, sparse enough that a lazy insert
// stays around a millisecond with the CH oracle.
constexpr std::size_t kWriteKeywordRank = 48;
constexpr std::size_t kWriteKeywords = 24;
constexpr std::size_t kMaxWindows = 10;  // Percentile / rate windows.
constexpr std::size_t kFlightRecorderSlots = std::size_t{1} << 17;
// Admission bound well above any backlog a run can build. With the
// server's default of 256, a stall of the whole process for 50 ms during
// the 5000/s open loop (a preempted vCPU on a shared host) let the I/O
// thread read a burst larger than the queue, and the overflow came back
// OVERLOADED. Unbounded, such a stall is charged to latency instead, as
// timing from the scheduled send intends; the overload machinery is not
// what this benchmark measures.
constexpr std::size_t kQueueCapacity = std::size_t{1} << 20;

// An open-loop phase that sent its last request later than this share of
// its scheduled length did not deliver its offered rate: the run is invalid.
constexpr double kMaxFinalLagShare = 0.02;

// Shares of --seconds given to each measured phase.
constexpr double kOpenShare = 0.4;
constexpr double kClosedShare = 0.3;
constexpr double kProbeShare = 0.3;

struct WorkloadSpec {
  const char* name;
  bool hub_labels;      // Oracle: hub labels, else CH.
  bool ranked;          // Reads: ranked top-k, else disjunctive BkNN.
  double open_rate;     // Open-loop reads per second.
};

// Open-loop rates keep the two workers a fifth (bknn_ch) to a third
// (topk_hl) busy: far enough from saturation that no queue grows behind
// the costly queries, which would amplify every slowdown of the host.
constexpr WorkloadSpec kWorkloads[] = {
    {"bknn_ch", false, false, 600.0},
    {"topk_hl", true, true, 5000.0},
};

struct Args {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned oracle_delay_pct = 0;
  std::string run_dir = ".bench_run";
  std::string commit = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadSpec& spec : kWorkloads) {
        if (value == spec.name) args.workload = &spec;
      }
      if (args.workload == nullptr) {
        throw std::invalid_argument("unknown workload: " + value);
      }
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--oracle-delay-pct") {
      args.oracle_delay_pct = static_cast<unsigned>(std::stoul(value));
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (args.workload == nullptr) throw std::invalid_argument("--workload");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds");
  return args;
}

// ----- Environment -----------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

double RssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// CPUs this process may run on, as `nproc` counts them.
unsigned UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void PrintEnvironment(const Args& args) {
  utsname uts{};
  uname(&uts);
  std::printf("env cpu=\"%s\" kernel=%s nproc=%u compiler=\"%s (%s)\" "
              "build_type=%s commit=%s\n",
              CpuModel().c_str(), uts.release, UsableCpus(),
              PERFBENCH_COMPILER,
              __VERSION__, PERFBENCH_BUILD_TYPE, args.commit.c_str());
  std::printf("config workload=%s seed=%llu seconds=%.3f trace=%d "
              "dataset=%s k=%u workers=%u open_loop=%.0f/s on 1 pipelined "
              "connection closed_loop=%zu connections x %zu in flight "
              "oracle_delay_pct=%u\n",
              args.workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kDatasetName, kK, kServerWorkers,
              args.workload->open_rate, kClosedConnections, kClosedDepth,
              args.oracle_delay_pct);
}

/// Keeps every CPU from going idle during the read open loop. On a virtual
/// machine an idle vCPU halts, and waking it goes through the hypervisor,
/// whose delay depends on other tenants: it made read latency at low load
/// bimodal from run to run. One SCHED_IDLE thread per CPU spins instead.
/// The kernel counts a CPU running only such threads as idle, places
/// woken threads there and preempts the spinner at once. Closed loops
/// keep the CPUs busy themselves, and spinners cost them throughput; the
/// write probe's latency spread from run to run more with spinners than
/// without (perfbench/README.md), so it runs without them too.
class IdleSpinners {
 public:
  IdleSpinners() {
    for (unsigned i = 0; i < UsableCpus(); ++i) {
      threads_.emplace_back([this] {
        const sched_param param{};
        // Without the idle policy a spinner would compete for the CPU.
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() { stop_ = true; }  // Then threads_ joins.

  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::jthread> threads_;
};

// ----- Serving stack -----------------------------------------------------------

std::string KeywordName(KeywordId t) { return "kw" + std::to_string(t); }
std::string PoiName(ObjectId o) { return "poi" + std::to_string(o); }

/// Everything one set-up builds: dataset, oracle indexes, K-SPIN indexes,
/// the PoiService and a listening server.
struct Stack {
  bench::Dataset dataset;  // Its store has moved into the service.
  std::unique_ptr<ContractionHierarchy> ch;
  std::unique_ptr<HubLabeling> hl;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<TimedOracle> timed;  // Serving oracle when present.
  std::unique_ptr<PoiService> service;
  std::unique_ptr<server::Server> server;
  std::size_t num_original_objects = 0;
  std::size_t num_keywords = 0;
  int next_server = 0;

  DistanceOracle& ServingOracle() {
    return timed != nullptr ? *timed : *oracle;
  }
};

/// Starts a server over the stack's service with a fresh op-log
/// directory; `trace_path` non-empty turns on the server's trace lines.
void StartServer(Stack& stack, const fs::path& dir,
                 const std::string& trace_path) {
  if (stack.server != nullptr) stack.server->Stop();
  stack.server.reset();
  server::ServerOptions options;
  options.num_workers = kServerWorkers;
  options.queue_capacity = kQueueCapacity;
  options.oplog.dir =
      (dir / ("oplog-" + std::to_string(stack.next_server++))).string();
  fs::remove_all(options.oplog.dir);
  fs::create_directories(options.oplog.dir);
  options.trace_path = trace_path;
  if (!trace_path.empty()) {
    options.flight_recorder_capacity = kFlightRecorderSlots;
  }
  stack.server =
      std::make_unique<server::Server>(*stack.service, std::move(options));
  stack.server->Start();
}

/// Set-up, as timed by setup_s: dataset generation, CH (and hub labels),
/// ALT and keyword-index bulk builds, the service, until the server
/// listens.
std::unique_ptr<Stack> BuildStack(const Args& args, const fs::path& dir) {
  auto stack = std::make_unique<Stack>();
  stack->dataset = bench::Dataset::Load(kDatasetName);
  const Graph& graph = stack->dataset.graph;
  stack->ch = std::make_unique<ContractionHierarchy>(graph);
  if (args.workload->hub_labels) {
    stack->hl = std::make_unique<HubLabeling>(graph, *stack->ch);
    stack->oracle = std::make_unique<HubLabelOracle>(*stack->hl);
  } else {
    stack->oracle = std::make_unique<ChOracle>(*stack->ch);
  }
  if (args.trace || args.oracle_delay_pct > 0) {
    stack->timed = std::make_unique<TimedOracle>(*stack->oracle);
    stack->timed->SetDelayPercent(args.oracle_delay_pct);
    stack->timed->PrimeDefaultWorkspace();
  }

  DocumentStore& store = stack->dataset.store;
  auto alt = std::make_unique<AltIndex>(graph, kNumLandmarks);
  auto keyword_index = std::make_unique<KeywordIndex>(
      graph, store, *stack->dataset.inverted, KeywordIndexOptions{});
  Vocabulary vocabulary;
  stack->num_keywords = stack->dataset.spec.num_keywords;
  for (KeywordId t = 0; t < stack->num_keywords; ++t) {
    vocabulary.AddOrGet(KeywordName(t));
  }
  std::vector<std::string> names;
  for (ObjectId o = 0; o < store.NumSlots(); ++o) names.push_back(PoiName(o));
  stack->num_original_objects = store.NumSlots();
  // These reference the store that moves into the service below.
  stack->dataset.relevance.reset();
  stack->dataset.inverted.reset();
  stack->service = std::make_unique<PoiService>(
      graph, stack->ServingOracle(), std::move(vocabulary), std::move(names),
      std::move(store), std::move(alt), std::move(keyword_index));
  StartServer(*stack, dir, "");
  return stack;
}

// ----- Workload generation -----------------------------------------------------

struct QueryItem {
  VertexId vertex = 0;
  std::vector<KeywordId> keywords;  // Distinct.
  std::string text;                 // "kwA or kwB".
};

std::vector<QueryItem> MakeQueries(const Stack& stack, std::uint64_t seed) {
  const KSpin& engine = stack.service->Engine();
  WorkloadOptions options;
  options.vector_lengths = {2};
  options.num_seed_terms = 5;
  options.objects_per_term = 20;
  options.vertices_per_vector = 8;
  options.seed = seed;
  const QueryWorkload workload(engine.NetworkGraph(), engine.Store(),
                               engine.Inverted(), options);
  std::vector<QueryItem> items;
  for (const SpatialKeywordQuery& q : workload.QueriesForLength(2)) {
    QueryItem item;
    item.vertex = q.vertex;
    for (KeywordId t : q.keywords) {
      if (std::find(item.keywords.begin(), item.keywords.end(), t) ==
          item.keywords.end()) {
        item.keywords.push_back(t);
      }
    }
    for (KeywordId t : item.keywords) {
      item.text += (item.text.empty() ? "" : " or ") + KeywordName(t);
    }
    items.push_back(std::move(item));
  }
  if (items.empty()) throw std::runtime_error("empty query workload");
  std::mt19937_64 rng(seed);
  std::shuffle(items.begin(), items.end(), rng);
  return items;
}

Op ReadOp(const WorkloadSpec& spec, const QueryItem& item) {
  Op op;
  op.kind = spec.ranked ? OpKind::kRanked : OpKind::kBoolean;
  op.query = item.text;
  op.vertex = item.vertex;
  op.k = kK;
  return op;
}

/// Deterministic INSERT / UPDATE / DELETE stream. Keywords cycle through
/// a fixed band of the dataset's frequency ranking, the same for every
/// seed, so each run applies the same mix of cheap and expensive lazy NVD
/// inserts; the seed picks vertices and target objects. Updates and deletes target
/// distinct original objects, so every write validates.
class WriteStream {
 public:
  WriteStream(const Stack& stack, std::uint64_t seed)
      : store_(stack.service->Engine().Store()),
        num_vertices_(stack.service->Engine().NetworkGraph().NumVertices()),
        rng_(seed ^ 0x5eed5eedULL) {
    const InvertedIndex& inverted = stack.service->Engine().Inverted();
    std::vector<KeywordId> by_size(inverted.NumKeywords());
    std::iota(by_size.begin(), by_size.end(), KeywordId{0});
    std::stable_sort(by_size.begin(), by_size.end(),
                     [&inverted](KeywordId a, KeywordId b) {
                       return inverted.ListSize(a) > inverted.ListSize(b);
                     });
    keywords_.assign(by_size.begin() + kWriteKeywordRank,
                     by_size.begin() + kWriteKeywordRank + kWriteKeywords);
    for (ObjectId o = 0; o < stack.num_original_objects; ++o) {
      if (store_.IsLive(o)) targets_.push_back(o);
    }
    std::shuffle(targets_.begin(), targets_.end(), rng_);
  }

  Op Next() {
    Op op;
    switch (count_++ % 3) {
      case 0:
        op.kind = OpKind::kInsert;
        op.vertex = static_cast<VertexId>(rng_() % num_vertices_);
        op.name = "ins" + std::to_string(count_);
        op.add = {KeywordName(NextKeyword()), KeywordName(NextKeyword())};
        break;
      case 1: {
        op.kind = OpKind::kUpdate;
        op.object = NextTarget();
        for (std::size_t i = 0; i < keywords_.size(); ++i) {
          const KeywordId t = NextKeyword();
          if (!store_.Contains(op.object, t)) {
            op.add = {KeywordName(t)};
            break;
          }
        }
        const auto document = store_.Document(op.object);
        if (document.size() >= 2) {
          op.remove = {KeywordName(document.front().keyword)};
        }
        break;
      }
      default:
        op.kind = OpKind::kDelete;
        op.object = NextTarget();
        break;
    }
    return op;
  }

 private:
  KeywordId NextKeyword() {
    return keywords_[next_keyword_++ % keywords_.size()];
  }
  ObjectId NextTarget() {
    if (next_target_ >= targets_.size()) {
      throw std::runtime_error("write stream ran out of target objects");
    }
    return targets_[next_target_++];
  }

  const DocumentStore& store_;
  const std::size_t num_vertices_;
  std::mt19937_64 rng_;
  std::vector<KeywordId> keywords_;
  std::vector<ObjectId> targets_;
  std::size_t next_keyword_ = 0;
  std::size_t next_target_ = 0;
  std::size_t count_ = 0;
};

// ----- Statistics helpers ------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return *Percentile(std::move(values), 0.5, 0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median over kMaxWindows equal time windows of the phase of OK replies
/// per second.
double WindowedRate(const PhaseResult& phase) {
  std::uint64_t first = UINT64_MAX, last = 0;
  for (const Sample& s : phase.samples) {
    first = std::min(first, s.send_ns);
    last = std::max(last, s.done_ns);
  }
  if (last <= first) return 0.0;
  const double width = static_cast<double>(last - first) / kMaxWindows;
  std::vector<double> counts(kMaxWindows, 0.0);
  for (const Sample& s : phase.samples) {
    if (!s.ok) continue;
    const auto w = static_cast<std::size_t>(
        static_cast<double>(s.done_ns - first) / width);
    counts[std::min(w, kMaxWindows - 1)] += 1;
  }
  return Median(counts) / (width / 1e9);
}

std::vector<double> Latencies(const PhaseResult& phase, bool writes) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    if (s.ok && s.write == writes) out.push_back(s.LatencyUs());
  }
  return out;
}

/// The p-percentile of `values` (in time order) as the median of
/// per-window percentiles over up to kMaxWindows consecutive windows, each
/// holding at least 10 samples beyond its percentile, so one stall moves
/// one window's value rather than the result. Nullopt when the sample
/// cannot fill one window.
std::optional<double> WindowedPercentile(const std::vector<double>& values,
                                         double p) {
  const auto per_window = static_cast<std::size_t>(std::ceil(11 / (1 - p)));
  const std::size_t windows =
      std::min<std::size_t>(kMaxWindows, values.size() / per_window);
  if (windows == 0) return std::nullopt;
  std::vector<double> window_values;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(
                                            w * values.size() / windows);
    const auto end = values.begin() + static_cast<std::ptrdiff_t>(
                                          (w + 1) * values.size() / windows);
    window_values.push_back(*Percentile({begin, end}, p));
  }
  return Median(window_values);
}

void PrintTail(const char* what, const std::vector<double>& values) {
  std::printf("tail %s n=%zu", what, values.size());
  for (const double p : {0.90, 0.99}) {
    const std::optional<double> v = WindowedPercentile(values, p);
    if (v) std::printf(" p%.0f_us=%.1f", p * 100, *v);
  }
  std::printf("\n");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Adds WindowedPercentile(values, p) when the sample supports it and
  /// prints the sample count either way.
  void AddPercentile(const std::string& name, const std::vector<double>& values,
                     double p) {
    const std::optional<double> v = WindowedPercentile(values, p);
    std::printf("sample %s n=%zu %s\n", name.c_str(), values.size(),
                v ? "reported" : "omitted (too few samples)");
    if (v) Add(name, *v, "us");
  }

  void Print(bool correct, std::size_t attempted, std::size_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-42s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                     : 0.0,
                    metrics_[i].unit.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

/// Whether an open-loop phase kept to its schedule (kMaxFinalLagShare).
bool OnSchedule(const PhaseResult& phase, double rate_per_s) {
  const double scheduled_ms =
      static_cast<double>(phase.samples.size()) / rate_per_s * 1e3;
  return phase.final_lag_ms <= kMaxFinalLagShare * scheduled_ms;
}

void PrintPhase(const char* name, const PhaseResult& phase) {
  std::printf("phase %-12s requests=%zu ok=%zu failed=%zu elapsed=%.3fs "
              "rate=%.1f/s\n",
              name, phase.samples.size(), phase.Ok(), phase.Failed(),
              phase.elapsed_s,
              Ratio(static_cast<double>(phase.Ok()), phase.elapsed_s));
  if (phase.Failed() != 0) {
    std::fprintf(stderr, "serving_bench: phase %s: %zu of %zu failed: %s\n",
                 name, phase.Failed(), phase.samples.size(),
                 phase.FailureCauses().c_str());
  }
}

// ----- Trace analysis -----------------------------------------------------------

/// Raw token after "key": in a flat JSON object line (quotes stripped).
std::optional<std::string_view> Field(std::string_view line,
                                      std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t begin = at + needle.size();
  std::size_t end = line.find_first_of(",}", begin);
  if (end == std::string_view::npos) return std::nullopt;
  std::string_view token = line.substr(begin, end - begin);
  if (token.size() >= 2 && token.front() == '"') {
    token = token.substr(1, token.size() - 2);
  }
  return token;
}

std::uint64_t U64Field(std::string_view line, std::string_view key,
                       int base = 10) {
  const auto token = Field(line, key);
  std::uint64_t value = 0;
  if (token) std::from_chars(token->begin(), token->end(), value, base);
  return value;
}

/// One traced request: server trace line + flight-recorder span.
struct ServerSpan {
  bool has_line = false;
  bool has_record = false;
  // From the trace line.
  double latency_us = 0;  // Admission to response encoded.
  double queue_us = 0;
  QueryStats stats;
  // From the flight recorder.
  std::string opcode;
  double execute_us = 0;
  double reply_us = 0;
};

std::unordered_map<std::uint64_t, ServerSpan> LoadServerSpans(
    const std::string& trace_path,
    const std::vector<std::string>& recorder_dumps) {
  std::unordered_map<std::uint64_t, ServerSpan> spans;
  std::ifstream in(trace_path);
  std::string line;
  while (std::getline(in, line)) {
    const std::uint64_t id = U64Field(line, "trace_id", 16);
    if (id == 0) continue;
    ServerSpan& span = spans[id];
    span.has_line = true;
    span.latency_us = static_cast<double>(U64Field(line, "latency_us"));
    span.queue_us = static_cast<double>(U64Field(line, "queue_us"));
    QueryStats& s = span.stats;
    s.heap_build_ns = U64Field(line, "heap_build_ns");
    s.search_ns = U64Field(line, "search_ns");
    s.candidates_extracted = U64Field(line, "heap_pops");
    s.lower_bounds_computed = U64Field(line, "lower_bounds");
    s.lb_batch_calls = U64Field(line, "lb_batch_calls");
    s.lb_batch_items = U64Field(line, "lb_batch_items");
    s.network_distance_computations =
        U64Field(line, "distance_computations");
    s.false_positive_distances = U64Field(line, "false_positive_distances");
    s.heap_insertions = U64Field(line, "heap_insertions");
    s.results_returned = U64Field(line, "results");
  }
  // A span present in several dumps reads the same in each.
  for (const std::string& recorder_dump : recorder_dumps) {
    std::istringstream dump(recorder_dump);
    while (std::getline(dump, line)) {
      if (Field(line, "kind").value_or("") != "span") continue;
      const std::uint64_t id = U64Field(line, "trace_id", 16);
      if (id == 0) continue;
      ServerSpan& span = spans[id];
      span.has_record = true;
      span.opcode = std::string(Field(line, "opcode").value_or(""));
      span.execute_us = static_cast<double>(U64Field(line, "execute_us"));
      span.reply_us = static_cast<double>(U64Field(line, "reply_us"));
    }
  }
  return spans;
}

/// Writes the client spans of the traced run (one JSON line per request).
void WriteClientSpans(const fs::path& path,
                      const std::vector<std::pair<const char*,
                                                  const PhaseResult*>>& phases) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [name, phase] : phases) {
    for (const Sample& s : phase->samples) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"phase\":\"%s\",\"trace_id\":\"%016llx\","
                    "\"write\":%d,\"ok\":%d,\"scheduled_ns\":%llu,"
                    "\"send_ns\":%llu,\"done_ns\":%llu}\n",
                    name, static_cast<unsigned long long>(s.trace_id),
                    s.write ? 1 : 0, s.ok ? 1 : 0,
                    static_cast<unsigned long long>(s.scheduled_ns),
                    static_cast<unsigned long long>(s.send_ns),
                    static_cast<unsigned long long>(s.done_ns));
      out << buf;
    }
  }
}

// ----- In-process replay -----------------------------------------------------------

struct ReplayResult {
  double queries = 0;
  double plain_ns = 0;       // Undecorated processor, total.
  double timed_ns = 0;       // Decorated processor, total.
  double engine_ns = 0;      // heap_build_ns + search_ns (decorated).
  double oracle_ns = 0;      // Net of clock overhead.
  double oracle_calls = 0;
  double oracle_regions = 0;  // Timed oracle calls + source batches.
  double lb_ns = 0;           // Net of clock overhead.
  LowerBoundCounters lb;
  double parse_ns = 0;
  bool identical = true;     // Decorated answers == undecorated answers.
};

using AnyResults = std::pair<std::vector<BkNNResult>, std::vector<TopKResult>>;

bool SameResults(const AnyResults& a, const AnyResults& b) {
  if (a.first != b.first || a.second.size() != b.second.size()) return false;
  for (std::size_t i = 0; i < a.second.size(); ++i) {
    const TopKResult& x = a.second[i];
    const TopKResult& y = b.second[i];
    if (x.object != y.object || x.distance != y.distance ||
        x.score != y.score || x.relevance != y.relevance) {
      return false;
    }
  }
  return true;
}

/// Replays `queries` on processors built from the serving engine's
/// components: once undecorated, once over timed LB and oracle
/// decorators. Parse time comes from ParseBooleanQuery called directly.
ReplayResult Replay(Stack& stack, const WorkloadSpec& spec,
                    const std::vector<QueryItem>& queries,
                    unsigned oracle_delay_pct) {
  const KSpin& engine = stack.service->Engine();
  TimedOracle oracle(*stack.oracle);
  oracle.SetDelayPercent(oracle_delay_pct);
  TimedLowerBound lower_bounds(engine.LowerBounds());
  const auto make = [&](const LowerBoundModule& lb,
                        const DistanceOracle& distances) {
    return std::make_unique<QueryProcessor>(
        engine.Store(), engine.Inverted(), engine.Relevance(),
        engine.Keywords(), lb, distances);
  };
  auto plain = make(engine.LowerBounds(), *stack.oracle);
  auto timed = make(lower_bounds, oracle);

  const auto run = [&spec](QueryProcessor& processor, const QueryItem& q,
                           QueryStats* stats) {
    AnyResults out;
    if (spec.ranked) {
      out.second = processor.TopK(q.vertex, kK, q.keywords, stats);
    } else {
      const std::vector<std::vector<KeywordId>> clauses = {q.keywords};
      out.first = processor.BooleanKnnCnf(q.vertex, kK, clauses, stats);
    }
    return out;
  };

  ReplayResult r;
  r.queries = static_cast<double>(queries.size());
  std::vector<AnyResults> plain_results;
  for (const QueryItem& q : queries) run(*plain, q, nullptr);  // Warm.
  std::uint64_t start = NowNs();
  for (const QueryItem& q : queries) {
    plain_results.push_back(run(*plain, q, nullptr));
  }
  r.plain_ns = static_cast<double>(NowNs() - start);

  oracle.SetTiming(true);
  oracle.ResetCounters();
  QueryStats stats;
  start = NowNs();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!SameResults(run(*timed, queries[i], &stats), plain_results[i])) {
      r.identical = false;
    }
  }
  r.timed_ns = static_cast<double>(NowNs() - start);
  const double clock = static_cast<double>(ClockOverheadNs());
  const OracleCounters oc = oracle.Totals(OracleTraffic::kQuery);
  r.engine_ns = static_cast<double>(stats.heap_build_ns + stats.search_ns);
  r.oracle_calls = static_cast<double>(oc.calls);
  r.oracle_regions = static_cast<double>(oc.calls + oc.source_batches);
  r.oracle_ns = static_cast<double>(oc.ns + oc.source_batch_ns) -
                clock * r.oracle_regions;
  r.lb = lower_bounds.Counters();
  r.lb_ns = static_cast<double>(r.lb.ns) -
            clock * static_cast<double>(r.lb.Calls());

  ParseOptions parse_options;
  parse_options.allow_unknown_keywords = true;
  constexpr int kParseRounds = 5;
  start = NowNs();
  for (int round = 0; round < kParseRounds; ++round) {
    for (const QueryItem& q : queries) {
      const ParsedQuery parsed = ParseBooleanQuery(
          q.text, stack.service->Keywords(), parse_options);
      if (parsed.clauses.empty()) r.identical = false;
    }
  }
  r.parse_ns = static_cast<double>(NowNs() - start) / kParseRounds;
  return r;
}

// ----- Per-layer report ---------------------------------------------------------

/// Everything the traced run measured, for the per-layer metrics.
struct LayerInputs {
  const PhaseResult* open = nullptr;
  const PhaseResult* closed = nullptr;
  const PhaseResult* probe = nullptr;
  const PhaseResult* untraced_closed = nullptr;
  OracleCounters query_oracle;  // Server workers, over the open loop.
  OracleCounters write_oracle;  // ApxNvd inserts, over every phase.
  std::vector<std::string> recorder_dumps;  // After the open loop, at end.
  double oplog_appends = 0;
  double oplog_fsyncs = 0;
  std::unordered_map<std::uint64_t, ServerSpan> spans;
  ReplayResult replay;
};

/// Adds the per-layer metrics. Returns false unless every OK open-loop
/// read and every acknowledged write joined its server span, so that each
/// per-query row divides by the reads it covers.
bool ReportLayers(const LayerInputs& in, Report* report) {
  // Server spans of the traced open-loop reads, joined by trace id.
  std::vector<double> queue, reply, io, heap_build, search, execute,
      service_self;
  QueryStats engine;
  for (const Sample& s : in.open->samples) {
    if (!s.ok || s.write) continue;
    const auto it = in.spans.find(s.trace_id);
    if (it == in.spans.end() || !it->second.has_line ||
        !it->second.has_record) {
      continue;
    }
    const ServerSpan& span = it->second;
    engine += span.stats;
    const double engine_us =
        static_cast<double>(span.stats.heap_build_ns + span.stats.search_ns) /
        1e3;
    queue.push_back(span.queue_us);
    reply.push_back(span.reply_us);
    io.push_back(static_cast<double>(s.done_ns - s.send_ns) / 1e3 -
                 span.latency_us);
    heap_build.push_back(static_cast<double>(span.stats.heap_build_ns) / 1e3);
    search.push_back(static_cast<double>(span.stats.search_ns) / 1e3);
    execute.push_back(span.execute_us);
    service_self.push_back(span.execute_us - engine_us);
  }
  // Writes and open-loop send lag.
  std::vector<double> apply, lag;
  double writes_acked = 0;
  for (const PhaseResult* phase : {in.open, in.probe}) {
    for (const Sample& s : phase->samples) {
      lag.push_back(static_cast<double>(s.send_ns - s.scheduled_ns) / 1e3);
      if (!s.ok || !s.write) continue;
      ++writes_acked;
      const auto it = in.spans.find(s.trace_id);
      if (it != in.spans.end() && it->second.has_record) {
        apply.push_back(it->second.execute_us);
      }
    }
  }
  // Span rows divide by the joined reads, oracle counters (which cover
  // every open-loop read) by the OK reads; a complete join makes them equal.
  const double q = static_cast<double>(execute.size());
  const double reads_ok =
      static_cast<double>(Latencies(*in.open, false).size());
  const bool complete = q == reads_ok &&
                        static_cast<double>(apply.size()) == writes_acked;
  std::printf("trace joined_reads=%zu of %.0f OK open-loop reads, "
              "write_spans=%zu of %.0f acked writes%s\n",
              execute.size(), reads_ok, apply.size(), writes_acked,
              complete ? "" : " INCOMPLETE: spans missing");

  // Decorated time is reported net of the clock reads that measure it.
  const double clock = static_cast<double>(ClockOverheadNs());
  const OracleCounters& oc = in.query_oracle;
  const double oracle_ns =
      static_cast<double>(oc.ns + oc.source_batch_ns) -
      clock * static_cast<double>(oc.calls + oc.source_batches);
  const ReplayResult& rp = in.replay;
  const double oracle_ns_per_query = Ratio(oracle_ns, reads_ok);
  const double lb_ns_per_query = Ratio(rp.lb_ns, rp.queries);
  // Engine time minus its children, all from the same (replay) process;
  // each timed region adds its two clock reads to the engine's span.
  const double kspin_self_ns = Ratio(
      rp.engine_ns - rp.oracle_ns - rp.lb_ns -
          2 * clock *
              (rp.oracle_regions + static_cast<double>(rp.lb.Calls())),
      rp.queries);
  const double execute_ns = Mean(execute) * 1e3;
  const double service_self_ns = Mean(service_self) * 1e3;

  report->Add("routing.oracle.calls_per_query",
              Ratio(static_cast<double>(oc.calls), reads_ok), "count");
  report->Add("routing.oracle.ns_per_query", oracle_ns_per_query, "ns");
  report->Add("routing.oracle.ns_per_call",
              Ratio(oracle_ns, static_cast<double>(oc.calls)), "ns");
  report->Add("routing.oracle.source_batch_ns_per_query",
              Ratio(static_cast<double>(oc.source_batch_ns) -
                        clock * static_cast<double>(oc.source_batches),
                    reads_ok),
              "ns");
  report->Add("routing.oracle.false_positive_ratio",
              Ratio(static_cast<double>(engine.false_positive_distances),
                    static_cast<double>(engine.network_distance_computations)),
              "ratio");
  report->Add("routing.oracle.execute_share",
              Ratio(oracle_ns_per_query, execute_ns), "ratio");
  report->Add("routing.lb.evals_per_query",
              Ratio(static_cast<double>(rp.lb.Evaluations()), rp.queries),
              "count");
  report->Add("routing.lb.ns_per_query", lb_ns_per_query, "ns");
  report->Add("routing.lb.items_per_batch",
              Ratio(static_cast<double>(rp.lb.Evaluations()),
                    static_cast<double>(rp.lb.Calls())),
              "count");
  report->Add("kspin.kappa_per_query",
              Ratio(static_cast<double>(engine.candidates_extracted), q),
              "count");
  report->Add("kspin.heap_insertions_per_query",
              Ratio(static_cast<double>(engine.heap_insertions), q), "count");
  report->Add("kspin.heap_build_us_p50", Median(heap_build), "us");
  report->Add("kspin.search_us_p50", Median(search), "us");
  report->Add("kspin.self_ns_per_query", kspin_self_ns, "ns");
  report->Add("service.parse_ns_per_query", Ratio(rp.parse_ns, rp.queries),
              "ns");
  report->Add("service.self_us_p50", Median(service_self), "us");
  report->Add("server.queue_us_p50", Median(queue), "us");
  report->Add("server.queue_us_p99", Percentile(queue, 0.99).value_or(0.0),
              "us");
  // Spans carry whole microseconds and replies take a few, so the mean
  // resolves what a median of integers cannot.
  report->Add("server.reply_us_mean", Mean(reply), "us");
  report->Add("server.io_us_p50", Median(io), "us");
  report->Add("server.oplog.records_per_fsync",
              Ratio(in.oplog_appends, in.oplog_fsyncs), "count");
  report->Add("server.mutation.apply_us_p50", Median(apply), "us");
  report->Add("nvd.oracle_calls_per_write",
              Ratio(static_cast<double>(in.write_oracle.calls), writes_acked),
              "count");
  report->Add("loadgen.send_lag_p99_us", Percentile(lag, 0.99).value_or(0.0),
              "us");

  // Attribution check: layer self-times measured independently (server
  // spans, server-side oracle decorator, in-process replay) against the
  // server's measured execute time.
  const double layer_sum = service_self_ns + kspin_self_ns + lb_ns_per_query +
                           oracle_ns_per_query;
  const double untraced_qps = Ratio(
      static_cast<double>(in.untraced_closed->Ok()),
      in.untraced_closed->elapsed_s);
  const double traced_qps =
      Ratio(static_cast<double>(in.closed->Ok()), in.closed->elapsed_s);
  report->Add("trace.server_overhead", Ratio(untraced_qps, traced_qps) - 1.0,
              "ratio");
  report->Add("trace.replay_overhead", Ratio(rp.timed_ns, rp.plain_ns) - 1.0,
              "ratio");
  std::printf("attribution execute_ns=%.0f service_self_ns=%.0f "
              "kspin_self_ns=%.0f lb_ns=%.0f oracle_ns=%.0f "
              "sum/execute=%.3f (%s) oracle_share=%.3f\n",
              execute_ns, service_self_ns, kspin_self_ns, lb_ns_per_query,
              oracle_ns_per_query, Ratio(layer_sum, execute_ns),
              std::abs(Ratio(layer_sum, execute_ns) - 1.0) <= 0.15
                  ? "within 15%"
                  : "OFF by more than 15%",
              Ratio(oracle_ns_per_query, execute_ns));
  std::printf("replay per_query engine_ns=%.0f oracle_ns=%.0f lb_ns=%.0f "
              "calls=%.2f (server: engine_ns=%.0f calls=%.2f, engine-counted "
              "distances=%.2f) clock_overhead_ns=%.0f\n",
              Ratio(rp.engine_ns, rp.queries), Ratio(rp.oracle_ns, rp.queries),
              lb_ns_per_query, Ratio(rp.oracle_calls, rp.queries),
              Ratio(static_cast<double>(engine.heap_build_ns +
                                        engine.search_ns),
                    q),
              Ratio(static_cast<double>(oc.calls), reads_ok),
              Ratio(static_cast<double>(engine.network_distance_computations),
                    q),
              clock);
  std::printf("trace overhead: closed loop %.1f qps untraced vs %.1f qps "
              "traced; replay %.3f ms undecorated vs %.3f ms decorated\n",
              untraced_qps, traced_qps, rp.plain_ns / 1e6, rp.timed_ns / 1e6);
  return complete;
}

// ----- Verification ------------------------------------------------------------

/// Serves a fixed sample of BkNN and top-k queries through the server and
/// compares each answer with brute-force expansion over the store as it
/// stands now (after any writes). Returns the number of mismatches.
std::size_t VerifySample(Stack& stack, const std::vector<QueryItem>& queries) {
  const KSpin& engine = stack.service->Engine();
  NetworkExpansionBaseline brute(engine.NetworkGraph(), engine.Store(),
                                 engine.Inverted(), engine.Relevance());
  server::Client client;
  client.Connect("127.0.0.1", stack.server->Port());
  std::size_t mismatches = 0;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < kVerifyPerKind && i < queries.size(); ++i) {
    const QueryItem& q = queries[i];
    for (const bool ranked : {false, true}) {
      const server::Client::SearchReply reply =
          client.Search(q.text, q.vertex, kK, ranked);
      std::string why = reply.ok() ? CheckAnswer(brute, ranked, q.vertex, kK,
                                                 q.keywords, reply.results)
                                   : "status " + reply.error;
      ++checked;
      if (!why.empty()) {
        ++mismatches;
        std::printf("verify MISMATCH %s q=%u \"%s\": %s\n",
                    ranked ? "topk" : "bknn", q.vertex, q.text.c_str(),
                    why.c_str());
      }
    }
  }
  std::printf("verify checked=%zu mismatches=%zu (brute-force network "
              "expansion over the live store)\n",
              checked, mismatches);
  return mismatches;
}

// ----- Main ------------------------------------------------------------------------

struct Totals {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void Add(const PhaseResult& phase) {
    attempted += phase.samples.size();
    failed += phase.Failed();
  }
};

int Run(const Args& args) {
  const WorkloadSpec& spec = *args.workload;
  PrintEnvironment(args);
  const fs::path dir = fs::absolute(args.run_dir) /
                       (std::string(spec.name) + "-" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<double> setup_s;
  std::uint64_t start = NowNs();
  std::unique_ptr<Stack> stack = BuildStack(args, dir);
  setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  const double rss_mb = RssMb();
  std::printf("setup objects=%zu keywords=%zu oracle=%s setup_s=%.3f "
              "rss_mb=%.1f\n",
              stack->num_original_objects, stack->num_keywords,
              stack->oracle->Name().c_str(), setup_s.back(), rss_mb);

  // Inputs, all from --seed.
  const std::vector<QueryItem> queries = MakeQueries(*stack, args.seed);
  std::vector<Op> reads;
  for (const QueryItem& q : queries) reads.push_back(ReadOp(spec, q));
  WriteStream writes(*stack, args.seed);
  std::vector<Op> open_ops;
  const auto open_count = static_cast<std::size_t>(
      std::llround(spec.open_rate * args.seconds * kOpenShare));
  for (std::size_t i = 0; i < open_count; ++i) {
    open_ops.push_back(reads[i % reads.size()]);
  }
  // A fixed write count per --seconds, so two commits apply the same
  // number of never-maintained lazy inserts.
  std::vector<Op> probe_ops;
  const auto probe_count = static_cast<std::size_t>(
      std::llround(kWriteProbeRate * args.seconds * kProbeShare));
  for (std::size_t i = 0; i < probe_count; ++i) {
    probe_ops.push_back(writes.Next());
  }
  std::printf("inputs distinct_queries=%zu open_ops=%zu probe_writes=%zu\n",
              queries.size(), open_ops.size(), probe_ops.size());

  LoadTarget target;
  target.port = stack->server->Port();
  PrintPhase("warmup", RunClosedLoop(target, reads, kWarmupSeconds));

  Report report;
  Totals totals;
  bool correct = true;
  const auto incorrect = [&correct](const char* why) {
    correct = false;
    std::fprintf(stderr, "serving_bench: run not correct: %s\n", why);
  };
  PhaseResult untraced_closed;
  const fs::path trace_path = dir / "server_trace.jsonl";
  if (args.trace) {
    // Untraced reference for the tracing overhead, then a fresh server
    // with trace lines on and the decorator timing.
    untraced_closed =
        RunClosedLoop(target, reads, args.seconds * kClosedShare);
    PrintPhase("untraced", untraced_closed);
    StartServer(*stack, dir, trace_path.string());
    target.port = stack->server->Port();
    RunClosedLoop(target, reads, 0.3);  // Warms the new server's workers.
    stack->timed->SetTiming(true);
    stack->timed->ResetCounters();
    target.traced = true;
  }

  target.trace_base = std::uint64_t{1} << 40;
  const PhaseResult open = [&] {
    const IdleSpinners spinners;
    return RunOpenLoop(target, open_ops, spec.open_rate);
  }();
  PrintPhase("open", open);
  LayerInputs layers;
  if (args.trace) {
    // The replay runs now, on the state the open loop served, while the
    // server is idle.
    layers.query_oracle = stack->timed->Totals(OracleTraffic::kQuery);
    layers.replay = Replay(*stack, spec, queries, args.oracle_delay_pct);
    if (!layers.replay.identical) {
      incorrect("replay: decorated and undecorated answers differ");
    }
    // The open loop's spans, before later phases overwrite them in the
    // recorder's ring. Workers record a span just after replying; the
    // replay gave them time to record the last ones.
    layers.recorder_dumps.push_back(stack->server->Recorder().Dump());
  }
  target.trace_base = std::uint64_t{2} << 40;
  const PhaseResult closed =
      RunClosedLoop(target, reads, args.seconds * kClosedShare);
  PrintPhase("closed", closed);
  target.trace_base = std::uint64_t{3} << 40;
  const PhaseResult probe = RunOpenLoop(target, probe_ops, kWriteProbeRate);
  PrintPhase("write_probe", probe);
  totals.Add(open);
  totals.Add(closed);
  totals.Add(probe);
  const bool on_schedule = OnSchedule(open, spec.open_rate) &&
                           OnSchedule(probe, kWriteProbeRate);
  std::printf("loadgen open_final_lag_ms=%.3f probe_final_lag_ms=%.3f "
              "open_loop_valid=%s\n",
              open.final_lag_ms, probe.final_lag_ms,
              on_schedule ? "true"
                          : "false (generator fell behind its schedule)");
  // A failed request or an offered rate that was not delivered makes the
  // run incomparable, so it is not correct.
  if (!on_schedule) incorrect("open loop fell behind its schedule");
  if (totals.failed != 0) incorrect("requests failed");
  if (VerifySample(*stack, queries) != 0) {
    incorrect("served answers differ from brute force");
  }

  if (!args.trace) {
    report.Add("throughput_qps", WindowedRate(closed), "1/s");
    const std::vector<double> read_lat = Latencies(open, false);
    const std::vector<double> write_lat = Latencies(probe, true);
    report.AddPercentile("latency_p50_us", read_lat, 0.50);
    report.AddPercentile("write_p50_us", write_lat, 0.50);
    // Tails are printed, not reported: on a shared host their run-to-run
    // spread exceeds any bound the benchmark may set (README.md).
    PrintTail("latency", read_lat);
    PrintTail("write", write_lat);
    report.Add("ok_ratio",
               Ratio(static_cast<double>(totals.attempted - totals.failed),
                     static_cast<double>(totals.attempted)),
               "ratio");
    report.Add("rss_mb", rss_mb, "MB");
    // Further set-ups after the measurement, so they cannot disturb it;
    // setup_s is their median.
    stack.reset();
    for (int i = 1; i < kSetupRepeats; ++i) {
      start = NowNs();
      BuildStack(args, dir);
      setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    for (double s : setup_s) std::printf("setup_run_s %.4f\n", s);
    report.Add("setup_s", Median(setup_s), "s");
    fs::remove_all(dir);
  } else {
    layers.open = &open;
    layers.closed = &closed;
    layers.probe = &probe;
    layers.untraced_closed = &untraced_closed;
    layers.write_oracle = stack->timed->Totals(OracleTraffic::kWrite);
    const server::ServerMetrics& metrics = stack->server->Metrics();
    layers.oplog_fsyncs =
        static_cast<double>(metrics.oplog_fsync_batches.load());
    layers.oplog_appends = static_cast<double>(metrics.oplog_appends.load());
    layers.recorder_dumps.push_back(stack->server->Recorder().Dump());
    stack->server->Stop();
    std::ofstream(dir / "recorder_after_open.jsonl", std::ios::trunc)
        << layers.recorder_dumps[0];
    std::ofstream(dir / "recorder_at_end.jsonl", std::ios::trunc)
        << layers.recorder_dumps[1];
    layers.spans = LoadServerSpans(trace_path.string(), layers.recorder_dumps);
    WriteClientSpans(dir / "client_spans.jsonl",
                     {{"open", &open}, {"closed", &closed}, {"probe", &probe}});
    if (!ReportLayers(layers, &report)) {
      incorrect("server spans missing for served requests");
    }
    // Keep the span files of the latest traced run; op logs are scratch.
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_directory()) fs::remove_all(entry.path());
    }
    const fs::path kept = fs::absolute(args.run_dir) /
                          (std::string(spec.name) + "-traced");
    fs::remove_all(kept);
    fs::rename(dir, kept);
    std::printf("spans written to %s\n", kept.string().c_str());
  }
  report.Print(correct, totals.attempted, totals.failed);
  return 0;
}

}  // namespace
}  // namespace kspin::perfbench

int main(int argc, char** argv) {
  try {
    return kspin::perfbench::Run(kspin::perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_bench: %s\n", e.what());
    return 2;
  }
}
