// Load harness for a running kspin_server (optionally behind
// chaos_proxy): drives alternating traffic phases against a live
// endpoint and reports tail latency from the server's own METRICS
// histograms, so the numbers include queueing the client never sees.
//
//   load_harness --port=P [--host=H] [--threads=N] [--seconds=S]
//                [--burst-qps=Q] [--burst-seconds=S] [--cycles=N]
//                [--keywords=N] [--vertices=N] [--zipf=S] [--seed=S]
//                [--k=K] [--deadline-ms=D]
//
// Each cycle is two phases:
//
//  - closed loop: `--threads` connections issue back-to-back searches
//    (offered load = service rate; the classic closed-loop probe of
//    sustainable throughput);
//  - open-loop burst: the same threads pace requests to an aggregate
//    `--burst-qps` regardless of completions (arrivals don't slow down
//    when the server does — the regime that actually overloads it).
//    --burst-qps=0 skips the burst phase.
//
// Queries sample keywords Zipf(--zipf): the synthetic catalogue names
// keywords kw0..kwN-1 in rank order (keyword popularity is Zipfian in
// the id, matching text/zipf_generator), so rank r maps to "kw<r-1>".
// Vertices are uniform over [0, --vertices). Defaults match the
// kspin_server synthetic world (40x40 grid = 1600 vertices, 40
// keywords).
//
// After every phase the harness prints the phase's offered/observed
// rates, the client-side reply mix (ok / overloaded / deadline /
// degraded), and the server-side query-latency p50/p99/p999 of the
// kspin_query_latency_us histogram between two METRICS scrapes that
// bracket the phase. Each percentile is the `le` bound of the bucket
// holding its nearest-rank sample (log2 buckets today: at most 2x off).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/metrics.h"
#include "server/wire.h"

namespace kspin::tools {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int threads = 4;
  double seconds = 2.0;        ///< Closed-loop phase length.
  double burst_qps = 0.0;      ///< Aggregate open-loop rate; 0 = skip.
  double burst_seconds = 2.0;  ///< Open-loop phase length.
  int cycles = 1;
  std::uint32_t keywords = 40;
  std::uint32_t vertices = 1600;
  double zipf = 0.8;
  std::uint64_t seed = 42;
  std::uint32_t k = 10;
  std::uint32_t deadline_ms = 0;
};

std::optional<Args> Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const std::string& name) ->
        std::optional<std::string> {
      const std::string prefix = "--" + name + "=";
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return arg.substr(prefix.size());
    };
    if (auto v = value("host")) {
      args.host = *v;
    } else if (auto v = value("port")) {
      args.port = static_cast<std::uint16_t>(std::stoul(*v));
    } else if (auto v = value("threads")) {
      args.threads = std::stoi(*v);
    } else if (auto v = value("seconds")) {
      args.seconds = std::stod(*v);
    } else if (auto v = value("burst-qps")) {
      args.burst_qps = std::stod(*v);
    } else if (auto v = value("burst-seconds")) {
      args.burst_seconds = std::stod(*v);
    } else if (auto v = value("cycles")) {
      args.cycles = std::stoi(*v);
    } else if (auto v = value("keywords")) {
      args.keywords = static_cast<std::uint32_t>(std::stoul(*v));
    } else if (auto v = value("vertices")) {
      args.vertices = static_cast<std::uint32_t>(std::stoul(*v));
    } else if (auto v = value("zipf")) {
      args.zipf = std::stod(*v);
    } else if (auto v = value("seed")) {
      args.seed = std::stoull(*v);
    } else if (auto v = value("k")) {
      args.k = static_cast<std::uint32_t>(std::stoul(*v));
    } else if (auto v = value("deadline-ms")) {
      args.deadline_ms = static_cast<std::uint32_t>(std::stoul(*v));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (args.port == 0 || args.threads <= 0 || args.keywords == 0 ||
      args.vertices == 0) {
    return std::nullopt;
  }
  return args;
}

/// Zipf(s) sampler over ranks 1..n via the precomputed CDF: rank r has
/// weight 1/r^s. Rank r maps to the catalogue keyword "kw<r-1>".
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::uint32_t r = 1; r <= n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), s);
      cdf_[r - 1] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::uint32_t Sample(std::mt19937_64& rng) const {
    const double u =
        std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Per-phase client-side tallies, merged across threads.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline = 0;
  std::uint64_t errors = 0;   ///< Transport failures.
  std::uint64_t degraded = 0; ///< OK replies flagged DEGRADED.

  void Add(const Tally& other) {
    sent += other.sent;
    ok += other.ok;
    overloaded += other.overloaded;
    deadline += other.deadline;
    errors += other.errors;
    degraded += other.degraded;
  }
};

/// One traffic phase. `qps` 0 = closed loop; otherwise the aggregate
/// open-loop rate is split evenly across threads, each pacing arrivals
/// on its own schedule (sends are not gated on replies having arrived,
/// beyond the blocking client's one-in-flight limit per connection).
Tally RunPhase(const Args& args, double seconds, double qps) {
  std::vector<Tally> tallies(static_cast<std::size_t>(args.threads));
  std::vector<std::thread> threads;
  const Clock::time_point phase_end =
      Clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  for (int t = 0; t < args.threads; ++t) {
    threads.emplace_back([&, t] {
      Tally& tally = tallies[static_cast<std::size_t>(t)];
      std::mt19937_64 rng(args.seed + static_cast<std::uint64_t>(t));
      const ZipfSampler zipf(args.keywords, args.zipf);
      std::uniform_int_distribution<std::uint32_t> vertex(
          0, args.vertices - 1);
      server::Client client;
      try {
        client.Connect(args.host, args.port);
      } catch (const server::ClientError&) {
        ++tally.errors;
        return;
      }
      const double thread_qps = qps / args.threads;
      const auto interval =
          qps > 0.0 ? std::chrono::microseconds(static_cast<std::int64_t>(
                          1e6 / thread_qps))
                    : std::chrono::microseconds(0);
      Clock::time_point next_send = Clock::now();
      while (Clock::now() < phase_end) {
        if (qps > 0.0) {
          // Open loop: send on schedule; never let a slow server slow
          // the arrival process (skip sleeping when behind schedule).
          const Clock::time_point now = Clock::now();
          if (now < next_send) std::this_thread::sleep_until(next_send);
          next_send += interval;
        }
        const std::uint32_t first = zipf.Sample(rng);
        std::uint32_t second = zipf.Sample(rng);
        std::string query = "kw" + std::to_string(first);
        if (second != first) {
          query += " or kw" + std::to_string(second);
        }
        ++tally.sent;
        try {
          const auto reply = client.Search(query, vertex(rng), args.k,
                                           /*ranked=*/false,
                                           args.deadline_ms);
          if (reply.ok()) {
            ++tally.ok;
            if (reply.degraded) ++tally.degraded;
          } else if (reply.status == server::StatusCode::kOverloaded) {
            ++tally.overloaded;
          } else if (reply.status ==
                     server::StatusCode::kDeadlineExceeded) {
            ++tally.deadline;
          } else {
            ++tally.errors;
          }
        } catch (const server::ClientError&) {
          ++tally.errors;
          try {
            client.Close();
            client.Connect(args.host, args.port);
          } catch (const server::ClientError&) {
            return;  // Endpoint gone; stop this thread.
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  Tally total;
  for (const Tally& t : tallies) total.Add(t);
  return total;
}

/// One METRICS scrape of `probe`, parsed; nullopt (reported) on failure.
std::optional<server::ParsedMetrics> Scrape(server::Client& probe) {
  const auto reply = probe.Metrics();
  if (!reply.ok()) {
    std::fprintf(stderr, "METRICS failed: %s\n", reply.error.c_str());
    return std::nullopt;
  }
  return server::ParseMetricsText(reply.text);
}

int Main(int argc, char** argv) {
  const auto args = Parse(argc, argv);
  if (!args) {
    std::fprintf(
        stderr,
        "usage: load_harness --port=P [--host=H] [--threads=N] "
        "[--seconds=S] [--burst-qps=Q] [--burst-seconds=S] [--cycles=N] "
        "[--keywords=N] [--vertices=N] [--zipf=S] [--seed=S] [--k=K] "
        "[--deadline-ms=D]\n");
    return 2;
  }

  server::Client probe;
  try {
    probe.Connect(args->host, args->port);
  } catch (const server::ClientError& e) {
    std::fprintf(stderr, "connect %s:%u failed: %s\n", args->host.c_str(),
                 args->port, e.what());
    return 1;
  }

  std::printf(
      "# load_harness: %s:%u, %d threads, zipf(%.2f) over %u keywords\n",
      args->host.c_str(), args->port, args->threads, args->zipf,
      args->keywords);
  std::printf(
      "phase\toffered_qps\tdone_qps\tok\tovld\tdead\tdeg\terr\t"
      "p50_us\tp99_us\tp999_us\n");

  int failures = 0;
  for (int cycle = 0; cycle < args->cycles; ++cycle) {
    struct Phase {
      const char* name;
      double seconds;
      double qps;
    };
    std::vector<Phase> phases;
    phases.push_back({"closed", args->seconds, 0.0});
    if (args->burst_qps > 0.0) {
      phases.push_back({"burst", args->burst_seconds, args->burst_qps});
    }
    for (const Phase& phase : phases) {
      const auto before = Scrape(probe);
      if (!before) return 1;
      const Clock::time_point start = Clock::now();
      const Tally tally = RunPhase(*args, phase.seconds, phase.qps);
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      const auto after = Scrape(probe);
      if (!after) return 1;

      // Server-side latency for just this phase: the histogram delta.
      const server::ParsedHistogram latency =
          after->histograms.at("kspin_query_latency_us")
              .Since(before->histograms.at("kspin_query_latency_us"));
      if (tally.ok == 0) ++failures;
      const double done_qps =
          static_cast<double>(tally.sent) / std::max(elapsed, 1e-9);
      std::printf(
          "%s\t%.0f\t%.0f\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t"
          "%llu\n",
          phase.name, phase.qps, done_qps,
          static_cast<unsigned long long>(tally.ok),
          static_cast<unsigned long long>(tally.overloaded),
          static_cast<unsigned long long>(tally.deadline),
          static_cast<unsigned long long>(tally.degraded),
          static_cast<unsigned long long>(tally.errors),
          static_cast<unsigned long long>(latency.Percentile(0.50)),
          static_cast<unsigned long long>(latency.Percentile(0.99)),
          static_cast<unsigned long long>(latency.Percentile(0.999)));
    }
  }

  // Final server-side counters an operator would look at after a drill.
  if (const auto metrics = Scrape(probe)) {
    std::printf("# server:");
    for (const char* key :
         {"requests_ok", "requests_overloaded", "requests_rate_limited",
          "requests_codel_shed", "requests_deadline_rejected",
          "requests_degraded", "brownout_entries", "brownout_seconds",
          "overload_state", "admission_limit"}) {
      std::printf(" %s=%llu", key,
                  static_cast<unsigned long long>(
                      metrics->Value("kspin_" + std::string(key))));
    }
    std::printf("\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kspin::tools

int main(int argc, char** argv) {
  try {
    return kspin::tools::Main(argc, argv);
  } catch (const std::exception& e) {  // Transport or malformed METRICS.
    std::fprintf(stderr, "load_harness: %s\n", e.what());
    return 1;
  }
}
