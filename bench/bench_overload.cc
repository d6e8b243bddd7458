// Overload-resilience drill: an in-process kspin_server with the full
// overload stack enabled (EDF admission, AIMD limit, CoDel shedding,
// brownout), driven well past capacity, then allowed to recover.
//
//   bench_overload [--quick]
//
// Three phases:
//
//  1. calibrate — closed-loop clients measure sustainable capacity C;
//  2. overload  — open-loop arrivals at 2xC with a per-request deadline:
//     the server must shed enough that what it DOES admit finishes
//     within the SLO, and must never serve a request past its deadline;
//  3. recover   — offered load drops to C/4; brownout must exit and the
//     admission limit climb back.
//
// Checks printed at the end (process exits nonzero on failure):
//  - p99 of admitted requests during steady-state overload within the
//    SLO (2x slack: AIMD oscillates around the SLO boundary by design);
//  - zero requests served after their deadline (10 ms grace for reply
//    flush + clock skew between the two measurement points);
//  - brownout entered during overload and exited after recovery, both
//    visible in the Prometheus METRICS text.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "graph/road_network_generator.h"
#include "routing/contraction_hierarchy.h"
#include "server/client.h"
#include "server/metrics.h"
#include "server/server.h"
#include "service/poi_service.h"
#include "service/synthetic_catalog.h"

namespace kspin::bench {
namespace {

using Clock = std::chrono::steady_clock;

// A full queue (64 requests x 2 ms / 2 workers = 64 ms sojourn) clearly
// violates this SLO, so sustained saturation forces the controller's
// hand; the AIMD limiter then converges the backlog onto roughly the
// SLO's worth of work.
constexpr std::uint32_t kSloMs = 20;
constexpr std::uint32_t kDeadlineMs = 150;
constexpr std::uint64_t kLateGraceMs = 10;

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;      ///< OVERLOADED replies (any flavour).
  std::uint64_t deadline = 0;  ///< DEADLINE_EXCEEDED replies.
  std::uint64_t degraded = 0;  ///< OK replies flagged DEGRADED.
  std::uint64_t late = 0;      ///< OK replies past deadline + grace.
  std::vector<std::uint64_t> ok_latencies_us;
};

/// The nearest-rank p-quantile of `values` (0 when empty).
std::uint64_t Percentile(std::vector<std::uint64_t>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[server::NearestRank(p, values.size()) - 1];
}

/// Runs `threads` clients for `seconds`. `qps` 0 = closed loop;
/// otherwise open loop at that aggregate rate (arrivals keep their
/// schedule however slowly the server answers). `deadline_ms` rides on
/// every request when nonzero.
PhaseResult RunPhase(server::Server& server, int threads, double seconds,
                     double qps, std::uint32_t deadline_ms,
                     std::size_t num_vertices) {
  std::vector<PhaseResult> locals(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  const Clock::time_point phase_end =
      Clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      PhaseResult& local = locals[static_cast<std::size_t>(t)];
      server::Client client;
      client.Connect("127.0.0.1", server.Port());
      const auto interval =
          qps > 0.0 ? std::chrono::microseconds(static_cast<std::int64_t>(
                          1e6 * threads / qps))
                    : std::chrono::microseconds(0);
      Clock::time_point next_send = Clock::now();
      std::size_t i = static_cast<std::size_t>(t);
      while (Clock::now() < phase_end) {
        if (qps > 0.0) {
          const Clock::time_point now = Clock::now();
          if (now < next_send) std::this_thread::sleep_until(next_send);
          next_send += interval;
        }
        const std::string query = "kw" + std::to_string(i++ % 8);
        const VertexId from =
            static_cast<VertexId>((i * 2654435761u) % num_vertices);
        ++local.sent;
        const Clock::time_point begin = Clock::now();
        const auto reply =
            client.Search(query, from, 10, false, deadline_ms);
        const auto elapsed_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - begin)
                .count());
        if (reply.ok()) {
          ++local.ok;
          if (reply.degraded) ++local.degraded;
          local.ok_latencies_us.push_back(elapsed_us);
          if (deadline_ms > 0 &&
              elapsed_us > (deadline_ms + kLateGraceMs) * 1000) {
            ++local.late;
          }
        } else if (reply.status == server::StatusCode::kOverloaded) {
          ++local.shed;
        } else if (reply.status ==
                   server::StatusCode::kDeadlineExceeded) {
          ++local.deadline;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  PhaseResult total;
  for (PhaseResult& local : locals) {
    total.sent += local.sent;
    total.ok += local.ok;
    total.shed += local.shed;
    total.deadline += local.deadline;
    total.degraded += local.degraded;
    total.late += local.late;
    total.ok_latencies_us.insert(total.ok_latencies_us.end(),
                                 local.ok_latencies_us.begin(),
                                 local.ok_latencies_us.end());
  }
  return total;
}

int Main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  RoadNetworkOptions road;
  road.grid_width = 30;
  road.grid_height = 30;
  road.seed = 5;
  const Graph graph = GenerateRoadNetwork(road);
  ContractionHierarchy ch(graph);
  ChOracle oracle(ch);
  PoiService service(graph, oracle);
  SyntheticCatalogOptions catalog;
  catalog.num_pois = 500;
  catalog.num_keywords = 20;
  PopulateSyntheticCatalog(service, graph, catalog);

  server::ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  // Pin a 2 ms floor on per-request service time: the synthetic queries
  // alone are so cheap (~0.1 ms) that no client count overloads the
  // server, and capacity would vary wildly across machines. With the
  // floor, capacity is ~2 workers / 2 ms = ~1000 qps everywhere, so "2x
  // capacity" genuinely saturates.
  options.test_dequeue_delay_ms = 2;
  options.overload.latency_slo_ms = kSloMs;
  options.overload.tick_interval_ms = 20;
  options.overload.codel_target_ms = 10;
  options.overload.brownout_enter_ticks = 2;
  options.overload.brownout_exit_ticks = 5;
  options.overload.brownout_max_k = 5;
  server::Server server(service, options);
  server.Start();
  server::Client probe;
  probe.Connect("127.0.0.1", server.Port());
  const auto scrape = [&probe] {
    return server::ParseMetricsText(probe.Metrics().text);
  };

  const std::size_t num_vertices = graph.NumVertices();
  const int threads = 8;
  const double calibrate_s = quick ? 0.5 : 2.0;
  const double overload_s = quick ? 2.0 : 5.0;
  const double recover_s = quick ? 2.0 : 5.0;

  std::printf("# bench_overload: SLO p99 <= %u ms, deadline %u ms, "
              "workers=2, queue=64\n",
              kSloMs, kDeadlineMs);
  std::printf(
      "phase\toffered_qps\tok\tshed\tdead\tdeg\tlate\tp99_ms\tstate\n");
  const auto report = [&](const char* name, double qps,
                          PhaseResult& result) -> std::uint64_t {
    const std::uint64_t p99_us = Percentile(result.ok_latencies_us, 0.99);
    std::printf("%s\t%.0f\t%llu\t%llu\t%llu\t%llu\t%llu\t%.1f\t%llu\n",
                name, qps, static_cast<unsigned long long>(result.ok),
                static_cast<unsigned long long>(result.shed),
                static_cast<unsigned long long>(result.deadline),
                static_cast<unsigned long long>(result.degraded),
                static_cast<unsigned long long>(result.late),
                static_cast<double>(p99_us) / 1000.0,
                static_cast<unsigned long long>(
                    scrape().Value("kspin_overload_state")));
    return p99_us;
  };

  // Phase 1: closed-loop capacity estimate.
  PhaseResult calibrate = RunPhase(server, threads, calibrate_s, 0.0,
                                   /*deadline_ms=*/0, num_vertices);
  const double capacity_qps =
      static_cast<double>(calibrate.ok) / calibrate_s;
  report("calibrate", capacity_qps, calibrate);

  // Phase 2: 2x capacity, every request deadlined. The blocking client
  // caps each connection at one request in flight, so offering 2x the
  // closed-loop rate takes a deep pool of connections (64) — pacing
  // alone cannot outrun a saturated server from 8 sockets. The first
  // half-second is an unmeasured ramp: it spans the window where the
  // controller is still discovering the overload (queue filling, AIMD
  // still clamping), which is warm-up, not steady state.
  const int burst_threads = 64;
  PhaseResult ramp = RunPhase(server, burst_threads, 0.5,
                              2.0 * capacity_qps, kDeadlineMs,
                              num_vertices);
  PhaseResult overload =
      RunPhase(server, burst_threads, overload_s, 2.0 * capacity_qps,
               kDeadlineMs, num_vertices);
  const std::uint64_t overload_p99_us =
      report("overload", 2.0 * capacity_qps, overload);
  overload.shed += ramp.shed;
  overload.deadline += ramp.deadline;
  overload.late += ramp.late;
  const std::uint64_t entries_mid =
      scrape().Value("kspin_brownout_entries");

  // Phase 3: recovery at a fraction of capacity.
  PhaseResult recover =
      RunPhase(server, threads, recover_s,
               std::max(1.0, capacity_qps / 4.0), kDeadlineMs,
               num_vertices);
  // Give the controller a few idle ticks to finish exiting brownout.
  for (int i = 0; i < 50; ++i) {
    if (scrape().Value("kspin_overload_state") == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    probe.Ping();  // Wake the I/O loop so ticks keep firing.
  }
  report("recover", capacity_qps / 4.0, recover);
  const server::ParsedMetrics end_metrics = scrape();

  // ----- Checks --------------------------------------------------------
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("check: %s: %s\n", what, ok ? "PASS" : "FAIL");
    if (!ok) ++failures;
  };
  check(overload.ok > 0, "overload phase admitted some requests");
  // AIMD deliberately oscillates around the SLO boundary (probe up,
  // clamp down), so steady-state p99 sits near the SLO with overshoot
  // on the probing ticks; 2x bounds that overshoot.
  check(overload_p99_us <= 2 * kSloMs * 1000,
        "p99 of admitted requests within SLO at 2x capacity");
  check(overload.late == 0 && recover.late == 0,
        "zero requests served after their deadline");
  check(overload.shed + overload.deadline > 0,
        "overload phase shed the excess");
  check(end_metrics.Value("kspin_brownout_entries") >= 1 && entries_mid >= 1,
        "brownout entry visible in METRICS");
  check(end_metrics.Value("kspin_overload_state") == 0,
        "brownout exit (overload_state back to 0) visible in METRICS");

  server.Stop();
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kspin::bench

int main(int argc, char** argv) { return kspin::bench::Main(argc, argv); }
