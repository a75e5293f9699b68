// Thousand-client open-loop scale sweep: does the simulator hold a
// thousand-client open-loop population, and how much simulated load does it
// push per second of host wall-clock?
//
// Each sweep point replays one seeded open-loop arrival schedule (Poisson
// arrivals, 4-tenant mix, ephemeral 4-op sessions) on Direct-pNFS.  The
// figure of merit is simulated client-seconds per wall-second: the integral
// of in-flight sessions over simulated time, divided by the host time the
// run took.  Offered-vs-delivered sojourn percentiles (scheduled arrival to
// completion, so backlog shows up as latency) are recorded alongside.
//
// Contracts checked, not just measured:
//   1. Determinism: every point runs twice, and the two runs must agree bit
//      for bit on sessions, ops, bytes, peak concurrency, simulated time,
//      client-seconds, the sojourn digest and the event count.
//   2. Sustained concurrency: a point of >= 1000 clients must hold >= 1000
//      sessions in flight at its peak.
//
// Wall-clock figures (rate, events per wall-second) follow the host's load,
// so they are recorded with the host mark, not gated; each is taken from the
// faster of the point's two runs.  The simulated figures (sojourn
// percentiles, peak concurrency) are gated exactly against the committed
// baseline (tools/check_bench_delta.py).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "workload/openloop.hpp"

using namespace dpnfs;
using namespace dpnfs::bench;

namespace {

struct Point {
  uint32_t target_concurrency;  // sweep label (and the sustained-load bar)
  uint32_t client_nodes;
  uint32_t storage_nodes;
  double rate_per_sec;      // offered session arrival rate
  double duration_seconds;  // arrival window
};

struct PointResult {
  workload::OpenLoopResult ol;
  double wall_seconds = 0;
  uint64_t events = 0;
};

PointResult run_point(const Point& pt) {
  core::ClusterConfig cfg =
      paper_config(core::Architecture::kDirectPnfs, pt.client_nodes);
  cfg.storage_nodes = pt.storage_nodes;
  cfg.tenants = 4;
  // Production sampled tracing (bench_obs_overhead's recommended mode), not
  // the retain-everything default: at thousands of sessions full span
  // retention spends a quarter of the wall on evictions.
  cfg.trace_sample_rate = 0.01;
  cfg.trace_slo_threshold = sim::ms(500);

  workload::OpenLoopConfig ol;
  ol.rate_per_sec = pt.rate_per_sec;
  ol.duration = sim::Duration(static_cast<int64_t>(pt.duration_seconds * 1e9));
  ol.tenant_weights = {4, 3, 2, 1};
  ol.ops_per_session = 4;
  ol.bytes_per_op = 256 * 1024;
  ol.read_fraction = 0.5;
  ol.file_bytes = 16ull << 20;

  core::Deployment d(cfg);
  PointResult r;
  const auto t0 = std::chrono::steady_clock::now();
  r.ol = workload::run_open_loop(d, ol);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events = d.simulation().events_processed();
  return r;
}

bool same_sim_result(const PointResult& a, const PointResult& b) {
  const auto& x = a.ol;
  const auto& y = b.ol;
  return x.sessions == y.sessions && x.ops == y.ops &&
         x.app_bytes == y.app_bytes && x.peak_concurrency == y.peak_concurrency &&
         x.elapsed_seconds == y.elapsed_seconds &&
         x.client_seconds == y.client_seconds &&
         x.sojourn_seconds.count() == y.sojourn_seconds.count() &&
         x.sojourn_seconds.sum() == y.sojourn_seconds.sum() &&
         x.sojourn_seconds.p50() == y.sojourn_seconds.p50() &&
         x.sojourn_seconds.p99() == y.sojourn_seconds.p99() &&
         a.events == b.events;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = flag_present(argc, argv, "--smoke") ||
                     flag_present(argc, argv, "--quick");
  BenchRecorder rec("scale", arg_value(argc, argv, "--out-dir", ""));

  // The offered rates saturate the cluster so backlog (and thus in-flight
  // sessions) climbs through the window — that is what an open-loop
  // thousand-client population does to a file system that cannot keep up.
  std::vector<Point> points = {
      {100, 8, 6, 1500, 1.0},
      {1000, 16, 16, 4000, 2.0},
  };
  if (!smoke) points.push_back({4000, 32, 32, 12000, 3.0});

  bool ok = true;
  std::vector<Series> series = {{"rate", {}}, {"peak-conc", {}}};
  std::vector<uint32_t> xs;
  for (const Point& pt : points) {
    const PointResult a = run_point(pt);
    const PointResult b = run_point(pt);
    if (!same_sim_result(a, b)) {
      std::fprintf(stderr,
                   "FAIL: point %u diverged between two same-seed runs "
                   "(%" PRIu64 "/%" PRIu64 " sessions, %" PRIu64 "/%" PRIu64
                   " events, %.9g/%.9g client-s)\n",
                   pt.target_concurrency, a.ol.sessions, b.ol.sessions,
                   a.events, b.events, a.ol.client_seconds,
                   b.ol.client_seconds);
      ok = false;
    }
    const double wall = std::min(a.wall_seconds, b.wall_seconds);
    const double rate = wall > 0 ? a.ol.client_seconds / wall : 0;
    const auto peak = static_cast<double>(a.ol.peak_concurrency);

    xs.push_back(pt.target_concurrency);
    series[0].values.push_back(rate);
    series[1].values.push_back(peak);
    std::printf("point %u: %" PRIu64 " sessions, peak %" PRIu64
                " in flight, %" PRIu64 " events, %.1f client-s/s (%.2fs wall)\n",
                pt.target_concurrency, a.ol.sessions, a.ol.peak_concurrency,
                a.events, rate, wall);

    const uint32_t x = pt.target_concurrency;
    rec.add("rate", "direct-pnfs", x, rate, "client-s/s", /*host=*/true);
    rec.add("p50_sojourn", "direct-pnfs", x, a.ol.sojourn_seconds.p50(), "s");
    rec.add("p99_sojourn", "direct-pnfs", x, a.ol.sojourn_seconds.p99(), "s");
    rec.add("peak_concurrency", "direct-pnfs", x, peak, "sessions");
    rec.add("events_per_wall_s", "direct-pnfs", x,
            wall > 0 ? a.events / wall : 0, "ev/s", /*host=*/true);

    if (pt.target_concurrency >= 1000 && a.ol.peak_concurrency < 1000) {
      std::fprintf(stderr,
                   "FAIL: point %u peaked at %" PRIu64
                   " concurrent sessions (< 1000)\n",
                   pt.target_concurrency, a.ol.peak_concurrency);
      ok = false;
    }
  }

  print_table("Open-loop scale sweep", "clients", xs, series,
              "rate: client-s/s, peak-conc: sessions");
  rec.flush();
  return ok ? 0 : 1;
}
