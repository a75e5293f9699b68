// Benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats the workload, a fresh Deployment each time, for about --seconds
// and checks every repetition's outputs.  --trace 0 reports the end-to-end
// metrics: simulated quantities pooled over five input sets derived from
// --seed (repeated input sets must reproduce bit for bit), and host wall
// and set-up time scaled to a reference kernel's speed.  --trace 1 spends
// 40% of the budget on untraced repetitions, then runs the first input set
// again with every span retained, then the microbenchmarks, and reports the
// per-layer ledger.  The last line of stdout is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.hpp"
#include "util/obs_analysis.hpp"
#include "util/rng.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
      continue;
    }
    if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

double secs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double sim_seconds(sim::Time a, sim::Time b) { return sim::to_seconds(b - a); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Simulated metrics pool kInputs repetitions, each on its own input set
// derived from --seed, so they describe more than one arrival pattern or
// start stagger; later repetitions cycle through the same inputs and must
// reproduce them bit for bit.
constexpr size_t kInputs = 5;

uint64_t input_seed(uint64_t seed, size_t rep) {
  return util::Rng(seed).fork(rep % kInputs).next();
}

// Repetitions of one mode: the first kInputs whole (simulated metrics come
// from them), only the host timings of the rest.  `wall_s` holds each
// repetition's wall time scaled by the reference sample taken just before
// it (see reference_kernel_s); `raw_wall_s` the unscaled times.
struct Reps {
  std::vector<RepResult> pooled;
  std::vector<double> wall_s, raw_wall_s, setup_s, ref_s;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;

  /// Scale for host times not paired with their own reference sample.
  double host_scale() const { return kReferenceNominalS / median(ref_s); }

  void add(RepResult r, size_t index) {
    attempted += r.ops.attempted;
    failed += r.ops.failed;
    raw_wall_s.push_back(r.wall_s);
    wall_s.push_back(r.wall_s * kReferenceNominalS / ref_s.back());
    check(r);
    if (index < kInputs) {
      pooled.push_back(std::move(r));
    } else if (fingerprint(r) != fingerprint(pooled[index % kInputs])) {
      problems.push_back("same-seed repetitions diverged: " + fingerprint(r) +
                         " vs " + fingerprint(pooled[index % kInputs]));
    }
  }

  void check(const RepResult& r) {
    if (!r.verify_error.empty()) problems.push_back(r.verify_error);
    if (r.ops.short_reads != 0) {
      problems.push_back(std::to_string(r.ops.short_reads) + " short reads");
    }
    if (r.after.recovery_events != r.before.recovery_events) {
      problems.push_back("client recovery ran on a fault-free run");
    }
    if (r.phase_read_bytes == 0 || r.phase_write_bytes == 0) {
      problems.push_back("a phase moved no bytes");
    }
  }
};

// Runs repetitions (at least `min_reps`) until the next one would end past
// 85% of `budget_s`, each after a reference-kernel sample, then set-up-only
// repetitions back to back: kSetupSamples of them, or more, up to
// kMaxSetupSamples, until kSetupSeconds have passed.  A stream set-up takes
// under a millisecond, so 15 of them would be a noisy median.
constexpr size_t kSetupSamples = 15;
constexpr size_t kMaxSetupSamples = 200;
constexpr double kSetupSeconds = 1.0;

Reps repeat(const Workload& w, uint64_t seed, double budget_s,
            size_t min_reps) {
  Reps reps;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0;; ++i) {
    const auto t = std::chrono::steady_clock::now();
    reps.ref_s.push_back(reference_kernel_s());
    reps.add(run_rep(w, input_seed(seed, i), /*traced=*/false), i);
    const double cost = secs(t);
    if (i + 1 >= min_reps && secs(start) + cost > 0.85 * budget_s) break;
  }
  const auto setup_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kSetupSamples || (i < kMaxSetupSamples &&
                                           secs(setup_start) < kSetupSeconds);
       ++i) {
    reps.setup_s.push_back(time_setup(w, input_seed(seed, i)));
  }
  return reps;
}

std::vector<Metric> end_to_end(const Reps& reps) {
  std::vector<int64_t> latency;
  double write_bytes = 0, write_s = 0, read_bytes = 0, read_s = 0;
  double units = 0, window_s = 0;
  for (const RepResult& r : reps.pooled) {
    latency.insert(latency.end(), r.unit_latency_ns.begin(),
                   r.unit_latency_ns.end());
    write_bytes += static_cast<double>(r.phase_write_bytes);
    write_s += sim_seconds(r.write_t0, r.write_t1);
    read_bytes += static_cast<double>(r.phase_read_bytes);
    read_s += sim_seconds(r.read_t0, r.read_t1);
    units += static_cast<double>(r.units);
    window_s += sim_seconds(r.t0, r.t1);
  }
  return {
      {"write_mbps", ratio(write_bytes / 1e6, write_s), "MB/s"},
      {"read_mbps", ratio(read_bytes / 1e6, read_s), "MB/s"},
      {"txn_per_s", ratio(units, window_s), "txn/s"},
      {"txn_p50_ms", percentile(latency, 0.50) / 1e6, "ms"},
      {"txn_p99_ms", percentile(latency, 0.99) / 1e6, "ms"},
      {"wall_s", median(reps.wall_s), "s"},
      {"setup_s", median(reps.setup_s) * reps.host_scale(), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// Per-layer ledger.  `timed` holds untraced repetitions (counters, host
// cost); `traced` is the first input set again with every span kept.
// Microbenchmark times are scaled like repetition times.
std::vector<Metric> per_layer(const Reps& timed, const RepResult& traced,
                              TraceLedger& tl) {
  const RepResult& r = timed.pooled.front();
  const Snapshot& a = r.before;
  const Snapshot& b = r.after;
  const double ops = static_cast<double>(r.ops.attempted);
  const double app_bytes =
      static_cast<double>(r.ops.bytes_read + r.ops.bytes_written);
  const double window_ns = static_cast<double>(r.t1 - r.t0);
  const double events = static_cast<double>(b.events - a.events);
  const double wall = median(timed.raw_wall_s);
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  auto max_util = [&](const std::vector<int64_t>& x,
                      const std::vector<int64_t>& y) {
    double m = 0;
    for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
      m = std::max(m, ratio(static_cast<double>(y[i] - x[i]), window_ns));
    }
    return m;
  };
  const sim::EventQueue::PushMix mix{b.mix.immediate - a.mix.immediate,
                                     b.mix.wheel - a.mix.wheel,
                                     b.mix.overflow - a.mix.overflow};
  const double pushes =
      static_cast<double>(mix.immediate + mix.wheel + mix.overflow);
  const double root = static_cast<double>(tl.root_ns);
  const double scale = timed.host_scale();

  std::vector<Metric> m = {
      {"sim.events_per_op", ratio(events, ops), "count"},
      {"sim.ns_per_event", ratio(median(timed.wall_s) * 1e9, events), "ns"},
      {"sim.same_tick_share", ratio(static_cast<double>(mix.immediate), pushes),
       "ratio"},
      {"sim.pending_events", traced.mean_queue_depth, "count"},
      {"sim.push_pop_ns",
       scale *
           micro_event_queue_ns(static_cast<uint64_t>(traced.mean_queue_depth), mix),
       "ns"},
      {"net.bytes_per_app_byte", ratio(d(b.wire_tx_bytes, a.wire_tx_bytes), app_bytes),
       "ratio"},
      {"net.nic_util_max", max_util(a.nic_busy, b.nic_busy), "ratio"},
      {"rpc.requests_per_op", ratio(d(b.rpc_requests, a.rpc_requests), ops),
       "count"},
      {"rpc.queue_us_p99",
       percentile(tl.queue_ns, 0.99) / 1e3,
       "us"},
      {"rpc.service_us_p50",
       percentile(tl.service_ns, 0.50) / 1e3,
       "us"},
      {"rpc.xdr_compound_ns", scale * micro_xdr_compound_ns(), "ns"},
      {"client.cache.hit_ratio",
       ratio(d(b.cache_hit_bytes, a.cache_hit_bytes),
             d(b.cache_read_bytes, a.cache_read_bytes)),
       "ratio"},
      {"client.sched.bytes_per_write",
       ratio(d(b.sched_bytes, a.sched_bytes), d(b.sched_writes, a.sched_writes)),
       "B"},
      {"client.readahead_per_mb",
       ratio(d(b.readahead_fetches, a.readahead_fetches),
             static_cast<double>(r.ops.bytes_read) / 1e6),
       "1/MB"},
      {"client.rpcs_per_op", ratio(d(b.client_rpcs, a.client_rpcs), ops),
       "count"},
      {"client.recovery_events", d(b.recovery_events, a.recovery_events),
       "count"},
      {"mds.rpcs_per_op", ratio(static_cast<double>(tl.mds_rpcs), ops), "count"},
      {"mds.server_queue_share",
       ratio(static_cast<double>(tl.mds_queue_ns),
             static_cast<double>(tl.mds_latency_ns)),
       "ratio"},
      {"layout.grants_per_op", ratio(d(b.layouts_granted, a.layouts_granted), ops),
       "count"},
      {"pvfs.meta.requests_per_op",
       ratio(static_cast<double>(tl.pvfs_meta_requests), ops), "count"},
      {"pvfs.io.requests_per_app_mb",
       ratio(d(b.pvfs_io_requests, a.pvfs_io_requests), app_bytes / 1e6),
       "1/MB"},
      {"pvfs.io.bytes_per_app_byte",
       ratio(d(b.pvfs_io_bytes, a.pvfs_io_bytes), app_bytes), "ratio"},
      {"lfs.disk_write_per_app_byte",
       ratio(d(b.disk_write_bytes, a.disk_write_bytes),
             static_cast<double>(r.ops.bytes_written)),
       "ratio"},
      {"lfs.disk_read_per_app_byte",
       ratio(d(b.disk_read_bytes, a.disk_read_bytes),
             static_cast<double>(r.ops.bytes_read)),
       "ratio"},
      {"lfs.store_hit_ratio",
       ratio(d(b.store_hit_bytes, a.store_hit_bytes),
             d(b.store_hit_bytes, a.store_hit_bytes) +
                 d(b.store_miss_bytes, a.store_miss_bytes)),
       "ratio"},
      {"lfs.disk_ops_per_op", ratio(d(b.disk_ops, a.disk_ops), ops), "count"},
      {"lfs.disk_util_max", max_util(a.disk_busy, b.disk_busy), "ratio"},
      {"obs.spans_per_op", ratio(d(b.spans_recorded, a.spans_recorded), ops),
       "count"},
      {"obs.span_retained_share",
       1.0 - ratio(d(b.spans_sampled_out, a.spans_sampled_out),
                   d(b.spans_recorded, a.spans_recorded)),
       "ratio"},
      {"obs.span_sampled_ns", scale * micro_span_ns(true), "ns"},
      {"obs.span_unsampled_ns", scale * micro_span_ns(false), "ns"},
      {"cp.client_queue", ratio(tl.phases.client_queue, root), "ratio"},
      {"cp.request_wire", ratio(tl.phases.request_wire, root), "ratio"},
      {"cp.server_queue", ratio(tl.phases.server_queue, root), "ratio"},
      {"cp.service_cpu", ratio(tl.phases.service_cpu, root), "ratio"},
      {"cp.disk", ratio(tl.phases.disk, root), "ratio"},
      {"cp.reply_wire", ratio(tl.phases.reply_wire, root), "ratio"},
      {"cp.other", ratio(tl.phases.other, root), "ratio"},
      {"obs.trace_overhead", ratio(traced.wall_s, wall), "ratio"},
      {"host.raw_wall_s", wall, "s"},
      {"host.reference_s", median(timed.ref_s), "s"},
  };
  return m;
}

void print_breakdown(const TraceLedger& tl) {
  std::printf("critical path per root op (%" PRIu64 " traces):\n", tl.traces);
  for (const auto& [op, b] : tl.per_op) {
    const double t = static_cast<double>(b.total_ns);
    const obs::PhaseBreakdown& p = b.phases;
    std::printf(
        "  %-18s n=%-8" PRIu64
        " cq=%.3f rw=%.3f sq=%.3f cpu=%.3f disk=%.3f pw=%.3f other=%.3f\n",
        op.c_str(), b.count, ratio(p.client_queue, t), ratio(p.request_wire, t),
        ratio(p.server_queue, t), ratio(p.service_cpu, t), ratio(p.disk, t),
        ratio(p.reply_wire, t), ratio(p.other, t));
  }
}

std::string json_result(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char num[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<Metric> metrics;
  Reps timed;
  std::vector<std::string> problems;
  if (args.trace == 0) {
    timed = repeat(*w, args.seed, args.seconds, kInputs);
    metrics = end_to_end(timed);
  } else {
    // Untraced repetitions first (host baseline for trace overhead), then
    // one traced repetition of the same seed.
    timed = repeat(*w, args.seed, 0.4 * args.seconds, 1);
    TraceLedger tl;
    RepResult traced = run_rep(*w, input_seed(args.seed, 0), /*traced=*/true,
                               [&](core::Deployment& d, const RepResult& r) {
                                 tl = analyze_traces(d, r);
                               });
    if (fingerprint(traced) != fingerprint(timed.pooled.front())) {
      problems.push_back("traced run diverged from the timed run: " +
                         fingerprint(traced) + " vs " +
                         fingerprint(timed.pooled.front()));
    }
    if (!tl.complete) problems.push_back("traced run lost span detail");
    metrics = per_layer(timed, traced, tl);
    double cp_sum = 0;
    for (const Metric& m : metrics) {
      if (m.name.rfind("cp.", 0) == 0) cp_sum += m.value;
    }
    if (tl.traces == 0 || std::abs(cp_sum - 1.0) > 1e-6) {
      problems.push_back("critical-path shares sum to " +
                         std::to_string(cp_sum));
    }
    print_breakdown(tl);
  }
  problems.insert(problems.begin(), timed.problems.begin(),
                  timed.problems.end());

  std::printf("workload %s seed %" PRIu64 " trace %d: %zu repetitions, "
              "%" PRIu64 " ops attempted, %" PRIu64 " failed\n",
              w->name, args.seed, args.trace, timed.wall_s.size(),
              timed.attempted, timed.failed);
  for (const RepResult& r : timed.pooled) {
    std::printf("  input set: %" PRIu64 " transactions, peak %" PRIu64
                " in flight%s%s\n",
                r.units, r.peak_concurrency,
                r.ops.first_error.empty() ? "" : ", first error: ",
                r.ops.first_error.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : problems) std::printf("INCORRECT: %s\n", p.c_str());
  std::printf("%s\n",
              json_result(problems.empty(), timed.attempted, timed.failed, metrics)
                  .c_str());
  return problems.empty() ? 0 : 1;
}
