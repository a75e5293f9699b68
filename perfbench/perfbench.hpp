// Repository benchmark: four workloads against core::Deployment, driven from
// one single-threaded process.  See README.md in this directory for why each
// workload exists and which layer metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "sim/event_queue.hpp"

namespace perfbench {

using namespace dpnfs;

enum class Kind { kStream, kOltp, kOpenLoop };

struct Workload {
  const char* name;
  Kind kind;
  core::Architecture arch;
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// Application-operation accounting at the core::File / FileSystemClient
/// boundary: every open, read, write, fsync and close the benchmark issues
/// counts once; a call that throws counts as failed and the loop goes on.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t short_reads = 0;  ///< reads that returned fewer bytes than asked
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  std::string first_error;
};

/// Cumulative totals read from the deployment's public accessors; the
/// timed phase's share is the difference of two snapshots.
struct Snapshot {
  uint64_t events = 0;
  sim::EventQueue::PushMix mix;
  uint64_t rpc_requests = 0;      ///< served by every RPC daemon
  uint64_t client_rpcs = 0;       ///< issued by the NFS clients
  uint64_t cache_hit_bytes = 0;   ///< client page cache
  uint64_t cache_read_bytes = 0;
  uint64_t readahead_fetches = 0;
  uint64_t sched_writes = 0;      ///< write-back WRITEs dispatched
  uint64_t sched_bytes = 0;
  uint64_t recovery_events = 0;   ///< sum of client.recovery.* counters
  uint64_t layouts_granted = 0;
  uint64_t pvfs_io_requests = 0;
  uint64_t pvfs_io_bytes = 0;
  uint64_t disk_read_bytes = 0;
  uint64_t disk_write_bytes = 0;
  uint64_t disk_ops = 0;
  uint64_t store_hit_bytes = 0;
  uint64_t store_miss_bytes = 0;
  uint64_t wire_tx_bytes = 0;     ///< every NIC's transmitted bytes
  std::vector<int64_t> nic_busy;  ///< per node: tx busy, rx busy, ...
  std::vector<int64_t> disk_busy; ///< per storage node
  uint64_t spans_recorded = 0;
  uint64_t spans_sampled_out = 0;
  uint64_t traces_started = 0;
};

Snapshot take_snapshot(core::Deployment& d);

/// Everything one repetition of a workload measured.
struct RepResult {
  OpCounts ops;
  uint64_t units = 0;  ///< transactions: file passes, RMW txns, or sessions
  /// Per-unit simulated latency (ns) from when the unit was due to when it
  /// completed; exact percentiles come from these samples.
  std::vector<int64_t> unit_latency_ns;
  sim::Time t0 = 0, t1 = 0;              ///< timed window (simulated)
  sim::Time write_t0 = 0, write_t1 = 0;  ///< phase that carries the writes
  sim::Time read_t0 = 0, read_t1 = 0;    ///< phase that carries the reads
  uint64_t phase_write_bytes = 0;
  uint64_t phase_read_bytes = 0;
  Snapshot before, after;
  std::string verify_error;  ///< empty when the verification pass is clean
  uint64_t peak_concurrency = 0;
  double mean_queue_depth = 0;  ///< traced runs only: sampled EventQueue size
  double wall_s = 0;            ///< host time of the timed phase
};

/// Sees a repetition's deployment before it is destroyed.
using Inspect = std::function<void(core::Deployment&, const RepResult&)>;

/// Builds a deployment for `w`, sets it up, runs the timed phase and the
/// verification pass.  `traced` selects full span retention.
RepResult run_rep(const Workload& w, uint64_t seed, bool traced,
                  const Inspect& inspect = {});

/// Host seconds to construct, mount and prefill one deployment of `w`.
double time_setup(const Workload& w, uint64_t seed);

/// The simulated quantities that must repeat bit for bit across runs with
/// one seed, whatever the tracing mode.
std::string fingerprint(const RepResult& r);

/// Per-layer numbers from one traced repetition's spans.
struct TraceLedger {
  uint64_t traces = 0;
  int64_t root_ns = 0;
  obs::PhaseBreakdown phases;
  std::map<std::string, obs::OpBreakdown> per_op;
  uint64_t mds_rpcs = 0;
  int64_t mds_latency_ns = 0;
  int64_t mds_queue_ns = 0;
  uint64_t pvfs_meta_requests = 0;
  std::vector<int64_t> queue_ns;    ///< every server span's queue wait
  std::vector<int64_t> service_ns;  ///< every server span's execution time
  bool complete = false;            ///< no span detail was lost
};
TraceLedger analyze_traces(core::Deployment& d, const RepResult& r);

/// Host-time microbenchmarks of public hot functions (ns per operation).
double micro_event_queue_ns(uint64_t population,
                            const sim::EventQueue::PushMix& mix);
double micro_xdr_compound_ns();
double micro_span_ns(bool sampled);

/// Host seconds of a fixed synthetic kernel (hash-map churn, heap sifts,
/// allocation churn; no simulator code), timed right before each
/// repetition.  Host times are reported scaled by kReferenceNominalS / this,
/// so a host that is slower or busier for a while does not read as a
/// regression.
double reference_kernel_s();
inline constexpr double kReferenceNominalS = 0.3;

/// Exact order statistic (nearest rank) of `v`, which it reorders.
int64_t percentile(std::vector<int64_t>& v, double p);
double median(std::vector<double> v);

}  // namespace perfbench
