// Run observation for one Deployment: the utilization sampler, the per-node
// health rules and every export (metrics document, Chrome trace, traffic
// table).
//
// Deployment assembles the cluster and owns the instruments its daemons
// write into (registry, tracer, tenant ledger, flight ring).  The observer
// reads those, the simulated nodes and object stores, and one table of RPC
// daemons that Deployment fills as it starts each one; it never names a
// server or client type.  Client breaker trips come from the registry's
// `client.recovery/breaker_trips` counters.
//
// Exports are idempotent.  Health compares each node's restart and breaker
// totals with the baseline the last sampler tick recorded; an export judges
// against that baseline without moving it, so a second export right after
// the first reports the same states.  The only state an export writes is
// the "node" snapshot gauges, which it sets to the current NIC and store
// totals.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "rpc/fabric.hpp"
#include "sim/task.hpp"
#include "util/obs_analysis.hpp"

namespace dpnfs::core {

class Deployment;

class RunObserver {
 public:
  /// One RPC daemon as the health rules see it.
  struct Daemon {
    rpc::RpcAddress address;
    std::function<size_t()> queue_depth;
    std::function<uint64_t()> restarts;  ///< empty: the daemon counts none
  };

  explicit RunObserver(Deployment& d) : d_(d) {}

  /// Adds a started daemon to the table the health rules walk.
  void watch(Daemon daemon) { daemons_.push_back(std::move(daemon)); }

  /// Starts the periodic sampler on `ClusterConfig::sample_interval`: NIC
  /// and disk utilization, store dirty bytes, RPC queue depth per node
  /// (summed over the daemons it hosts) and a 0/1/2 health series.  Must
  /// run while the simulation is live; call `stop_sampling()` before
  /// expecting `Simulation::run()` to drain, or the sampler keeps the
  /// event queue alive forever.
  void start_sampling();
  void stop_sampling() { sampler_stop_ = true; }
  const obs::TimeSeries& samples() const noexcept { return samples_; }

  /// Full observability export: architecture, per-node metrics (with NIC
  /// and object-store snapshots folded in as "node" gauges — this is what
  /// carries per-storage-node bytes even for Direct-pNFS, whose data path
  /// bypasses the PVFS I/O daemons), the trace aggregate, SLO digests,
  /// tenants, per-node `ok|degraded|critical` health and — when the
  /// sampler ran — the utilization time series.
  std::string metrics_json();

  /// Chrome/Perfetto trace_event JSON of all retained spans plus the
  /// sampled counter tracks; load in ui.perfetto.dev.
  std::string trace_json() const;

  /// Prints a per-node traffic/disk table (`simulate --verbose`).
  void print_traffic_report() const;

 private:
  /// Signals and verdict of one node (indexed by node id).
  struct NodeState {
    const obs::Counter* breaker_trips = nullptr;  ///< null: no NFS client
    bool hosts_daemon = false;
    bool down = false;
    double queue_depth = 0;
    uint64_t restarts = 0;
    uint64_t breakers = 0;
    uint64_t tick_restarts = 0;  ///< totals at the last sampler tick
    uint64_t tick_breakers = 0;
    int level = 0;  ///< 0 ok, 1 degraded, 2 critical
    std::string reason;
  };

  sim::Task<void> sampler_loop();

  /// Reads every signal and judges each node against the last tick's
  /// baseline (which only the sampler moves).
  void evaluate_health();

  /// Folds current NIC/disk/object-store totals into "node" gauges so
  /// exports see resource usage regardless of which software path moved
  /// the bytes.
  void snapshot_resource_gauges();

  Deployment& d_;
  std::vector<Daemon> daemons_;
  std::vector<NodeState> nodes_;
  std::vector<uint32_t> by_name_;  ///< node ids in name order
  obs::TimeSeries samples_;
  bool sampling_ = false;
  bool sampler_stop_ = false;
};

}  // namespace dpnfs::core
