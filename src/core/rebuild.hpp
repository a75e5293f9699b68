// Background rebuild service for permanently failed storage daemons.
//
// Runs co-located with the PVFS metadata manager (the Direct-pNFS MDS node).
// A monitor loop samples the fault injector's view of every storage daemon;
// a daemon continuously unreachable for `dead_threshold` is declared
// permanently failed.  The manager then re-materializes every dfile the dead
// node held onto a spare node — copying from a surviving replica (mirror
// distributions) or decoding from k surviving shards (erasure
// distributions) — and retargets the file's distribution metadata, so
// layouts handed out after the rebuild point at the spare.  Foreground
// traffic keeps flowing throughout: clients serve reads through their own
// degraded paths (docs/failures.md) until the rebuilt placement reaches
// them via layout refetch.
//
// Everything is observable: `mds.rebuild` counters, `ds.declared_dead` /
// `rebuild.start` / `rebuild.complete` flight-recorder events, and an
// optional copy-rate throttle so rebuild traffic cannot starve the
// foreground.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "pvfs/meta_server.hpp"
#include "rpc/fabric.hpp"
#include "sim/fault.hpp"

namespace dpnfs::core {

struct RebuildConfig {
  /// Liveness-sampling period of the monitor loop.
  sim::Duration check_interval = sim::ms(100);
  /// A daemon continuously down for at least this long is declared
  /// permanently failed (transient crashes that revive sooner are left to
  /// the client recovery ladder).
  sim::Duration dead_threshold = sim::ms(600);
  /// Copy granularity for mirror-replica copies.
  uint64_t chunk_bytes = 1ull << 20;
  /// Rebuild-rate throttle in bytes/sec; 0 disables throttling.  Applied
  /// as a pacing delay after each copied chunk so foreground traffic keeps
  /// its share of the disks and NICs.
  double rate_bytes_per_sec = 0.0;
};

/// Per-manager totals: a snapshot of the "mds.rebuild" counters.
struct RebuildStats {
  uint64_t dses_declared_dead = 0;
  uint64_t rebuilds_started = 0;
  uint64_t rebuilds_completed = 0;
  uint64_t objects_rebuilt = 0;
  uint64_t bytes_rebuilt = 0;
  /// Objects that could not be rebuilt (no spare, too many shards lost).
  uint64_t objects_failed = 0;
};

class RebuildManager {
 public:
  /// `storage` lists every storage daemon (active + spares) in node-index
  /// order; `injector` may be null (the monitor then never fires).
  RebuildManager(rpc::RpcFabric& fabric, sim::Node& node,
                 pvfs::PvfsMetaServer& meta,
                 std::vector<rpc::RpcAddress> storage,
                 const sim::FaultInjector* injector,
                 RebuildConfig config = {});
  ~RebuildManager();
  RebuildManager(const RebuildManager&) = delete;
  RebuildManager& operator=(const RebuildManager&) = delete;

  /// Spawns the monitor loop (must run while the simulation is live).
  /// Call `stop()` before expecting `Simulation::run()` to drain.
  void start();
  void stop() { stop_ = true; }

  /// Read from the registry counters: a copy, not a live view.
  RebuildStats stats() const;
  const RebuildConfig& config() const noexcept { return config_; }

 private:
  sim::Task<void> monitor_loop();
  /// Declares `index` dead and rebuilds everything it held.
  sim::Task<void> rebuild_node(uint32_t index);
  /// Rebuilds one file's dfile at position `pos` onto `spare`.  Returns
  /// false when the source data is unrecoverable.
  sim::Task<bool> rebuild_dfile(pvfs::FileMeta& meta, uint32_t pos,
                                uint32_t spare);

  /// One storage-daemon RPC; throws PvfsError on transport or status
  /// failure.
  sim::Task<rpc::RpcClient::Reply> io_call(uint32_t server_index,
                                           pvfs::IoProc proc,
                                           rpc::XdrEncoder args);
  sim::Task<rpc::Payload> read_object(uint32_t server, uint64_t oid,
                                      uint64_t offset, uint64_t length);
  sim::Task<void> write_object(uint32_t server, uint64_t oid, uint64_t offset,
                               rpc::Payload data);
  /// Throttle pacing after copying `bytes`.
  sim::Task<void> pace(uint64_t bytes);

  bool daemon_down(uint32_t index, sim::Time now) const;

  rpc::RpcFabric& fabric_;
  sim::Node& node_;
  pvfs::PvfsMetaServer& meta_;
  std::vector<rpc::RpcAddress> storage_;
  const sim::FaultInjector* injector_;
  RebuildConfig config_;
  rpc::RpcClient rpc_;

  bool running_ = false;
  bool stop_ = false;
  std::vector<uint32_t> dead_;
  /// Spares consumed so far; the next rebuild takes active + consumed.
  uint32_t spares_used_ = 0;
  /// Since when each daemon has been continuously down (kNever = up).
  std::vector<sim::Time> down_since_;

  // "mds.rebuild" component handles, resolved once at construction.
  obs::Counter* m_declared_dead_;
  obs::Counter* m_started_;
  obs::Counter* m_completed_;
  obs::Counter* m_objects_;
  obs::Counter* m_bytes_;
  obs::Counter* m_failed_;
};

}  // namespace dpnfs::core
