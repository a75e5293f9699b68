// Cluster deployments for the five access architectures of the evaluation.
//
// All five share the same back end — N storage nodes running the PVFS2-like
// storage daemons, one doubling as metadata manager — and differ only in the
// access path (paper §6.1 keeps nodes and disks constant):
//
//   kDirectPnfs  — NFSv4.1 data server on *every* storage node exporting the
//                  local stripe objects directly; MDS co-located with the
//                  PVFS metadata manager; exact layouts via LayoutTranslator.
//   kNativePvfs  — clients run the native PVFS2-like client.
//   kPnfs2Tier   — file-layout pNFS data servers on the storage nodes, but
//                  each proxies the whole file system through a PVFS client
//                  (no placement knowledge: SyntheticLayoutSource).
//   kPnfs3Tier   — 3 dedicated NFS data servers in front of 3 storage nodes
//                  (disks consolidated: fewer spindles behind faster nodes).
//   kPlainNfs    — one NFSv4 server exporting the PVFS client; no pNFS.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "core/aggregation_drivers.hpp"
#include "core/conduit_backend.hpp"
#include "core/observer.hpp"
#include "core/pvfs_backend.hpp"
#include "core/translator.hpp"
#include "lfs/object_store.hpp"
#include "nfs/client.hpp"
#include "nfs/object_backend.hpp"
#include "nfs/server.hpp"
#include "core/rebuild.hpp"
#include "pvfs/meta_server.hpp"
#include "pvfs/storage_server.hpp"
#include "sim/fault.hpp"
#include "util/flight.hpp"
#include "util/log.hpp"
#include "util/tenant.hpp"

namespace dpnfs::core {

enum class Architecture {
  kDirectPnfs,
  kNativePvfs,
  kPnfs2Tier,
  kPnfs3Tier,
  kPlainNfs,
};

const char* architecture_name(Architecture a);

/// Well-known service ports, public so fault plans can target a specific
/// service on a node (e.g. crash the MDS but not the co-located storage
/// daemon).  Data servers listen on rpc::kNfsPort (2049); the PVFS daemons
/// on rpc::kPvfsMetaPort / rpc::kPvfsIoPort.
inline constexpr uint16_t kMdsPort = 2050;

/// Every knob of the testbed.  Defaults reproduce the paper's setup:
/// 6 storage nodes (+1 metadata double-duty), gigabit Ethernet with jumbo
/// frames, 2 MB stripes, 2 MB rsize/wsize, 8 nfsd threads.
struct ClusterConfig {
  Architecture architecture = Architecture::kDirectPnfs;
  uint32_t storage_nodes = 6;
  uint32_t clients = 8;
  uint32_t three_tier_data_servers = 3;
  /// 3-tier consolidates 6 disks behind 3 nodes; two disks per node do not
  /// double bandwidth (paper §6.2) — this factor models the shortfall.
  double three_tier_disk_scale = 1.6;

  sim::NicParams nic{.bytes_per_sec = 117e6, .latency = sim::us(60)};
  sim::NetworkParams network{};

  /// Seeded per-client start stagger: client i sleeps uniform
  /// [0, start_stagger) — drawn from fork(i) of start_stagger_seed — before
  /// its first op, so closed-loop sweeps measure steady state instead of a
  /// lockstep convoy.  0 disables.
  sim::Duration start_stagger = sim::ms(20);
  uint64_t start_stagger_seed = 0x57a66e12;
  sim::DiskParams disk{.bytes_per_sec = 23e6,
                       .positioning = sim::ms(3),
                       .per_request = sim::us(100)};
  sim::CpuParams server_cpu{.cores = 2};
  sim::CpuParams client_cpu{.cores = 2};

  /// Extra per-byte CPU for *server-side* PVFS clients: an NFS server box
  /// that re-exports the parallel FS pays for a second full data copy
  /// through the kernel/daemon boundary on the same machine.  This is the
  /// per-box ceiling that makes the 2-/3-tier data servers and the plain
  /// NFSv4 server CPU-limited in the paper — and that Direct-pNFS bypasses
  /// by serving stripe objects locally.
  double proxy_extra_cpu_ns_per_byte = 24.0;

  /// The prototype's loopback conduit on Direct-pNFS data servers (Figure
  /// 5: the PVFS2 client ferries data between the NFSv4 server and the local
  /// storage daemon through a fixed buffer pool).
  ConduitParams conduit{};

  /// The 2-/3-tier data servers re-export PVFS through the *kernel* client:
  /// every data op funnels through the pvfs2 kernel module's single upcall
  /// queue to the user-level client daemon, and an nfsd thread's synchronous
  /// VFS write pins that crossing for the full (mostly remote) PVFS round
  /// trip.  One buffer models the serialized traversal — the intermediate
  /// file system overhead §6.2 blames for pNFS-2tier losing half its
  /// bandwidth on a slow network, and which Direct-pNFS eliminates.
  ConduitParams vfs_conduit{.buffers = 1};

  /// Scripted failures (node/service crashes, link faults, disk faults)
  /// injected into the cluster's network.  Empty by default: fault-free
  /// runs build no injector and pay nothing.
  sim::FaultPlan faults{};

  /// Grace window the MDS opens after a restart: sessions unknown to the
  /// new boot instance get NFS4ERR_GRACE (retryable) instead of
  /// BADSESSION while state is re-established.  Data servers stay at 0
  /// (stateless data path; see nfs::ServerConfig::grace_period).
  sim::Duration mds_grace_period = 0;

  /// Simulated-time interval between utilization samples once
  /// `start_sampling()` runs (run_workload starts/stops it around the timed
  /// phase).  0 disables sampling.  See RunObserver.
  sim::Duration sample_interval = sim::ms(100);
  /// Span-detail retention for the tracer (hop *accounting* is always
  /// exact).  Raise it when exporting full timelines (`--trace-out`).
  size_t trace_span_capacity = 4096;
  /// Head-sampling rate for span detail in [0, 1]: the fraction of traces
  /// whose spans are retained.  Aggregate counters and the SLO digests stay
  /// exact for all traffic at any rate.  1.0 keeps today's always-on
  /// behavior.
  double trace_sample_rate = 1.0;
  /// Seed for the deterministic per-trace sampling verdict; the same seed
  /// and schedule sample the same trace ids (chaos runs stay reproducible).
  uint64_t trace_sample_seed = 0x9e1ddca7;
  /// Root-span latency SLO: unsampled traces ending slower than this (or
  /// with an error) are tail-promoted with full span detail.  0 disables
  /// the slow-trace trigger.
  sim::Duration trace_slo_threshold = 0;

  /// Tenant mix: NFS/PVFS clients are assigned tenant ids 1..tenants
  /// round-robin by client index.  0 disables tenant stamping entirely —
  /// the wire stays byte-identical to the pre-tenant layout.
  uint32_t tenants = 0;

  uint64_t stripe_unit = 2ull << 20;

  /// File distribution for new files, handed to the metadata server at
  /// build time: kStripe (default, no redundancy), kMirror (`replicas` full
  /// copies), or kErasure (RS `ec_k`+`ec_m`).  Redundant distributions
  /// surface to pNFS clients as the replicated / erasure-coded layout
  /// aggregations, whose degraded read and write paths survive data-server
  /// loss without MDS fallback (docs/failures.md).
  pvfs::DistKind distribution = pvfs::DistKind::kStripe;
  uint32_t replicas = 2;
  uint32_t ec_k = 4;
  uint32_t ec_m = 2;
  /// Trailing storage nodes held out of new distributions as rebuild
  /// spares.
  uint32_t spare_nodes = 0;

  /// Background rebuild service on the MDS node (Direct-pNFS only): when a
  /// storage daemon stays continuously unreachable past
  /// `rebuild.dead_threshold`, its dfiles are re-materialized onto a spare
  /// from replicas/parity while foreground traffic continues.  Requires a
  /// fault injector (the monitor reads its liveness view) — fault-free
  /// runs never start the loop.
  bool rebuild_enabled = false;
  RebuildConfig rebuild{};

  /// List I/O: clients fold up to this many regions for the same data
  /// server or storage daemon into one vectored request (kReadv/kWritev on
  /// the PVFS wire, READV/WRITEV in NFS compounds).  1 turns list I/O off.
  /// Copied into the NFS and PVFS client configs at build time.
  uint32_t listio_max_regions = 64;

  lfs::ObjectStoreParams store{};
  nfs::ServerConfig nfs_server{};
  nfs::ClientConfig nfs_client{};
  pvfs::StorageServerConfig pvfs_storage{};
  pvfs::PvfsClientConfig pvfs_client{};
};

/// One assembled cluster: simulation, nodes, servers, and per-client-node
/// FileSystemClient handles.  The instruments the daemons write into belong
/// to the RPC fabric; sampling, health and exports live in `observer()`.
class Deployment {
 public:
  explicit Deployment(ClusterConfig config);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  sim::Simulation& simulation() noexcept { return sim_; }
  const ClusterConfig& config() const noexcept { return config_; }
  Architecture architecture() const noexcept { return config_.architecture; }

  size_t client_count() const noexcept { return fs_clients_.size(); }
  FileSystemClient& client(size_t i) { return *fs_clients_.at(i); }

  /// Mounts every client (must run inside the simulation).
  sim::Task<void> mount_all();

  /// Back-end object stores (one per storage node).
  std::vector<lfs::ObjectStore*> stores();
  void drop_all_server_caches();

  /// Aggregate bytes the back-end disks absorbed.
  uint64_t disk_write_bytes() const;
  uint64_t disk_read_bytes() const;

  /// Bytes moved by the storage/server-node NICs.  Inter-server forwarding
  /// shows up here: with exact layouts, servers transmit ~nothing during a
  /// write workload; the 2-/3-tier proxies re-send everything they receive.
  uint64_t server_tx_bytes() const;
  uint64_t server_rx_bytes() const;

  /// Per-node metric registry; every RPC server/client in the deployment
  /// resolved its counter handles from this at construction.
  obs::MetricsRegistry& metrics() noexcept { return fabric_.metrics(); }
  const obs::MetricsRegistry& metrics() const noexcept {
    return fabric_.metrics();
  }
  obs::Tracer& tracer() noexcept { return fabric_.tracer(); }
  const obs::Tracer& tracer() const noexcept { return fabric_.tracer(); }

  /// Deployment-global per-tenant resource ledger (always on; traffic with
  /// no tenant is exported under "none", so per-tenant sums equal the
  /// aggregate counters exactly while nothing has been evicted).  It keeps
  /// the 64 heaviest tenants exactly (util::TopK).
  obs::TenantLedger& tenant_ledger() noexcept { return fabric_.tenants(); }
  const obs::TenantLedger& tenant_ledger() const noexcept {
    return fabric_.tenants();
  }

  /// Flight recorder: bounded ring (4096 events) of recovery-ladder events,
  /// restarts, breaker trips, replay, grace transitions, and WARN+ log
  /// lines; `flight().to_json()` is the dump.
  obs::FlightRecorder& flight() noexcept { return fabric_.flight(); }
  const obs::FlightRecorder& flight() const noexcept {
    return fabric_.flight();
  }

  /// The run's sampler, health rules and exports.
  RunObserver& observer() noexcept { return observer_; }
  void start_sampling() { observer_.start_sampling(); }
  void stop_sampling() { observer_.stop_sampling(); }

  /// The Direct-pNFS layout translator (null for other architectures).
  LayoutTranslator* translator() noexcept { return translator_.get(); }

  /// The fault injector driving `config().faults` (null when the plan is
  /// empty).
  sim::FaultInjector* fault_injector() noexcept { return fault_injector_.get(); }

  /// The background rebuild service (null unless `rebuild_enabled` and the
  /// architecture hosts one).  `start_rebuild()` spawns its monitor loop;
  /// call `stop_rebuild()` before expecting `Simulation::run()` to drain.
  RebuildManager* rebuild() noexcept { return rebuild_.get(); }
  void start_rebuild() {
    if (rebuild_) rebuild_->start();
  }
  void stop_rebuild() {
    if (rebuild_) rebuild_->stop();
  }

 private:
  friend class RunObserver;

  /// Storage nodes, their object stores and PVFS daemons, and the metadata
  /// manager (plus the rebuild service) on storage node 0.
  void build_backend_cluster(uint32_t storage_count, double disk_scale);
  /// Data servers on every storage node, serving stripe objects directly.
  rpc::RpcAddress build_direct_pnfs();
  /// Data servers that proxy the whole file system through PVFS clients.
  rpc::RpcAddress build_proxied_pnfs();
  /// A pNFS data server on `node` exporting `exported`; appends its device.
  void start_data_server(sim::Node& node, nfs::DataBackend& exported,
                         std::vector<nfs::DeviceEntry>& devices);
  /// The NFS server in front of the whole file system on `node`: a PVFS
  /// client and backend, the layout source for `devices` (none without
  /// pNFS), and the server on `port`.  Returns its address.
  rpc::RpcAddress start_mds(sim::Node& node, const std::string& who,
                            uint16_t port,
                            const std::vector<nfs::DeviceEntry>& devices);
  /// The client nodes, last: NFS clients of `mds`, or native PVFS clients
  /// when there is none.
  void add_clients(std::optional<rpc::RpcAddress> mds);
  /// Starts `daemon` and adds it to the observer's daemon table.
  template <typename Daemon>
  Daemon& start(Daemon& daemon);

  sim::Node& add_server_node(const std::string& name);
  std::vector<rpc::RpcAddress> storage_addresses() const;
  std::unique_ptr<pvfs::PvfsClient> make_pvfs_client(
      sim::Node& node, const std::string& who,
      const pvfs::PvfsClientConfig& cfg);
  /// config_.pvfs_client for an NFS server re-exporting the file system.
  pvfs::PvfsClientConfig proxy_client_config() const;

  ClusterConfig config_;
  sim::Simulation sim_;
  sim::Network net_;
  std::unique_ptr<sim::FaultInjector> fault_injector_;
  rpc::RpcFabric fabric_;
  RunObserver observer_{*this};
  util::LogSink prev_log_sink_;

  std::vector<sim::Node*> client_nodes_;
  /// One per storage node, in node order; `node()` is the storage node.
  std::vector<std::unique_ptr<lfs::ObjectStore>> stores_;
  std::vector<std::unique_ptr<pvfs::PvfsStorageServer>> pvfs_storage_;
  std::unique_ptr<pvfs::PvfsMetaServer> pvfs_meta_;
  std::unique_ptr<RebuildManager> rebuild_;

  std::shared_ptr<FhRegistry> registry_;
  std::shared_ptr<const nfs::AggregationRegistry> aggregations_;
  std::vector<std::unique_ptr<pvfs::PvfsClient>> server_pvfs_clients_;
  std::vector<std::unique_ptr<nfs::DataBackend>> backends_;
  std::unique_ptr<LayoutTranslator> translator_;
  std::unique_ptr<SyntheticLayoutSource> synthetic_layouts_;
  std::vector<std::unique_ptr<nfs::NfsServer>> nfs_servers_;

  std::vector<std::unique_ptr<FileSystemClient>> fs_clients_;
};

}  // namespace dpnfs::core
