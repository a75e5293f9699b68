#include "core/deployment.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace dpnfs::core {

using sim::Task;

const char* architecture_name(Architecture a) {
  switch (a) {
    case Architecture::kDirectPnfs: return "Direct-pNFS";
    case Architecture::kNativePvfs: return "PVFS2";
    case Architecture::kPnfs2Tier: return "pNFS-2tier";
    case Architecture::kPnfs3Tier: return "pNFS-3tier";
    case Architecture::kPlainNfs: return "NFSv4";
  }
  return "?";
}

namespace {

/// Rejects an erasure-coding geometry the back end cannot place: every
/// create would fail at the metadata server.
void check_redundancy_geometry(const ClusterConfig& c) {
  if (c.distribution != pvfs::DistKind::kErasure) return;
  // 3-tier splits its machines: half hold the disks.
  const uint32_t backend = c.architecture == Architecture::kPnfs3Tier
                               ? c.storage_nodes / 2
                               : c.storage_nodes;
  const uint32_t active = backend - std::min(backend, c.spare_nodes);
  if (c.ec_k + c.ec_m > active) {
    throw std::invalid_argument(util::sformat(
        "erasure coding needs ec_k + ec_m = %u storage nodes, but only %u "
        "are active (%u back-end nodes, %u spares)",
        c.ec_k + c.ec_m, active, backend, c.spare_nodes));
  }
}

}  // namespace

Deployment::Deployment(ClusterConfig config)
    : config_(std::move(config)),
      net_(sim_, config_.network),
      tenants_ledger_(config_.tenant_topk),
      flight_(config_.flight_capacity),
      fabric_(net_) {
  check_redundancy_geometry(config_);
  // Before any server/client is constructed: they resolve their metric
  // handles from the fabric at construction time.
  tracer_.set_span_capacity(config_.trace_span_capacity);
  tracer_.set_sample_rate(config_.trace_sample_rate);
  tracer_.set_sample_seed(
      util::Rng(config_.trace_sample_seed).next());  // decorrelate from ids
  tracer_.set_slo_threshold(config_.trace_slo_threshold);
  tracer_.set_staging_capacity(config_.trace_span_capacity);
  fabric_.set_observability(&metrics_, &tracer_);
  tenants_ledger_.set_slo_threshold(config_.trace_slo_threshold);
  fabric_.set_accounting(&tenants_ledger_, &flight_);
  // WARN+ log lines ride the flight ring, so a dump carries the log tail
  // without an always-on log file.  The previous sink is restored at
  // destruction (deployments nest in tests).
  prev_log_sink_ = util::set_log_sink(
      [this](util::LogLevel level, std::string_view component,
             int64_t sim_time_ns, std::string_view message) {
        flight_.record(sim_time_ns, "-", component,
                       level >= util::LogLevel::kError ? "log.error"
                                                       : "log.warn",
                       std::string(message));
      });
  // Likewise the fault injector: nodes pick up their injector pointer as
  // they are added to the network.
  if (!config_.faults.empty()) {
    fault_injector_ = std::make_unique<sim::FaultInjector>(config_.faults);
    net_.set_fault_injector(fault_injector_.get());
  }
  config_.pvfs_meta.stripe_unit = config_.stripe_unit;
  config_.pvfs_meta.distribution = config_.distribution;
  config_.pvfs_meta.replicas = config_.replicas;
  config_.pvfs_meta.ec_k = config_.ec_k;
  config_.pvfs_meta.ec_m = config_.ec_m;
  config_.pvfs_meta.spare_nodes = config_.spare_nodes;
  config_.nfs_client.listio_enabled = config_.listio_enabled;
  config_.nfs_client.listio_max_regions = config_.listio_max_regions;
  config_.pvfs_client.listio_enabled = config_.listio_enabled;
  config_.pvfs_client.listio_max_regions = config_.listio_max_regions;
  registry_ = std::make_shared<FhRegistry>();
  aggregations_ = std::make_shared<const nfs::AggregationRegistry>(
      full_aggregation_registry());

  switch (config_.architecture) {
    case Architecture::kDirectPnfs: build_direct_pnfs(); break;
    case Architecture::kNativePvfs: build_native_pvfs(); break;
    case Architecture::kPnfs2Tier: build_pnfs_2tier(); break;
    case Architecture::kPnfs3Tier: build_pnfs_3tier(); break;
    case Architecture::kPlainNfs: build_plain_nfs(); break;
  }
}

Deployment::~Deployment() {
  // Parked server workers, periodic loops and whatever a test abandoned
  // mid-run still reference the members below: release their frames first.
  sim_.destroy_detached();
  util::set_log_sink(std::move(prev_log_sink_));
}

// ---------------------------------------------------------------------------
// Shared building blocks
// ---------------------------------------------------------------------------

void Deployment::build_backend_cluster(uint32_t storage_count,
                                       double disk_scale) {
  sim::DiskParams disk = config_.disk;
  disk.bytes_per_sec *= disk_scale;
  for (uint32_t i = 0; i < storage_count; ++i) {
    auto& node = net_.add_node(sim::NodeParams{
        .name = "storage" + std::to_string(i),
        .nic = config_.nic,
        .disk = disk,
        .cpu = config_.server_cpu});
    storage_nodes_.push_back(&node);
    stores_.push_back(std::make_unique<lfs::ObjectStore>(node, config_.store));
    pvfs_storage_.push_back(std::make_unique<pvfs::PvfsStorageServer>(
        fabric_, node, rpc::kPvfsIoPort, *stores_.back(),
        config_.pvfs_storage));
    pvfs_storage_.back()->start();
  }
  // Metadata manager doubles on storage node 0 (paper §6.1).
  pvfs_meta_ = std::make_unique<pvfs::PvfsMetaServer>(
      fabric_, *storage_nodes_[0], rpc::kPvfsMetaPort, storage_count,
      config_.pvfs_meta);
  pvfs_meta_->start();
  // Rebuild service co-located with the metadata manager.  It monitors the
  // injector's liveness view, so fault-free runs never construct one.
  if (config_.rebuild_enabled && fault_injector_ != nullptr) {
    rebuild_ = std::make_unique<RebuildManager>(
        fabric_, *storage_nodes_[0], *pvfs_meta_, storage_addresses(),
        fault_injector_.get(), config_.rebuild);
  }
}

sim::Node& Deployment::add_client_node(const std::string& name) {
  auto& node = net_.add_node(sim::NodeParams{.name = name,
                                             .nic = config_.nic,
                                             .disk = std::nullopt,
                                             .cpu = config_.client_cpu});
  client_nodes_.push_back(&node);
  return node;
}

std::vector<rpc::RpcAddress> Deployment::storage_addresses() const {
  std::vector<rpc::RpcAddress> out;
  out.reserve(pvfs_storage_.size());
  for (const auto& s : pvfs_storage_) out.push_back(s->address());
  return out;
}

std::unique_ptr<pvfs::PvfsClient> Deployment::make_pvfs_client(
    sim::Node& node, const std::string& who, bool proxy, uint32_t tenant) {
  // Server-side proxies (NFS servers re-exporting the PFS) pay the extra
  // same-box copy cost.
  pvfs::PvfsClientConfig cfg = config_.pvfs_client;
  if (proxy) cfg.cpu_ns_per_byte += config_.proxy_extra_cpu_ns_per_byte;
  cfg.tenant_id = tenant;
  return std::make_unique<pvfs::PvfsClient>(fabric_, node,
                                            pvfs_meta_->address(),
                                            storage_addresses(), who, cfg);
}

void Deployment::add_nfs_clients(rpc::RpcAddress mds, bool pnfs_enabled) {
  nfs::ClientConfig ccfg = config_.nfs_client;
  ccfg.pnfs_enabled = pnfs_enabled;
  for (uint32_t i = 0; i < config_.clients; ++i) {
    auto& node = add_client_node("client" + std::to_string(i));
    ccfg.tenant_id =
        config_.tenants != 0 ? 1 + (i % config_.tenants) : 0;
    auto nfs_client = std::make_unique<nfs::NfsClient>(
        fabric_, node, mds, "client" + std::to_string(i) + "@SIM", ccfg,
        aggregations_);
    health_clients_.emplace_back(node.name(), nfs_client.get());
    fs_clients_.push_back(
        std::make_unique<NfsFileSystemClient>(std::move(nfs_client)));
  }
}

// ---------------------------------------------------------------------------
// Architectures
// ---------------------------------------------------------------------------

nfs::ServerConfig Deployment::mds_server_config() const {
  nfs::ServerConfig scfg = config_.nfs_server;
  scfg.grace_period = config_.mds_grace_period;
  return scfg;
}

void Deployment::build_direct_pnfs() {
  build_backend_cluster(config_.storage_nodes, 1.0);

  // NFSv4.1 data server on every storage node, exporting the local stripe
  // objects directly (filehandle == stripe-object id, per the translator).
  std::vector<nfs::DeviceEntry> devices;
  for (uint32_t i = 0; i < config_.storage_nodes; ++i) {
    auto local =
        std::make_unique<nfs::LocalBackend>(*stores_[i], /*flat=*/true);
    local->attach_tracer(&tracer_, storage_nodes_[i]->name());
    local->attach_tenants(&tenants_ledger_);
    nfs::Backend* exported = local.get();
    std::unique_ptr<ConduitBackend> conduit;
    if (config_.direct_ds_conduit) {
      // Figure 5 fidelity: the prototype data server reaches its stripe
      // objects through the local PVFS2 client/daemon buffer pool.
      conduit = std::make_unique<ConduitBackend>(*local, *storage_nodes_[i],
                                                 config_.conduit);
      exported = conduit.get();
    }
    nfs::ServerConfig scfg = config_.nfs_server;
    scfg.is_data_server = true;
    nfs_servers_.push_back(std::make_unique<nfs::NfsServer>(
        fabric_, *storage_nodes_[i], rpc::kNfsPort, *exported, nullptr, scfg));
    nfs_servers_.back()->start();
    backends_.push_back(std::move(local));
    if (conduit) backends_.push_back(std::move(conduit));
    devices.push_back(nfs::DeviceEntry{nfs::DeviceId{i},
                                       storage_nodes_[i]->id(), rpc::kNfsPort});
  }

  // MDS co-located with the PVFS metadata manager on storage node 0.  Its
  // PVFS client's meta/storage traffic to node 0 rides the loopback, and —
  // per Figure 5 — it links the PFS library directly, skipping the kernel
  // module's metadata upcall path.
  {
    pvfs::PvfsClientConfig mds_cfg = config_.pvfs_client;
    mds_cfg.vfs_meta_latency = 0;
    server_pvfs_clients_.push_back(std::make_unique<pvfs::PvfsClient>(
        fabric_, *storage_nodes_[0], pvfs_meta_->address(),
        storage_addresses(), "mds@SIM", mds_cfg));
  }
  auto mds_backend = std::make_unique<PvfsBackend>(*server_pvfs_clients_.back(),
                                                   registry_);
  translator_ = std::make_unique<LayoutTranslator>(*mds_backend, devices);
  translator_->attach_metrics(metrics_, storage_nodes_[0]->name());
  nfs_servers_.push_back(std::make_unique<nfs::NfsServer>(
      fabric_, *storage_nodes_[0], kMdsPort, *mds_backend, translator_.get(),
      mds_server_config()));
  nfs_servers_.back()->start();
  const rpc::RpcAddress mds = nfs_servers_.back()->address();
  backends_.push_back(std::move(mds_backend));

  add_nfs_clients(mds, /*pnfs_enabled=*/true);
}

void Deployment::build_native_pvfs() {
  build_backend_cluster(config_.storage_nodes, 1.0);
  for (uint32_t i = 0; i < config_.clients; ++i) {
    auto& node = add_client_node("client" + std::to_string(i));
    const uint32_t tenant =
        config_.tenants != 0 ? 1 + (i % config_.tenants) : 0;
    fs_clients_.push_back(std::make_unique<PvfsFileSystemClient>(
        make_pvfs_client(node, "client" + std::to_string(i) + "@SIM", false,
                         tenant)));
  }
}

void Deployment::build_pnfs_2tier() {
  build_backend_cluster(config_.storage_nodes, 1.0);

  // Data servers co-located with the storage nodes, but each exports the
  // *whole* file system through a PVFS client; the synthetic layout has no
  // placement knowledge, so ~(N-1)/N of each DS's traffic is remote.
  std::vector<nfs::DeviceEntry> devices;
  for (uint32_t i = 0; i < config_.storage_nodes; ++i) {
    server_pvfs_clients_.push_back(make_pvfs_client(
        *storage_nodes_[i], "ds" + std::to_string(i) + "@SIM", true));
    auto backend = std::make_unique<PvfsBackend>(
        *server_pvfs_clients_.back(), registry_,
        StripeView{config_.stripe_unit, config_.storage_nodes, i});
    // These data servers reach PVFS through the kernel client, so every
    // data op crosses the kernel<->daemon boundary serialized by the
    // module's upcall queue, pinned across a (mostly remote) PVFS round
    // trip.  This intermediate-file-system traversal is exactly the
    // overhead the paper says Direct-pNFS eliminates (§5, Figure 5).
    auto conduit = std::make_unique<ConduitBackend>(
        *backend, *storage_nodes_[i], config_.vfs_conduit);
    nfs::ServerConfig scfg = config_.nfs_server;
    scfg.is_data_server = true;
    nfs_servers_.push_back(std::make_unique<nfs::NfsServer>(
        fabric_, *storage_nodes_[i], rpc::kNfsPort, *conduit, nullptr, scfg));
    nfs_servers_.back()->start();
    backends_.push_back(std::move(backend));
    backends_.push_back(std::move(conduit));
    devices.push_back(nfs::DeviceEntry{nfs::DeviceId{i},
                                       storage_nodes_[i]->id(), rpc::kNfsPort});
  }

  server_pvfs_clients_.push_back(
      make_pvfs_client(*storage_nodes_[0], "mds@SIM", true));
  auto mds_backend = std::make_unique<PvfsBackend>(*server_pvfs_clients_.back(),
                                                   registry_);
  synthetic_layouts_ =
      std::make_unique<SyntheticLayoutSource>(devices, config_.stripe_unit);
  synthetic_layouts_->attach_metrics(metrics_, storage_nodes_[0]->name());
  nfs_servers_.push_back(std::make_unique<nfs::NfsServer>(
      fabric_, *storage_nodes_[0], kMdsPort, *mds_backend,
      synthetic_layouts_.get(), mds_server_config()));
  nfs_servers_.back()->start();
  const rpc::RpcAddress mds = nfs_servers_.back()->address();
  backends_.push_back(std::move(mds_backend));

  add_nfs_clients(mds, /*pnfs_enabled=*/true);
}

void Deployment::build_pnfs_3tier() {
  // The six machines split: 3 storage nodes (holding all the disks) and 3
  // dedicated NFS data servers in front of them.
  const uint32_t storage_count = config_.storage_nodes / 2;
  const uint32_t ds_count = config_.three_tier_data_servers;
  build_backend_cluster(storage_count, config_.three_tier_disk_scale);

  std::vector<nfs::DeviceEntry> devices;
  std::vector<sim::Node*> ds_nodes;
  for (uint32_t i = 0; i < ds_count; ++i) {
    auto& node = net_.add_node(sim::NodeParams{.name = "ds" + std::to_string(i),
                                               .nic = config_.nic,
                                               .disk = std::nullopt,
                                               .cpu = config_.server_cpu});
    ds_nodes.push_back(&node);
    server_pvfs_clients_.push_back(
        make_pvfs_client(node, "ds" + std::to_string(i) + "@SIM", true));
    auto backend = std::make_unique<PvfsBackend>(
        *server_pvfs_clients_.back(), registry_,
        StripeView{config_.stripe_unit, ds_count, i});
    // Same serialized kernel-client traversal as the 2-tier data servers.
    auto conduit = std::make_unique<ConduitBackend>(*backend, node,
                                                    config_.vfs_conduit);
    nfs::ServerConfig scfg = config_.nfs_server;
    scfg.is_data_server = true;
    nfs_servers_.push_back(std::make_unique<nfs::NfsServer>(
        fabric_, node, rpc::kNfsPort, *conduit, nullptr, scfg));
    nfs_servers_.back()->start();
    backends_.push_back(std::move(backend));
    backends_.push_back(std::move(conduit));
    devices.push_back(
        nfs::DeviceEntry{nfs::DeviceId{i}, node.id(), rpc::kNfsPort});
  }

  server_pvfs_clients_.push_back(make_pvfs_client(*ds_nodes[0], "mds@SIM", true));
  auto mds_backend = std::make_unique<PvfsBackend>(*server_pvfs_clients_.back(),
                                                   registry_);
  synthetic_layouts_ =
      std::make_unique<SyntheticLayoutSource>(devices, config_.stripe_unit);
  synthetic_layouts_->attach_metrics(metrics_, ds_nodes[0]->name());
  nfs_servers_.push_back(std::make_unique<nfs::NfsServer>(
      fabric_, *ds_nodes[0], kMdsPort, *mds_backend, synthetic_layouts_.get(),
      mds_server_config()));
  nfs_servers_.back()->start();
  const rpc::RpcAddress mds = nfs_servers_.back()->address();
  backends_.push_back(std::move(mds_backend));

  add_nfs_clients(mds, /*pnfs_enabled=*/true);
}

void Deployment::build_plain_nfs() {
  build_backend_cluster(config_.storage_nodes, 1.0);

  auto& server_node = net_.add_node(sim::NodeParams{.name = "nfsd",
                                                    .nic = config_.nic,
                                                    .disk = std::nullopt,
                                                    .cpu = config_.server_cpu});
  server_pvfs_clients_.push_back(make_pvfs_client(server_node, "nfsd@SIM", true));
  auto backend = std::make_unique<PvfsBackend>(*server_pvfs_clients_.back(),
                                               registry_);
  nfs_servers_.push_back(std::make_unique<nfs::NfsServer>(
      fabric_, server_node, rpc::kNfsPort, *backend, nullptr,
      mds_server_config()));
  nfs_servers_.back()->start();
  const rpc::RpcAddress mds = nfs_servers_.back()->address();
  backends_.push_back(std::move(backend));

  add_nfs_clients(mds, /*pnfs_enabled=*/false);
}

// ---------------------------------------------------------------------------
// Introspection & lifecycle
// ---------------------------------------------------------------------------

Task<void> Deployment::mount_all() {
  for (auto& client : fs_clients_) co_await client->mount();
}

std::vector<lfs::ObjectStore*> Deployment::stores() {
  std::vector<lfs::ObjectStore*> out;
  out.reserve(stores_.size());
  for (auto& s : stores_) out.push_back(s.get());
  return out;
}

void Deployment::drop_all_server_caches() {
  for (auto& s : stores_) s->drop_caches();
}

uint64_t Deployment::disk_write_bytes() const {
  uint64_t total = 0;
  for (const auto& s : stores_) total += s->stats().disk_write_bytes;
  return total;
}

uint64_t Deployment::disk_read_bytes() const {
  uint64_t total = 0;
  for (const auto& s : stores_) total += s->stats().disk_read_bytes;
  return total;
}

uint64_t Deployment::server_tx_bytes() const {
  uint64_t total = 0;
  for (const sim::Node* n : storage_nodes_) {
    total += const_cast<sim::Node*>(n)->nic().tx_bytes();
  }
  return total;
}

uint64_t Deployment::server_rx_bytes() const {
  uint64_t total = 0;
  for (const sim::Node* n : storage_nodes_) {
    total += const_cast<sim::Node*>(n)->nic().rx_bytes();
  }
  return total;
}

void Deployment::print_traffic_report() const {
  std::printf("%-12s%14s%14s%14s%14s\n", "node", "nic tx", "nic rx",
              "disk write", "disk read");
  for (size_t i = 0; i < storage_nodes_.size(); ++i) {
    sim::Node* n = storage_nodes_[i];
    std::printf("%-12s%14s%14s%14s%14s\n", n->name().c_str(),
                util::format_bytes(n->nic().tx_bytes()).c_str(),
                util::format_bytes(n->nic().rx_bytes()).c_str(),
                util::format_bytes(stores_[i]->stats().disk_write_bytes).c_str(),
                util::format_bytes(stores_[i]->stats().disk_read_bytes).c_str());
  }
  for (sim::Node* n : client_nodes_) {
    std::printf("%-12s%14s%14s%14s%14s\n", n->name().c_str(),
                util::format_bytes(n->nic().tx_bytes()).c_str(),
                util::format_bytes(n->nic().rx_bytes()).c_str(), "-", "-");
  }
}

void Deployment::snapshot_resource_gauges() {
  // NICs exist on every node; only storage nodes have stores/disks.  Data
  // paths that bypass the instrumented daemons (Direct-pNFS serves stripe
  // objects straight from the local store) still show up here.
  for (uint32_t i = 0; i < net_.node_count(); ++i) {
    sim::Node& n = net_.node(i);
    metrics_.gauge(n.name(), "node", "nic_tx_bytes")
        .set(static_cast<double>(n.nic().tx_bytes()));
    metrics_.gauge(n.name(), "node", "nic_rx_bytes")
        .set(static_cast<double>(n.nic().rx_bytes()));
  }
  for (size_t i = 0; i < storage_nodes_.size(); ++i) {
    const std::string& name = storage_nodes_[i]->name();
    const lfs::ObjectStoreStats& st = stores_[i]->stats();
    metrics_.gauge(name, "node", "disk_write_bytes")
        .set(static_cast<double>(st.disk_write_bytes));
    metrics_.gauge(name, "node", "disk_read_bytes")
        .set(static_cast<double>(st.disk_read_bytes));
    metrics_.gauge(name, "node", "disk_writes")
        .set(static_cast<double>(st.disk_writes));
    metrics_.gauge(name, "node", "disk_reads")
        .set(static_cast<double>(st.disk_reads));
    metrics_.gauge(name, "node", "store_cache_hit_bytes")
        .set(static_cast<double>(st.cache_hit_bytes));
    metrics_.gauge(name, "node", "store_cache_miss_bytes")
        .set(static_cast<double>(st.cache_miss_bytes));
  }
}

// ---------------------------------------------------------------------------
// Utilization sampling
// ---------------------------------------------------------------------------

void Deployment::start_sampling() {
  if (sampling_ || config_.sample_interval <= 0) return;
  sampling_ = true;
  sampler_stop_ = false;
  sim_.spawn(sampler_loop());
}

void Deployment::stop_sampling() { sampler_stop_ = true; }

Task<void> Deployment::sampler_loop() {
  const sim::Duration interval = config_.sample_interval;
  const double window = static_cast<double>(interval);
  // Previous busy-time totals: utilization over a window is the delta of
  // the resource's busy accumulator divided by the window.
  std::vector<sim::Duration> prev_tx(net_.node_count(), 0);
  std::vector<sim::Duration> prev_rx(net_.node_count(), 0);
  std::vector<sim::Duration> prev_disk(storage_nodes_.size(), 0);
  for (uint32_t i = 0; i < net_.node_count(); ++i) {
    prev_tx[i] = net_.node(i).nic().tx_busy();
    prev_rx[i] = net_.node(i).nic().rx_busy();
  }
  for (size_t i = 0; i < storage_nodes_.size(); ++i) {
    prev_disk[i] = storage_nodes_[i]->disk().busy();
  }
  while (!sampler_stop_) {
    co_await sim_.delay(interval);
    if (sampler_stop_) break;
    const obs::TimeNs t = sim_.now();
    // Nodes added after the sampler started are not expected; guard anyway.
    const uint32_t n_nodes =
        static_cast<uint32_t>(std::min<size_t>(net_.node_count(),
                                               prev_tx.size()));
    for (uint32_t i = 0; i < n_nodes; ++i) {
      sim::Node& n = net_.node(i);
      const sim::Duration tx = n.nic().tx_busy();
      const sim::Duration rx = n.nic().rx_busy();
      samples_.add(n.name(), "nic_tx_util", t,
                   static_cast<double>(tx - prev_tx[i]) / window);
      samples_.add(n.name(), "nic_rx_util", t,
                   static_cast<double>(rx - prev_rx[i]) / window);
      prev_tx[i] = tx;
      prev_rx[i] = rx;
    }
    for (size_t i = 0; i < storage_nodes_.size(); ++i) {
      const std::string& name = storage_nodes_[i]->name();
      const sim::Duration db = storage_nodes_[i]->disk().busy();
      samples_.add(name, "disk_util", t,
                   static_cast<double>(db - prev_disk[i]) / window);
      prev_disk[i] = db;
      samples_.add(name, "store_dirty_bytes", t,
                   static_cast<double>(stores_[i]->dirty_bytes()));
    }
    // RPC queue depth per node, summed over the daemons it hosts.
    for (const auto& [node, d] : rpc_queue_depths()) {
      samples_.add(node, "rpc_queue_depth", t, d);
    }
    // Fold the fault/queue/restart/breaker signals into per-node health
    // states and track them as a numeric series (0 ok, 1 degraded,
    // 2 critical).
    evaluate_health();
    for (const auto& [node, h] : health_) {
      samples_.add(node, "health", t, static_cast<double>(h.level));
    }
  }
  sampling_ = false;
}

std::map<std::string, double> Deployment::rpc_queue_depths() {
  std::map<std::string, double> depth;
  for (const auto& s : nfs_servers_) {
    depth[net_.node(s->address().node_id).name()] +=
        static_cast<double>(s->rpc_queue_depth());
  }
  for (const auto& s : pvfs_storage_) {
    depth[net_.node(s->address().node_id).name()] +=
        static_cast<double>(s->rpc_queue_depth());
  }
  if (pvfs_meta_) {
    depth[net_.node(pvfs_meta_->address().node_id).name()] +=
        static_cast<double>(pvfs_meta_->rpc_queue_depth());
  }
  return depth;
}

void Deployment::evaluate_health() {
  const sim::Time now = sim_.now();
  const std::map<std::string, double> depth = rpc_queue_depths();

  // Restarts detected so far, per node (NFS servers + storage daemons).
  std::map<std::string, uint64_t> restarts;
  for (const auto& s : nfs_servers_) {
    restarts[net_.node(s->address().node_id).name()] += s->restarts_observed();
  }
  for (const auto& s : pvfs_storage_) {
    restarts[net_.node(s->address().node_id).name()] += s->restarts_observed();
  }

  // Circuit breakers tripped so far, per client node.
  std::map<std::string, uint64_t> breakers;
  for (const auto& [name, client] : health_clients_) {
    breakers[name] += client->stats().breaker_trips;
  }

  // A daemon the fault injector holds down right now.
  std::map<std::string, bool> down;
  if (fault_injector_ != nullptr) {
    for (const auto& s : nfs_servers_) {
      const rpc::RpcAddress a = s->address();
      if (fault_injector_->service_down(a.node_id, a.port, now)) {
        down[net_.node(a.node_id).name()] = true;
      }
    }
    for (const auto& s : pvfs_storage_) {
      const rpc::RpcAddress a = s->address();
      if (fault_injector_->service_down(a.node_id, a.port, now)) {
        down[net_.node(a.node_id).name()] = true;
      }
    }
    if (pvfs_meta_) {
      const rpc::RpcAddress a = pvfs_meta_->address();
      if (fault_injector_->service_down(a.node_id, a.port, now)) {
        down[net_.node(a.node_id).name()] = true;
      }
    }
  }

  health_.clear();
  for (uint32_t i = 0; i < net_.node_count(); ++i) {
    const sim::Node& n = net_.node(i);
    const std::string& name = n.name();
    NodeHealth h;
    if (auto it = breakers.find(name); it != breakers.end()) {
      const uint64_t delta = it->second - health_prev_breakers_[name];
      if (delta > 0) {
        h.level = 1;
        h.reason = util::sformat(
            "breaker trips +%llu", static_cast<unsigned long long>(delta));
      }
    }
    if (auto it = depth.find(name);
        it != depth.end() &&
        it->second >= static_cast<double>(config_.health_queue_threshold)) {
      h.level = std::max(h.level, 1);
      h.reason = util::sformat("rpc queue depth %.0f", it->second);
    }
    if (auto it = restarts.find(name); it != restarts.end()) {
      const uint64_t delta = it->second - health_prev_restarts_[name];
      if (delta > 0) {
        h.level = 2;
        h.reason = util::sformat(
            "service restarts +%llu", static_cast<unsigned long long>(delta));
      }
    }
    if (auto it = down.find(name); it != down.end() && it->second) {
      h.level = 2;
      h.reason = "service down (fault injection)";
    }
    if (fault_injector_ != nullptr &&
        fault_injector_->node_down(n.id(), now)) {
      h.level = 2;
      h.reason = "node down (fault injection)";
    }
    health_[name] = std::move(h);
  }
  for (const auto& [name, v] : restarts) health_prev_restarts_[name] = v;
  for (const auto& [name, v] : breakers) health_prev_breakers_[name] = v;
}

std::string Deployment::health_json() {
  evaluate_health();
  std::string out = "{";
  bool first = true;
  for (const auto& [name, h] : health_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += obs::json_escape(name);
    out += "\":{\"state\":\"";
    out += h.level == 0 ? "ok" : (h.level == 1 ? "degraded" : "critical");
    out += "\",\"reason\":\"";
    out += obs::json_escape(h.reason);
    out += "\"}";
  }
  out += "}";
  return out;
}

bool Deployment::write_flight(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = flight_.to_json();
  const size_t n = std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 && n == json.size();
}

std::string Deployment::metrics_json() {
  snapshot_resource_gauges();
  std::string out = "{\"architecture\":\"";
  out += obs::json_escape(architecture_name(config_.architecture));
  out += "\",\"sim_time_ns\":";
  out += std::to_string(sim_.now());
  out += ",\"nodes\":";
  out += metrics_.to_json();
  out += ",\"trace\":";
  out += tracer_.to_json();
  out += ",\"slo\":";
  out += tracer_.slo_json();
  out += ",\"tenants\":";
  out += tenants_ledger_.to_json();
  out += ",\"health\":";
  out += health_json();
  if (!samples_.empty()) {
    out += ",\"timeseries\":{\"interval_ns\":";
    out += std::to_string(config_.sample_interval);
    out += ",\"series\":";
    out += samples_.to_json();
    out += "}";
  }
  out += "}";
  return out;
}

std::string Deployment::trace_json() {
  return obs::TraceExporter::to_chrome_json(
      tracer_, architecture_name(config_.architecture),
      samples_.empty() ? nullptr : &samples_);
}

bool Deployment::write_trace(const std::string& path) {
  return obs::TraceExporter::write_file(
      path, tracer_, architecture_name(config_.architecture),
      samples_.empty() ? nullptr : &samples_);
}

void Deployment::print_metrics_report() {
  snapshot_resource_gauges();
  std::printf("== metrics report: %s ==\n",
              architecture_name(config_.architecture));
  std::fputs(metrics_.report().c_str(), stdout);
  std::printf(
      "trace: %llu traces, %llu rpc hops (mean %.2f max %u per trace), "
      "%llu spans recorded, %llu dropped\n",
      static_cast<unsigned long long>(tracer_.traces_started()),
      static_cast<unsigned long long>(tracer_.rpc_hops_total()),
      tracer_.mean_hops_per_trace(), tracer_.max_hops_per_trace(),
      static_cast<unsigned long long>(tracer_.spans_recorded()),
      static_cast<unsigned long long>(tracer_.spans_dropped()));
  std::printf(
      "sampling: rate %.4g, %llu traces sampled, %llu promoted, "
      "%llu spans sampled out\n",
      tracer_.sample_rate(),
      static_cast<unsigned long long>(tracer_.traces_sampled()),
      static_cast<unsigned long long>(tracer_.traces_promoted()),
      static_cast<unsigned long long>(tracer_.spans_sampled_out()));
}

}  // namespace dpnfs::core
