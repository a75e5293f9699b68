#include "core/deployment.hpp"

#include <algorithm>
#include <stdexcept>

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
    : config_(std::move(config)), net_(sim_, config_.network), fabric_(net_) {
  check_redundancy_geometry(config_);
  obs::Tracer& tracer = fabric_.tracer();
  tracer.set_span_capacity(config_.trace_span_capacity);
  tracer.set_sample_rate(config_.trace_sample_rate);
  tracer.set_sample_seed(
      util::Rng(config_.trace_sample_seed).next());  // decorrelate from ids
  tracer.set_slo_threshold(config_.trace_slo_threshold);
  tracer.set_staging_capacity(config_.trace_span_capacity);
  fabric_.tenants().set_slo_threshold(config_.trace_slo_threshold);
  // WARN+ log lines ride the flight ring, so a dump carries the log tail
  // without an always-on log file.  The previous sink is restored at
  // destruction (deployments nest in tests).
  prev_log_sink_ = util::set_log_sink(
      [this](util::LogLevel level, std::string_view component,
             int64_t sim_time_ns, std::string_view message) {
        fabric_.flight().record(sim_time_ns, "-", component,
                                level >= util::LogLevel::kError ? "log.error"
                                                                : "log.warn",
                                std::string(message));
      });
  // Before any node is added: nodes pick up their fault injector pointer as
  // they are added to the network.
  if (!config_.faults.empty()) {
    fault_injector_ = std::make_unique<sim::FaultInjector>(config_.faults);
    net_.set_fault_injector(fault_injector_.get());
  }
  config_.nfs_client.listio_max_regions = config_.listio_max_regions;
  config_.pvfs_client.listio_max_regions = config_.listio_max_regions;
  registry_ = std::make_shared<FhRegistry>();
  aggregations_ = std::make_shared<const nfs::AggregationRegistry>(
      full_aggregation_registry());

  // Every architecture shares the back end; 3-tier splits the machines, and
  // half of them hold all the disks (two per node, which do not double
  // bandwidth: three_tier_disk_scale).
  const bool three_tier = config_.architecture == Architecture::kPnfs3Tier;
  build_backend_cluster(
      three_tier ? config_.storage_nodes / 2 : config_.storage_nodes,
      three_tier ? config_.three_tier_disk_scale : 1.0);
  std::optional<rpc::RpcAddress> mds;
  switch (config_.architecture) {
    case Architecture::kDirectPnfs: mds = build_direct_pnfs(); break;
    case Architecture::kNativePvfs: break;
    case Architecture::kPnfs2Tier:
    case Architecture::kPnfs3Tier: mds = build_proxied_pnfs(); break;
    case Architecture::kPlainNfs:
      // One NFSv4 server exporting the PVFS client; no pNFS.
      mds = start_mds(add_server_node("nfsd"), "nfsd@SIM", rpc::kNfsPort, {});
      break;
  }
  add_clients(mds);
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

template <typename Daemon>
Daemon& Deployment::start(Daemon& daemon) {
  daemon.start();
  RunObserver::Daemon row{daemon.address(),
                          [&daemon] { return daemon.rpc_queue_depth(); }, {}};
  if constexpr (requires { daemon.restarts_observed(); }) {
    row.restarts = [&daemon] { return daemon.restarts_observed(); };
  }
  observer_.watch(std::move(row));
  return daemon;
}

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
    stores_.push_back(std::make_unique<lfs::ObjectStore>(node, config_.store));
    pvfs_storage_.push_back(std::make_unique<pvfs::PvfsStorageServer>(
        fabric_, node, rpc::kPvfsIoPort, *stores_.back(),
        config_.pvfs_storage));
    start(*pvfs_storage_.back());
  }
  // Metadata manager doubles on storage node 0 (paper §6.1).
  sim::Node& meta_node = stores_[0]->node();
  pvfs_meta_ = std::make_unique<pvfs::PvfsMetaServer>(
      fabric_, meta_node, rpc::kPvfsMetaPort, storage_count,
      pvfs::MetaServerConfig{.stripe_unit = config_.stripe_unit,
                             .distribution = config_.distribution,
                             .replicas = config_.replicas,
                             .ec_k = config_.ec_k,
                             .ec_m = config_.ec_m,
                             .spare_nodes = config_.spare_nodes});
  start(*pvfs_meta_);
  // Rebuild service co-located with the metadata manager.  It monitors the
  // injector's liveness view, so fault-free runs never construct one.
  if (config_.rebuild_enabled && fault_injector_ != nullptr) {
    rebuild_ = std::make_unique<RebuildManager>(
        fabric_, meta_node, *pvfs_meta_, storage_addresses(),
        fault_injector_.get(), config_.rebuild);
  }
}

sim::Node& Deployment::add_server_node(const std::string& name) {
  return net_.add_node(sim::NodeParams{.name = name,
                                       .nic = config_.nic,
                                       .disk = std::nullopt,
                                       .cpu = config_.server_cpu});
}

std::vector<rpc::RpcAddress> Deployment::storage_addresses() const {
  std::vector<rpc::RpcAddress> out;
  out.reserve(pvfs_storage_.size());
  for (const auto& s : pvfs_storage_) out.push_back(s->address());
  return out;
}

std::unique_ptr<pvfs::PvfsClient> Deployment::make_pvfs_client(
    sim::Node& node, const std::string& who,
    const pvfs::PvfsClientConfig& cfg) {
  return std::make_unique<pvfs::PvfsClient>(fabric_, node,
                                            pvfs_meta_->address(),
                                            storage_addresses(), who, cfg);
}

pvfs::PvfsClientConfig Deployment::proxy_client_config() const {
  // Server-side proxies (NFS servers re-exporting the PFS) pay the extra
  // same-box copy cost, and bill no tenant of their own: each proxied call
  // carries its caller's.
  pvfs::PvfsClientConfig cfg = config_.pvfs_client;
  cfg.cpu_ns_per_byte += config_.proxy_extra_cpu_ns_per_byte;
  cfg.tenant_id = 0;
  return cfg;
}

void Deployment::start_data_server(sim::Node& node, nfs::DataBackend& exported,
                                   std::vector<nfs::DeviceEntry>& devices) {
  nfs_servers_.push_back(nfs::NfsServer::data_server(
      fabric_, node, rpc::kNfsPort, exported, config_.nfs_server));
  start(*nfs_servers_.back());
  devices.push_back(nfs::DeviceEntry{
      nfs::DeviceId{static_cast<uint32_t>(devices.size())}, node.id(),
      rpc::kNfsPort});
}

rpc::RpcAddress Deployment::start_mds(
    sim::Node& node, const std::string& who, uint16_t port,
    const std::vector<nfs::DeviceEntry>& devices) {
  // Direct-pNFS's MDS links the PFS library directly (Figure 5), skipping
  // the kernel module's metadata upcall path; the others re-export PVFS.
  const bool direct = config_.architecture == Architecture::kDirectPnfs;
  pvfs::PvfsClientConfig cfg =
      direct ? config_.pvfs_client : proxy_client_config();
  if (direct) cfg.vfs_meta_latency = 0;
  server_pvfs_clients_.push_back(make_pvfs_client(node, who, cfg));
  auto backend = std::make_unique<PvfsBackend>(*server_pvfs_clients_.back(),
                                               registry_);
  nfs::LayoutSource* layouts = nullptr;
  if (direct) {
    translator_ = std::make_unique<LayoutTranslator>(
        *backend, devices, fabric_.metrics(), node.name());
    layouts = translator_.get();
  } else if (!devices.empty()) {
    synthetic_layouts_ = std::make_unique<SyntheticLayoutSource>(
        devices, config_.stripe_unit, fabric_.metrics(), node.name());
    layouts = synthetic_layouts_.get();
  }
  nfs::ServerConfig scfg = config_.nfs_server;
  scfg.grace_period = config_.mds_grace_period;
  nfs_servers_.push_back(std::make_unique<nfs::NfsServer>(
      fabric_, node, port, *backend, layouts, scfg));
  backends_.push_back(std::move(backend));
  return start(*nfs_servers_.back()).address();
}

void Deployment::add_clients(std::optional<rpc::RpcAddress> mds) {
  nfs::ClientConfig ccfg = config_.nfs_client;
  ccfg.pnfs_enabled = config_.architecture != Architecture::kPlainNfs;
  pvfs::PvfsClientConfig pcfg = config_.pvfs_client;
  for (uint32_t i = 0; i < config_.clients; ++i) {
    const std::string name = "client" + std::to_string(i);
    auto& node = net_.add_node(sim::NodeParams{.name = name,
                                               .nic = config_.nic,
                                               .disk = std::nullopt,
                                               .cpu = config_.client_cpu});
    client_nodes_.push_back(&node);
    const uint32_t tenant =
        config_.tenants != 0 ? 1 + (i % config_.tenants) : 0;
    if (!mds) {
      pcfg.tenant_id = tenant;
      fs_clients_.push_back(std::make_unique<PvfsFileSystemClient>(
          make_pvfs_client(node, name + "@SIM", pcfg)));
      continue;
    }
    ccfg.tenant_id = tenant;
    fs_clients_.push_back(std::make_unique<NfsFileSystemClient>(
        std::make_unique<nfs::NfsClient>(fabric_, node, *mds, name + "@SIM",
                                         ccfg, aggregations_)));
  }
}

// ---------------------------------------------------------------------------
// Access paths
// ---------------------------------------------------------------------------

rpc::RpcAddress Deployment::build_direct_pnfs() {
  // NFSv4.1 data server on every storage node, exporting the local stripe
  // objects directly (filehandle == stripe-object id, per the translator).
  std::vector<nfs::DeviceEntry> devices;
  for (uint32_t i = 0; i < config_.storage_nodes; ++i) {
    sim::Node& node = stores_[i]->node();
    auto objects = std::make_unique<nfs::ObjectBackend>(
        *stores_[i], fabric_.tracer(), fabric_.tenants());
    // Figure 5 fidelity: the prototype data server reaches its stripe
    // objects through the local PVFS2 client/daemon buffer pool.
    auto conduit =
        std::make_unique<ConduitBackend>(*objects, node, config_.conduit);
    start_data_server(node, *conduit, devices);
    backends_.push_back(std::move(objects));
    backends_.push_back(std::move(conduit));
  }
  // MDS co-located with the PVFS metadata manager on storage node 0.  Its
  // PVFS client's meta/storage traffic to node 0 rides the loopback.
  return start_mds(stores_[0]->node(), "mds@SIM", kMdsPort, devices);
}

rpc::RpcAddress Deployment::build_proxied_pnfs() {
  // 2-tier runs a data server on every storage node; 3-tier runs them on
  // dedicated diskless nodes in front of the storage nodes.  Either way
  // each exports the *whole* file system through a PVFS client; the
  // synthetic layout has no placement knowledge, so ~(N-1)/N of each DS's
  // traffic is remote.
  const bool three_tier = config_.architecture == Architecture::kPnfs3Tier;
  const uint32_t ds_count =
      three_tier ? config_.three_tier_data_servers : config_.storage_nodes;
  std::vector<nfs::DeviceEntry> devices;
  sim::Node* first = nullptr;
  for (uint32_t i = 0; i < ds_count; ++i) {
    const std::string name = "ds" + std::to_string(i);
    sim::Node& node = three_tier ? add_server_node(name) : stores_[i]->node();
    if (first == nullptr) first = &node;
    server_pvfs_clients_.push_back(
        make_pvfs_client(node, name + "@SIM", proxy_client_config()));
    auto backend = std::make_unique<PvfsBackend>(
        *server_pvfs_clients_.back(), registry_,
        StripeView{config_.stripe_unit, ds_count, i});
    // These data servers reach PVFS through the kernel client, so every
    // data op crosses the kernel<->daemon boundary serialized by the
    // module's upcall queue, pinned across a (mostly remote) PVFS round
    // trip.  This intermediate-file-system traversal is exactly the
    // overhead the paper says Direct-pNFS eliminates (§5, Figure 5).
    auto conduit = std::make_unique<ConduitBackend>(*backend, node,
                                                    config_.vfs_conduit);
    start_data_server(node, *conduit, devices);
    backends_.push_back(std::move(backend));
    backends_.push_back(std::move(conduit));
  }
  // The MDS shares the first data server's node.
  return start_mds(*first, "mds@SIM", kMdsPort, devices);
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
  for (const auto& s : stores_) total += s->node().nic().tx_bytes();
  return total;
}

uint64_t Deployment::server_rx_bytes() const {
  uint64_t total = 0;
  for (const auto& s : stores_) total += s->node().nic().rx_bytes();
  return total;
}

}  // namespace dpnfs::core
