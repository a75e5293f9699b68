// PVFS2-like metadata server.
//
// Owns the namespace and file distribution metadata.  File creation assigns
// dfiles round-robin across the storage nodes (rotating the starting node
// per file, as PVFS2 does, so single-dfile-heavy workloads spread).
//
// The layout translator (src/core) reads distribution metadata through
// `describe()` — the co-located, in-process access path of the Direct-pNFS
// prototype (Figure 5: the pNFS server and PVFS2 metadata server share a
// node).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pvfs/protocol.hpp"
#include "rpc/fabric.hpp"

namespace dpnfs::pvfs {

struct MetaServerConfig {
  uint64_t stripe_unit = 2ull << 20;  ///< paper: 2 MB stripes
  uint32_t workers = 8;
  sim::Duration cpu_per_op = sim::us(30);

  /// Distribution kind for new files.  kMirror uses `replicas` dfiles;
  /// kErasure uses ec_k + ec_m.  kStripe stripes over every active node.
  DistKind distribution = DistKind::kStripe;
  uint32_t replicas = 2;
  uint32_t ec_k = 4;
  uint32_t ec_m = 2;
  /// Trailing storage nodes held out of new distributions as rebuild
  /// spares.  Active nodes are [0, storage_count - spare_nodes).
  uint32_t spare_nodes = 0;
};

class PvfsMetaServer {
 public:
  /// `storage_count` storage nodes exist; dfiles reference them by index.
  PvfsMetaServer(rpc::RpcFabric& fabric, sim::Node& node, uint16_t port,
                 uint32_t storage_count, MetaServerConfig config = {});

  void start() { rpc_server_->start(); }
  rpc::RpcAddress address() const { return rpc_server_->address(); }
  /// Requests queued at the RPC daemon right now (utilization sampler).
  size_t rpc_queue_depth() const { return rpc_server_->queue_depth(); }

  /// In-process metadata access for co-located services (layout translator).
  /// Returns nullptr when the path is not a regular file.
  const FileMeta* describe(const std::string& path) const;

  /// In-process lookup by file handle (for translator use from NFS fhs).
  const FileMeta* describe(uint64_t handle) const;

  uint32_t storage_count() const noexcept { return storage_count_; }
  uint64_t stripe_unit() const noexcept { return config_.stripe_unit; }
  const MetaServerConfig& config() const noexcept { return config_; }
  /// Storage nodes currently receiving new distributions.
  uint32_t active_storage() const noexcept {
    return storage_count_ - std::min(storage_count_, config_.spare_nodes);
  }

  // --- Rebuild-service hooks (in-process, MDS-co-located) ---------------

  /// Visits every regular file's distribution metadata.  The visitor may
  /// mutate dfile placements (rebuild retargets a dead node's dfiles).
  void for_each_file(const std::function<void(FileMeta&)>& fn);

  /// Allocates a fresh storage object id (rebuild targets).
  uint64_t allocate_object() { return next_object_++; }

 private:
  struct Entry {
    bool is_dir = false;
    FileMeta meta;  ///< regular files only
    std::map<std::string, std::unique_ptr<Entry>> children;
  };

  sim::Task<void> serve(const rpc::CallContext& ctx, rpc::XdrDecoder& args,
                        rpc::XdrEncoder& results);

  /// Resolves a path to an entry; nullptr if missing.
  Entry* walk(const std::string& path);
  const Entry* walk(const std::string& path) const;
  /// Resolves the parent directory of `path` and the leaf name.
  PvfsStatus walk_parent(const std::string& path, Entry** parent,
                         std::string* leaf);

  FileMeta make_distribution();

  rpc::RpcFabric& fabric_;
  sim::Node& node_;
  uint32_t storage_count_;
  MetaServerConfig config_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;

  Entry root_;
  uint64_t next_handle_ = 1;
  uint64_t next_object_ = 1;
  uint32_t next_start_node_ = 0;
  std::map<uint64_t, const FileMeta*> by_handle_;
};

}  // namespace dpnfs::pvfs
