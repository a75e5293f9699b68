// PVFS2-like storage daemon.
//
// A thin RPC service over the node's ObjectStore.  Two PVFS2 traits the
// paper leans on are modeled explicitly:
//   * substantial fixed per-request overhead (user-level daemon, kernel
//     buffer crossings) — a CPU charge on every request;
//   * a fixed transfer-buffer pool between kernel and daemon — the RPC
//     worker count bounds request parallelism.
//
// Writes are buffered in the store (memory) and reach the disk on COMMIT —
// PVFS2's "send to stable storage only when necessary or on fsync".
#pragma once

#include <memory>

#include "lfs/object_store.hpp"
#include "rpc/fabric.hpp"

#include "pvfs/protocol.hpp"

namespace dpnfs::pvfs {

struct StorageServerConfig {
  uint32_t buffers = 8;                     ///< bounded transfer-buffer pool
  sim::Duration cpu_per_request = sim::us(450);
  double cpu_ns_per_byte = 2.2;
};

class PvfsStorageServer {
 public:
  PvfsStorageServer(rpc::RpcFabric& fabric, sim::Node& node, uint16_t port,
                    lfs::ObjectStore& store, StorageServerConfig config = {});

  void start() { rpc_server_->start(); }
  rpc::RpcAddress address() const { return rpc_server_->address(); }
  /// Requests queued at the RPC daemon right now (utilization sampler).
  size_t rpc_queue_depth() const { return rpc_server_->queue_depth(); }
  lfs::ObjectStore& store() noexcept { return store_; }

  /// Write verifier of the daemon incarnation serving right now (carried by
  /// kWrite and kCommit replies; see protocol.hpp).
  uint64_t boot_verifier() const noexcept { return boot_verifier_; }
  /// Restarts this daemon has detected and recovered from.
  uint64_t restarts_observed() const noexcept { return restarts_; }

 private:
  sim::Task<void> serve(const rpc::CallContext& ctx, rpc::XdrDecoder& args,
                        rpc::XdrEncoder& results);

  /// Lazily detects a fault-injector revive of this daemon (same contract as
  /// NfsServer::check_restart): on a boot-instance bump the store's
  /// buffered-but-uncommitted writes and page cache are gone and a fresh
  /// write verifier is adopted.  Journaled state (object existence, sizes of
  /// committed data) survives.
  void check_restart(sim::Time now);

  /// Records a kInternal "store/<op>" span under the request's server span
  /// so the critical-path analyzer can attribute daemon disk time (the
  /// `disk_ns` share of [start, now]) instead of folding it into CPU.
  void trace_store_op(const rpc::CallContext& ctx, const char* op,
                      int64_t start, uint64_t bytes_in, uint64_t bytes_out,
                      int64_t disk_ns) const;

  /// Charges the request's tenant (from the propagated call header) with the
  /// daemon-side data bytes and disk time of one store operation.  No-op
  /// when the fabric carries no tenant ledger.
  void account_store_op(const rpc::CallContext& ctx, uint64_t read_bytes,
                        uint64_t write_bytes, int64_t disk_ns) const;

  rpc::RpcFabric& fabric_;
  sim::Node& node_;
  uint16_t port_;
  lfs::ObjectStore& store_;
  StorageServerConfig config_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;

  // Boot identity: 0 = not yet observed (adopted without a reset on the
  // first request, so fault-free runs never shed state).
  uint64_t boot_instance_ = 0;
  uint64_t boot_verifier_ = 0;
  uint64_t restarts_ = 0;

  // "pvfs.io" component handles, resolved once at construction (null sinks
  // when the fabric carries no registry).
  obs::Counter* m_requests_;
  obs::Counter* m_bytes_read_;
  obs::Counter* m_bytes_written_;
  obs::Counter* m_commits_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace dpnfs::pvfs
