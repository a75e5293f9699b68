// NFSv4.1 server: COMPOUND dispatch, sessions, open state, pNFS ops.
//
// One NfsServer exports one Backend through the RPC fabric, or — on a pNFS
// data server — only a DataBackend.  The paper's configuration — eight nfsd
// threads — maps to eight RPC worker coroutines.
// CPU cost is charged per operation plus per byte moved, which is what makes
// warm-cache reads CPU-bound at scale (paper §6.2.1).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "nfs/backend.hpp"
#include "rpc/fabric.hpp"

namespace dpnfs::nfs {

struct ServerConfig {
  uint32_t worker_threads = 8;        ///< nfsd threads (paper: 8)
  sim::Duration cpu_per_op = sim::us(12);
  double cpu_ns_per_byte = 2.2;       ///< copy/checksum cost on data ops
  /// RPCSEC_GSS stand-in: when non-empty, calls whose principal does not
  /// end with this suffix are rejected with NFS4ERR_PERM.  Because both
  /// the control path (MDS) and the data path (data servers) speak NFSv4,
  /// one credential covers everything — the access-transparency property
  /// Direct-pNFS inherits (paper §4).
  std::string required_principal_suffix;
  /// Grace window after a restart (RFC 5661 §8.4 flavour): for this long,
  /// a SEQUENCE on a session the revived instance does not know answers
  /// NFS4ERR_GRACE — "I restarted, reclaim your state" — instead of a bare
  /// NFS4ERR_BADSESSION.  State *establishment* (EXCHANGE_ID,
  /// CREATE_SESSION, LAYOUTGET reclaim) is always admitted.  0 (the
  /// default, used on data servers) skips the grace distinction: stateless
  /// per-stripe I/O recovers through session re-creation alone.
  sim::Duration grace_period = 0;
};

class NfsServer {
 public:
  /// A metadata or standalone server: exports `backend`'s namespace and
  /// data path, and pNFS layouts when `layouts` is given.
  NfsServer(rpc::RpcFabric& fabric, sim::Node& node, uint16_t port,
            Backend& backend, LayoutSource* layouts = nullptr,
            ServerConfig config = {});

  /// A pNFS data server: exports only `data`, with no namespace and no
  /// layouts, so it answers every op off the data path with NOTSUPP.
  static std::unique_ptr<NfsServer> data_server(rpc::RpcFabric& fabric,
                                                sim::Node& node, uint16_t port,
                                                DataBackend& data,
                                                ServerConfig config = {});

  void start() { rpc_server_->start(); }
  void stop() { rpc_server_->stop(); }

  rpc::RpcAddress address() const { return rpc_server_->address(); }
  /// Requests queued at the RPC daemon right now (utilization sampler).
  size_t rpc_queue_depth() const { return rpc_server_->queue_depth(); }
  sim::Node& node() noexcept { return node_; }
  const ServerConfig& config() const noexcept { return config_; }

  /// Write verifier of the incarnation serving right now (the cookie WRITE
  /// and COMMIT replies carry).  Stable across a fault-free run.
  uint64_t boot_verifier() const noexcept { return boot_verifier_; }
  /// Restarts this server has detected and recovered from.
  uint64_t restarts_observed() const noexcept { return restarts_; }

 private:
  NfsServer(rpc::RpcFabric& fabric, sim::Node& node, uint16_t port,
            DataBackend& data, Backend* names, LayoutSource* layouts,
            ServerConfig config);

  /// Executes one COMPOUND (the RpcService body).
  sim::Task<void> serve(const rpc::CallContext& ctx, rpc::XdrDecoder& args,
                        rpc::XdrEncoder& results);

  /// Per-op dispatch; returns the op status and encodes its result body.
  /// `session` is the id carried by this compound's SEQUENCE (0 if none).
  sim::Task<Status> dispatch(OpCode op, const rpc::CallContext& ctx,
                             rpc::XdrDecoder& args, rpc::XdrEncoder& results,
                             FileHandle& current_fh, FileHandle& saved_fh,
                             uint64_t& session);

  bool stateid_ok(const Stateid& sid) const;

  /// Lazily detects a boot-instance bump (the fault injector revived this
  /// service after a crash window).  On a bump: all volatile NFSv4.1 state
  /// — sessions, open state, layout/delegation holders — is gone, the
  /// backend sheds its volatile data, a fresh write verifier is adopted,
  /// and (when configured) a grace window opens.  Equivalent to an eager
  /// revive hook: nothing is served between the crash and the next request.
  void check_restart(sim::Time now);
  uint64_t current_instance(sim::Time now) const;
  uint64_t current_verifier(sim::Time now) const;
  bool in_grace(sim::Time now) const noexcept {
    return now < grace_until_;
  }

  sim::Task<void> charge_cpu(uint64_t data_bytes);

  /// CB_LAYOUTRECALL to every layout holder of `fh` with a backchannel.
  /// Completes once every holder has acknowledged (and thereby returned
  /// the layout).
  sim::Task<void> recall_layouts(FileHandle fh);

  /// CB_RECALL to every delegation holder of `fh`, except `keep_session`
  /// (the conflicting requester's own delegation survives an upgrade).
  sim::Task<void> recall_delegations(FileHandle fh, uint64_t keep_session);

  /// Shared recall machinery: sends `proc` to each holder's backchannel.
  sim::Task<void> send_recalls(FileHandle fh, std::set<uint64_t> holders,
                               uint32_t proc);

  rpc::RpcFabric& fabric_;
  sim::Node& node_;
  uint16_t port_;
  DataBackend& data_;
  Backend* names_;  ///< null on a data server
  LayoutSource* layouts_;
  ServerConfig config_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;
  std::unique_ptr<rpc::RpcClient> cb_client_;  ///< backchannel caller

  // Boot identity: 0 = not yet observed (adopted without a reset on the
  // first compound, so fault-free runs never shed state).
  uint64_t boot_instance_ = 0;
  uint64_t boot_verifier_ = 0;
  sim::Time grace_until_ = 0;
  uint64_t restarts_ = 0;
  /// False while a "grace.exit" flight event is still owed for the current
  /// grace window (armed by check_restart when grace begins).
  bool grace_logged_ = true;

  uint64_t next_client_id_ = 1;
  uint64_t next_session_id_ = 1;
  uint64_t next_stateid_ = 1;
  std::set<uint64_t> sessions_;
  /// session id -> backchannel address (absent: no backchannel).
  std::unordered_map<uint64_t, rpc::RpcAddress> backchannels_;
  /// fh id -> sessions holding a layout for it.
  std::unordered_map<uint64_t, std::set<uint64_t>> layout_holders_;
  /// fh id -> sessions holding a read delegation.
  std::unordered_map<uint64_t, std::set<uint64_t>> delegation_holders_;
  /// fh id -> number of write-mode opens (delegation-conflict detection).
  std::unordered_map<uint64_t, uint32_t> write_opens_;

  struct OpenState {
    FileHandle fh;
    bool write = false;
  };
  std::unordered_map<uint64_t, OpenState> open_states_;  // stateid -> state

  // "nfs.server" component handles, resolved once at construction.
  obs::Counter* m_compounds_;
  obs::Counter* m_read_bytes_;
  obs::Counter* m_write_bytes_;
  obs::Counter* m_layouts_recalled_;
  obs::Counter* m_delegation_recalls_;
};

}  // namespace dpnfs::nfs
