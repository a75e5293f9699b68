// PVFS2-like native client.
//
// The properties the paper attributes to PVFS2 1.5.1 are implemented
// directly (§5, §6.2):
//   * no client data cache and no write-back cache — every application
//     request goes to the storage nodes;
//   * large transfer buffers with *limited request parallelization* — a
//     bounded buffer pool gates concurrent storage requests;
//   * substantial fixed per-request overhead — a CPU charge on every
//     storage request;
//   * data buffered on storage nodes, committed on fsync/close.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pvfs/protocol.hpp"
#include "rpc/fabric.hpp"

namespace dpnfs::pvfs {

struct PvfsClientConfig {
  uint32_t buffer_count = 8;              ///< concurrent storage requests
  uint64_t buffer_size = 4ull << 20;      ///< max bytes per storage request
  sim::Duration cpu_per_request = sim::us(400);
  /// Kernel<->user-level-daemon crossing cost on the client box.
  double cpu_ns_per_byte = 4.0;
  /// Latency of a metadata operation through the kernel module's upcall
  /// queue (PVFS2 1.x metadata ops were notoriously slow through the VFS).
  /// Zero for co-located services with direct library access (the
  /// Direct-pNFS metadata server of Figure 5).
  sim::Duration vfs_meta_latency = sim::ms(20);
  /// Per-attempt RPC deadline for storage/meta requests.  Zero keeps the
  /// legacy untimed behavior (requests to a crashed daemon park until it
  /// revives); fault-tolerance runs set a deadline so the client can detect
  /// the outage and drive write replay.
  sim::Duration io_timeout = 0;
  uint32_t io_retries = 1;        ///< attempts per storage request (>= 1)
  sim::Duration meta_timeout = 0;
  uint32_t meta_retries = 1;
  /// List I/O: fold multiple (offset, length) regions of one dfile into a
  /// single kReadv/kWritev request.  Off, every region is its own request.
  bool listio_enabled = true;
  uint32_t listio_max_regions = 64;  ///< regions per vectored request
  /// Tenant identity stamped into RPCs this client *originates* (0: none).
  /// Proxied calls (a pNFS server serving some tenant's I/O) propagate the
  /// tenant riding in on the serving request instead.
  uint32_t tenant_id = 0;
};

struct PvfsClientStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t storage_requests = 0;
  uint64_t meta_requests = 0;
  // Crash-recovery accounting (mirrors nfs::ClientStats replay counters).
  uint64_t verifier_mismatches = 0;
  uint64_t replayed_extents = 0;
  uint64_t replayed_bytes = 0;
  // List I/O accounting: kReadv/kWritev requests, regions they carried and
  // bytes they moved (single-region requests go out as classic kRead/kWrite
  // and are not counted here).
  uint64_t vectored_requests = 0;
  uint64_t vectored_regions = 0;
  uint64_t vectored_bytes = 0;
};

/// An open PVFS2 file: distribution metadata plus a cached logical size.
struct PvfsFile {
  FileMeta meta;
  /// Client's view, refreshed by `fetch_size`.  Native clients gather on
  /// every open and stat; a pNFS server's embedded client keeps this
  /// current from LAYOUTCOMMIT and its own writes instead.
  uint64_t size = 0;
};
using PvfsFilePtr = std::shared_ptr<PvfsFile>;

class PvfsClient {
 public:
  PvfsClient(rpc::RpcFabric& fabric, sim::Node& node, rpc::RpcAddress meta,
             std::vector<rpc::RpcAddress> storage, std::string principal,
             PvfsClientConfig config = {});

  // -- Namespace -------------------------------------------------------------
  sim::Task<void> mkdir(const std::string& path);
  sim::Task<void> remove(const std::string& path);
  sim::Task<void> rename(const std::string& from, const std::string& to);
  /// (name, is_dir) pairs.
  sim::Task<std::vector<std::pair<std::string, bool>>> readdir(
      const std::string& path);

  // -- Files -----------------------------------------------------------------
  sim::Task<PvfsFilePtr> create(const std::string& path);
  sim::Task<PvfsFilePtr> open(const std::string& path);
  // Data operations take an optional trace context: when a pNFS data server
  // proxies client I/O through this PVFS client, the storage RPCs it issues
  // are recorded as child hops of the NFS request being served.
  sim::Task<rpc::Payload> read(PvfsFilePtr file, uint64_t offset,
                               uint64_t length, obs::TraceContext trace = {});
  sim::Task<void> write(PvfsFilePtr file, uint64_t offset, rpc::Payload data,
                        obs::TraceContext trace = {});
  sim::Task<void> fsync(PvfsFilePtr file, obs::TraceContext trace = {});
  /// Commits buffered data (matching the exported-FS semantics of §5).
  sim::Task<void> close(PvfsFilePtr file);
  /// Gathers dfile sizes from the storage nodes (PVFS2-style getattr).
  sim::Task<uint64_t> fetch_size(PvfsFilePtr file);
  sim::Task<void> truncate(PvfsFilePtr file, uint64_t size);

  const PvfsClientStats& stats() const noexcept { return stats_; }
  const PvfsClientConfig& config() const noexcept { return config_; }

  /// Forgets all retained/stale write pieces and known daemon verifiers.
  /// Called when the *host* of this client restarts (e.g. a pNFS data
  /// server proxying through it): the new incarnation must not resurrect
  /// the dead incarnation's buffered bytes.
  void drop_replay_state();

 private:
  /// One uncommitted write piece.  `seq` is the retention order: a kCommit
  /// only retires pieces whose reply arrived before it was issued (seq <=
  /// the snapshot taken at issue time), so a write racing the commit keeps
  /// its retention.
  struct RetainedPiece {
    uint64_t seq = 0;
    rpc::Payload data;
  };
  /// dfile offset -> bytes (non-overlapping; newest wins on insert).
  using PieceMap = std::map<uint64_t, RetainedPiece>;

  /// Uncommitted writes sent to one storage daemon incarnation.  PVFS2 has
  /// no client cache, so the retained kWrite payloads here are the client's
  /// only copy until a matching-verifier kCommit retires them.
  struct DaemonState {
    bool verifier_known = false;
    uint64_t verifier = 0;
    /// object id -> pieces awaiting commit by the incarnation above.
    std::map<uint64_t, PieceMap> retained;
    /// Pieces orphaned by a daemon restart (verifier changed before their
    /// commit): must be re-sent by the next fsync.
    std::map<uint64_t, PieceMap> stale;
  };

  /// One (dfile offset, length) region of a vectored storage request.
  struct IoRange {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  sim::Task<rpc::RpcClient::Reply> meta_call(MetaProc proc,
                                             rpc::XdrEncoder args);
  /// One storage request through the buffer pool (charges client CPU).
  sim::Task<rpc::RpcClient::Reply> io_call(uint32_t server_index, IoProc proc,
                                           rpc::XdrEncoder args,
                                           uint64_t data_bytes,
                                           obs::TraceContext trace = {});
  /// Fetches `regions` of one dfile in a single request (a 1-element list
  /// goes out as the classic kRead).  Each returned payload is zero-padded
  /// to its region's length: dfile holes read as zeros.
  sim::Task<std::vector<rpc::Payload>> read_regions(
      const DfileRef& dfile, const std::vector<IoRange>& regions,
      obs::TraceContext trace);
  /// Sends `regions` of one dfile in a single unstable write carrying the
  /// regions' bytes concatenated in list order (1-element lists use the
  /// classic kWrite).  Returns the daemon's boot verifier, which covers
  /// every region.
  sim::Task<uint64_t> write_regions(const DfileRef& dfile,
                                    const std::vector<IoRange>& regions,
                                    rpc::Payload data, obs::TraceContext trace);
  static PvfsStatus reply_status(rpc::XdrDecoder& dec);

  /// Adopts a write verifier observed in a kWrite/kCommit reply from daemon
  /// `server_index`.  A change moves every retained piece to the stale set
  /// (the incarnation holding them is gone) and counts a mismatch.
  void note_daemon_verifier(uint32_t server_index, uint64_t verifier);
  /// Records a successfully sent unstable write for replay, newest-wins
  /// over any earlier retained/stale piece it overlaps.
  void retain_piece(uint32_t server_index, uint64_t object_id,
                    uint64_t dfile_offset, rpc::Payload piece);
  /// Trims [offset, offset+len) out of a piece map (splitting pieces that
  /// straddle a boundary).
  static void trim_range(PieceMap& pieces, uint64_t offset, uint64_t len);
  /// Re-sends stale pieces belonging to `file`'s dfiles.  Returns the
  /// number of pieces replayed; throws if a daemon stays unreachable.
  sim::Task<uint64_t> replay_stale(PvfsFilePtr file, obs::TraceContext trace);

  rpc::RpcFabric& fabric_;
  sim::Node& node_;
  rpc::RpcAddress meta_;
  std::vector<rpc::RpcAddress> storage_;
  rpc::RpcClient rpc_;
  PvfsClientConfig config_;
  sim::Semaphore buffers_;
  PvfsClientStats stats_;
  std::vector<DaemonState> daemons_;
  uint64_t retain_seq_ = 0;

  obs::Counter* m_verifier_mismatches_;
  obs::Counter* m_replayed_extents_;
  obs::Counter* m_replayed_bytes_;
};

}  // namespace dpnfs::pvfs
