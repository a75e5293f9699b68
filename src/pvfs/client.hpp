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
  /// List I/O: fold up to this many (offset, length) regions of one dfile
  /// into a single kReadv/kWritev request.  1 turns it off: every region is
  /// its own request.
  uint32_t listio_max_regions = 64;
  /// Tenant identity stamped into RPCs this client *originates* (0: none).
  /// Proxied calls (a pNFS server serving some tenant's I/O) propagate the
  /// tenant riding in on the serving request instead.
  uint32_t tenant_id = 0;
};

struct PvfsClientStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t storage_requests = 0;
  // Crash-recovery accounting: the node's "client.replay" counters (the
  // ones nfs::ClientStats reads too).
  uint64_t verifier_mismatches = 0;
  uint64_t replayed_extents = 0;
  uint64_t replayed_bytes = 0;
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

  /// A copy, not a live view.  The replay fields are read from the
  /// registry, whose "client.replay" counters are per node: where two PVFS
  /// clients share a node (on 2-tier and 3-tier, the node running both the
  /// MDS and data server 0), both report the node's sum, exactly what the
  /// metrics export shows.
  PvfsClientStats stats() const;
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

  /// One storage-request-sized piece of a read or write: a region of one
  /// dfile and its bytes (to send, or read back).
  struct Piece {
    uint32_t dfile_index = 0;
    uint64_t file_offset = 0;
    IoRegion region;  ///< offset and length within the dfile
    rpc::Payload data;
  };

  /// Runs `make_task(i)` for every i in [0, n): each task is made (any
  /// synchronous work in `make_task` runs then) and spawned in index order,
  /// and all are awaited.  Returns how many failed with a PvfsError; each
  /// caller applies its own failure rule.  `make_task` outlives every task
  /// it makes, so it may be a capturing coroutine lambda.
  template <typename MakeTask>
  sim::Task<uint32_t> fan_out(size_t n, MakeTask make_task);

  /// One metadata request; throws PvfsError(status, what) unless the reply
  /// status is kOk.  The returned reply's body() starts after the status.
  sim::Task<rpc::RpcClient::Reply> meta_call(MetaProc proc,
                                             rpc::XdrEncoder args,
                                             std::string what);
  /// One storage request through the buffer pool (charges client CPU).
  /// Throws PvfsError on a failed call; the reply body starts with the
  /// daemon's status.
  sim::Task<rpc::RpcClient::Reply> io_call(uint32_t server_index, IoProc proc,
                                           rpc::XdrEncoder args,
                                           uint64_t data_bytes,
                                           obs::TraceContext trace = {});
  /// io_call for a procedure with no results; throws PvfsError(kIo, what)
  /// unless the daemon answers kOk.
  sim::Task<void> checked_call(uint32_t server_index, IoProc proc,
                               rpc::XdrEncoder args, const char* what);
  static PvfsStatus reply_status(rpc::XdrDecoder& dec);
  /// A decoder over a storage reply's results, past its status.  Throws
  /// PvfsError(kIo, what) unless the status is kOk.
  static rpc::XdrDecoder ok_results(const rpc::RpcClient::Reply& reply,
                                    const char* what);

  /// Cuts stripe extents into pieces of at most buffer_size bytes.
  std::vector<Piece> cut_pieces(const std::vector<StripeExtent>& extents) const;
  /// Groups pieces into list requests: by dfile, in dfile-index order, then
  /// split at listio_max_regions regions or buffer_size bytes (1 region each
  /// with list I/O off).  Returns piece indexes per request.
  std::vector<std::vector<size_t>> batch_pieces(
      const std::vector<Piece>& pieces) const;
  /// Reads pieces `idx` of one dfile in a single request into their `data`,
  /// each zero-padded to its region's length: dfile holes read as zeros.
  sim::Task<void> read_regions(DfileRef dfile, std::vector<Piece>& pieces,
                               const std::vector<size_t>& idx,
                               obs::TraceContext trace);
  /// Sends pieces `idx` of one dfile in a single unstable write carrying
  /// their bytes concatenated in list order.  Returns the daemon's boot
  /// verifier, which covers every region.
  sim::Task<uint64_t> write_regions(DfileRef dfile,
                                    const std::vector<Piece>& pieces,
                                    const std::vector<size_t>& idx,
                                    obs::TraceContext trace);

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
  std::vector<DaemonState> daemons_;
  uint64_t retain_seq_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t storage_requests_ = 0;

  // "client.replay" component handles, resolved once at construction.
  obs::Counter* m_verifier_mismatches_;
  obs::Counter* m_replayed_extents_;
  obs::Counter* m_replayed_bytes_;
};

}  // namespace dpnfs::pvfs
