// NFSv4.1 client with pNFS file-layout support.
//
// This is the "stock NFSv4.1 client" of the paper: it implements
//   * sessions (EXCHANGE_ID / CREATE_SESSION, bounded slot tables),
//   * a write-back data cache that coalesces application writes into
//     wsize-sized WRITEs (the reason Figs 6d/6e match 6a/6b),
//   * sequential-read detection with asynchronous readahead into the page
//     cache (the reason Figs 7c/7d match 7a/7b),
//   * COMMIT on fsync/close only (the paper's deliberate departure from
//     NFSv4 to match PVFS2 durability semantics),
//   * pNFS: GETDEVICELIST at mount, LAYOUTGET at open, a file-layout driver
//     that fans READ/WRITE/COMMIT out to data servers through pluggable
//     aggregation drivers, and LAYOUTCOMMIT after size-changing writes.
//
// When a server grants no layout (plain NFSv4), all I/O flows to the
// metadata server — no client change required, exactly the transparency
// Direct-pNFS advertises.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "nfs/layout.hpp"
#include "nfs/ops.hpp"
#include "nfs/types.hpp"
#include "rpc/fabric.hpp"
#include "util/interval_set.hpp"
#include "util/obs.hpp"
#include "util/range_buffer.hpp"

namespace dpnfs::nfs {

/// Page-cache granularity for demand fetches.
inline constexpr uint64_t kPageBytes = 4096;

struct ClientConfig {
  uint32_t rsize = 2u << 20;               ///< max READ size (paper: 2 MB)
  uint32_t wsize = 2u << 20;               ///< max WRITE size (paper: 2 MB)
  uint64_t cache_limit_bytes = 1ull << 30; ///< page-cache budget
  uint64_t dirty_limit_bytes = 256ull << 20;
  uint32_t readahead_window = 4;           ///< readahead depth, in rsize units
  bool data_cache = true;                  ///< ablation switch
  bool pnfs_enabled = true;                ///< issue LAYOUTGET at open
  /// Register a backchannel with the MDS so it can recall layouts.
  bool enable_backchannel = true;
  /// Max concurrent write-back WRITEs **per data server**.  Each DS gets its
  /// own bounded pipeline (semaphore + elevator queue), so a slow or failed
  /// DS never stalls flushes destined for healthy ones — the serialization
  /// the old global write-back window imposed.
  uint32_t wb_window_per_ds = 8;
  /// Merge adjacent dirty extents bound for the same DS into one WRITE of up
  /// to wsize before dispatch (elevator-style coalescing).  Ablation switch.
  bool coalesce_writes = true;
  /// List I/O: fold up to this many *non-adjacent* dirty runs for the same
  /// DS into one vectored WRITEV (up to wsize total bytes), and batch
  /// strided read misses into READV the same way.  1 turns list I/O off.
  /// Single-range requests always use the classic one-range ops.  Ablation
  /// switch.
  uint32_t listio_max_regions = 64;
  /// Once a data server holds this many completed-but-uncommitted write-back
  /// bytes for a file, the scheduler issues an asynchronous COMMIT to it so
  /// the server starts its disk flush under the remaining transmissions
  /// instead of bunching the whole flush behind fsync's final COMMIT.
  /// fsync still sends its own one-per-DS COMMIT to cover stragglers.
  /// 0 disables background commits.
  uint64_t wb_commit_backlog = 1ull << 20;
  sim::Duration cpu_per_rpc = sim::us(8);
  /// Client copy/checksum cost, charged once at the syscall boundary and
  /// once per RPC carrying data.  Calibrated so one client box sustains
  /// ~64 MB/s on the read path (the paper's P3 clients: 8 of them cap
  /// warm-cache reads at ~510-530 MB/s aggregate).
  double cpu_ns_per_byte = 15.5;

  // -- Failure recovery (see docs/failures.md) -------------------------------
  /// Per-attempt deadline on data-server COMPOUNDs; 0 disables deadlines
  /// (and all watchdog events) — the default, so fault-free runs are
  /// event-for-event identical to the pre-recovery client.
  sim::Duration ds_timeout = 0;
  /// Transport-level retries (same DS, exponential backoff) inside the RPC
  /// client before a timed-out data-server call surfaces as an error.
  uint32_t ds_rpc_retries = 1;
  /// NFS-level retries of a failed READ/WRITE/COMMIT slice against the same
  /// DS before degrading.
  uint32_t slice_retries = 1;
  /// Consecutive slice failures that open a data server's circuit breaker.
  uint32_t breaker_threshold = 3;
  /// How long an open breaker diverts that DS's slices to the MDS.
  sim::Duration breaker_reset = sim::sec(5);
  /// Degrade to proxying failed slices through the MDS (the plain-NFSv4
  /// path).  Off: slice failures surface to the application immediately.
  bool mds_fallback = true;
  /// Per-attempt deadline on MDS COMPOUNDs; 0 keeps the unbounded legacy
  /// behavior.  Set it when the MDS itself can crash (chaos runs): session
  /// re-establishment must be able to give up on the dead incarnation and
  /// retry against the revived one.
  sim::Duration mds_timeout = 0;

  /// Tenant identity stamped into every RPC this client originates (0: none).
  /// Carried flag-gated in the call header and propagated through proxied
  /// hops, so servers at every tier attribute work to the right tenant.
  uint32_t tenant_id = 0;
};

/// A snapshot of the client's counters.  The metrics registry is the only
/// store: each field is read from the counter named beside it, in the
/// client's node scope (one NfsClient per node in every deployment).
struct ClientStats {
  // "client.cache" component.
  uint64_t bytes_read = 0;       ///< to the application (read_bytes)
  uint64_t bytes_written = 0;    ///< from the application (write_bytes)
  uint64_t wire_read_bytes = 0;  ///< fetched via READ (miss_bytes)
  /// Sent via WRITE: client.sched dispatched_bytes, plus write_bytes on a
  /// write-through client (whose writes bypass the scheduler).
  uint64_t wire_write_bytes = 0;
  uint64_t rpcs = 0;
  uint64_t cache_hit_bytes = 0;     ///< hit_bytes
  uint64_t readahead_fetches = 0;
  // "client.sched" component.
  uint64_t sched_writes = 0;             ///< write-back WRITEs dispatched
  uint64_t sched_coalesced_extents = 0;  ///< extents merged into a prior WRITE
  uint64_t sched_coalesced_bytes = 0;    ///< bytes riding merged WRITEs
  uint64_t vectored_writes = 0;   ///< multi-region WRITEV dispatches
  uint64_t vectored_regions = 0;  ///< regions carried by those WRITEVs
  uint64_t vectored_bytes = 0;    ///< bytes carried by those WRITEVs
  // "client.recovery" component.
  uint64_t recovery_retries = 0;    ///< slice retried against the same DS
  uint64_t mds_fallbacks = 0;       ///< slices degraded to MDS proxy I/O
  uint64_t breaker_trips = 0;       ///< DS circuit breakers opened
  uint64_t layout_refetches = 0;    ///< LAYOUTGETs after slice failures
  // "client.replay" component.
  uint64_t verifier_mismatches = 0; ///< WRITE/COMMIT verifier changes seen
  uint64_t replayed_extents = 0;    ///< retained extents re-dirtied for replay
  uint64_t replayed_bytes = 0;      ///< bytes those extents covered
  uint64_t session_recoveries = 0;  ///< sessions re-established after restart
  // "client.redundancy" component.
  uint64_t replica_reroutes = 0;    ///< reads routed around an unhealthy DS
  uint64_t degraded_reads = 0;      ///< reads served without the home DS
  uint64_t degraded_read_bytes = 0; ///< bytes those reads returned
  uint64_t ec_reconstructions = 0;  ///< erasure blocks rebuilt from k shards
  uint64_t degraded_writes = 0;     ///< writes absorbed by surviving redundancy
  uint64_t degraded_commits = 0;    ///< COMMIT targets dropped as dead
};

/// Records the first non-OK status across a fan-out of concurrent slice
/// operations.
class StatusCollector {
 public:
  void record(Status s) noexcept {
    if (s == Status::kOk || failed_) return;
    failed_ = true;
    status_ = s;
  }
  bool failed() const noexcept { return failed_; }
  Status status() const noexcept { return status_; }
  void throw_if_failed(const std::string& what) const {
    if (failed_) throw NfsError(status_, what);
  }

 private:
  bool failed_ = false;
  Status status_ = Status::kOk;
};

class NfsClient {
 public:
  class FileState;
  using FilePtr = std::shared_ptr<FileState>;

  NfsClient(rpc::RpcFabric& fabric, sim::Node& node, rpc::RpcAddress mds,
            std::string principal, ClientConfig config = {},
            std::shared_ptr<const AggregationRegistry> aggregations = nullptr);
  ~NfsClient();

  /// EXCHANGE_ID + CREATE_SESSION + root filehandle (+ GETDEVICELIST when
  /// pNFS is enabled).  Must complete before any other call.
  sim::Task<void> mount();

  // -- Namespace ------------------------------------------------------------

  sim::Task<void> mkdir(const std::string& path);
  sim::Task<void> remove(const std::string& path);
  /// SETATTR(size).  Conflicting layouts held by other clients are
  /// recalled by the server before this returns.
  sim::Task<void> truncate(const std::string& path, uint64_t size);
  sim::Task<void> rename(const std::string& from, const std::string& to);
  sim::Task<std::vector<DirEntry>> readdir(const std::string& path);
  sim::Task<Fattr> stat(const std::string& path);

  // -- File I/O ---------------------------------------------------------------

  /// Opens (optionally creating) a file.  `read_only` opens request a read
  /// delegation; while one is held, a re-open of the same file is served
  /// locally with no RPC at all.
  sim::Task<FilePtr> open(const std::string& path, bool create,
                          bool read_only = false);
  sim::Task<rpc::Payload> read(FilePtr file, uint64_t offset, uint64_t length);
  sim::Task<void> write(FilePtr file, uint64_t offset, rpc::Payload data);
  sim::Task<void> fsync(FilePtr file);
  sim::Task<void> close(FilePtr file);

  uint64_t file_size(const FilePtr& file) const;
  bool file_has_layout(const FilePtr& file) const;

  /// Drops all clean cached data (like `echo 3 > drop_caches`).  State for
  /// closed files is discarded entirely; open files keep dirty data.
  void drop_caches();

  /// Read from the registry counters: a copy, not a live view.
  ClientStats stats() const;
  const ClientConfig& config() const noexcept { return config_; }
  sim::Node& node() noexcept { return node_; }
  uint64_t layout_recalls_served() const noexcept { return recalls_served_; }
  uint64_t delegation_recalls_served() const noexcept {
    return delegation_recalls_served_;
  }
  bool file_has_delegation(const FilePtr& file) const;

 private:
  struct Session {
    SessionId id;
    std::unique_ptr<sim::Semaphore> slots;
  };

  /// One I/O assignment: a byte range sent to one server.
  struct IoSlice {
    static constexpr size_t kMds = static_cast<size_t>(-1);
    size_t device_index = kMds;
    rpc::RpcAddress addr;
    FileHandle fh;
    Stateid stateid;
    uint64_t target_offset = 0;  ///< offset in the target's address space
    uint64_t file_offset = 0;
    uint64_t length = 0;
    /// Erasure parity block: payload is derived (never file content), so it
    /// must not fall back to the MDS and failures re-dirty the source group
    /// instead of restoring payload bytes into the cache.
    bool parity = false;
  };

  // Per-data-server write-back scheduler (see flush_dirty): each DS owns a
  // bounded in-flight window plus an elevator queue of dirty extents; queued
  // adjacent extents merge into up-to-wsize WRITEs at dispatch.
  struct QueuedWrite {
    FilePtr file;
    IoSlice slice;
    rpc::Payload data;
    sim::Time enqueued_at = 0;

    /// The [skip, skip + len) piece of this extent.
    QueuedWrite sub(uint64_t skip, uint64_t len) const;
  };
  using WriteRun = std::vector<util::ExtentQueue<QueuedWrite>::Item>;
  struct DsSched {
    std::unique_ptr<sim::Semaphore> window;
    /// fileid -> queued extents keyed by target offset (elevator order).
    std::map<uint64_t, util::ExtentQueue<QueuedWrite>> queues;
    uint32_t inflight = 0;      ///< WRITEs holding a window permit
    double queue_peak = 0;      ///< high-water extent count
    /// fileid -> completed-but-uncommitted bytes (background-COMMIT trigger).
    std::map<uint64_t, uint64_t> uncommitted;
    std::set<uint64_t> commit_inflight;  ///< fileids with a COMMIT running
    std::string label;          ///< "ds<node>" or "mds" (metric suffix)
    obs::Gauge* m_queue_depth;
    obs::Gauge* m_queue_peak;
    obs::Gauge* m_window_inflight;
  };
  DsSched& sched_for(const rpc::RpcAddress& addr);
  void note_sched_queue(DsSched& sched);
  /// Queues one routed dirty extent, trimming any queued extent the new
  /// bytes overlap (newest data wins), and spawns a drain worker.
  void enqueue_writeback(const FilePtr& file, IoSlice slice,
                         rpc::Payload data);
  sim::Task<void> wb_worker(FilePtr file, rpc::RpcAddress addr);
  /// Folds a popped run of adjacent extents into one: merged slice,
  /// concatenated payload, earliest enqueue time.
  QueuedWrite fold_run(WriteRun& run);
  /// Best-effort COMMIT to one DS while write-back continues (see
  /// ClientConfig::wb_commit_backlog); fsync's COMMIT covers stragglers.
  sim::Task<void> wb_background_commit(FilePtr file, rpc::RpcAddress addr,
                                       size_t device_index);

  // Compound plumbing.  Every compound built by this client starts with a
  // SEQUENCE op; call() owns the session: it creates one on demand, patches
  // its id into the encoded compound, and when the reply's SEQUENCE answers
  // BADSESSION or GRACE (the server restarted and forgot us) it drops the
  // dead session, re-establishes one, and re-sends — so neither session
  // setup nor restart recovery is visible at any call site.
  sim::Task<rpc::RpcClient::Reply> call(rpc::RpcAddress addr,
                                        CompoundBuilder builder,
                                        uint64_t data_bytes,
                                        obs::TraceContext trace_parent = {});
  sim::Task<std::shared_ptr<Session>> session_for(rpc::RpcAddress addr);
  /// Forgets `sid` for `addr` (a later call re-establishes).  Losing the
  /// *MDS* session means the MDS restarted: every layout and open stateid it
  /// granted came from the dead incarnation, so layouts are marked stale
  /// (re-fetched lazily, once per file) and opens fall back to the
  /// anonymous stateid.
  void session_lost(const rpc::RpcAddress& addr, const SessionId& sid);
  rpc::CallOptions call_options(const rpc::RpcAddress& addr) const;

  // Path machinery.
  sim::Task<FileHandle> resolve(const std::string& path);
  void invalidate_dentries(const std::string& prefix);

  // Data path.
  std::vector<IoSlice> route(FileState& f, uint64_t offset, uint64_t length,
                             bool for_write);
  IoSlice mds_slice(const FileState& f, uint64_t offset,
                    uint64_t length) const;
  static std::shared_ptr<sim::Latch> find_inflight_overlap(FileState& f,
                                                           uint64_t start,
                                                           uint64_t end);
  /// Returns the number of bytes actually fetched over the wire (0 when the
  /// whole range was already valid or in flight).
  sim::Task<uint64_t> fetch_range(FilePtr file, uint64_t start, uint64_t end);
  sim::Task<rpc::Payload> read_slices(FileState& f, uint64_t offset,
                                      uint64_t length);
  sim::Task<void> write_slices(FileState& f, uint64_t offset,
                               const rpc::Payload& data);
  // Single-attempt slice ops (throw NfsError on failure)...
  sim::Task<rpc::Payload> read_slice_op(FileState& f, const IoSlice& slice);
  /// Multi-region READV to one server: returns each slice's bytes.  Regions
  /// read short mid-object are re-filled via read_slice_op; short reads at
  /// EOF zero-fill like the single-range path.
  sim::Task<std::vector<rpc::Payload>> read_vector_op(
      FileState& f, const std::vector<IoSlice>& slices);
  /// WRITE/WRITEV to one server: one slice emits the classic single-range
  /// op (wire-identical to the old write_slice_op), 2+ slices a vectored
  /// one.  The reply's single verifier is recorded for every region.
  sim::Task<void> write_vector_op(FileState& f,
                                  const std::vector<IoSlice>& slices,
                                  rpc::Payload data,
                                  obs::TraceContext trace_parent = {});
  /// COMMIT to one server; returns the write verifier its reply carried.
  sim::Task<uint64_t> commit_op(rpc::RpcAddress addr, FileHandle fh);

  /// What one operation does on recover()'s rungs.  It names behaviour,
  /// never the operation.
  struct RecoveryPolicy {
    /// Run the redundancy rung before any attempt when the home device is
    /// already known unhealthy.
    bool absorb_up_front = false;
    /// Re-fetch the layout before proxying through the MDS.
    bool refetch_before_fallback = true;
    /// False: the slice never falls back to the MDS (derived parity bytes).
    bool may_fall_back = true;
  };
  /// The recovery ladder every data-server operation shares: the up-front
  /// redundancy rung, same-DS retries (breaker-aware), the redundancy rung
  /// again, then the MDS fallback.  `attempt(slice)` performs the operation
  /// once (throwing NfsError) against the DS slice or its MDS substitute.
  /// `absorb()` is the redundancy rung, reached only on redundant layouts;
  /// it reports whether the surviving redundancy served or absorbed the
  /// slice.  MDS-bound slices get one attempt.  A terminal error lands in
  /// `errors`.
  template <typename Attempt, typename Absorb>
  sim::Task<void> recover(FileState& f, IoSlice slice, RecoveryPolicy policy,
                          Attempt attempt, Absorb absorb,
                          StatusCollector& errors);
  // The ladder's thin callers.
  sim::Task<void> run_read_slice(FileState& f, IoSlice slice,
                                 rpc::Payload& out, StatusCollector& errors);
  sim::Task<void> run_write_slice(FileState& f, IoSlice slice,
                                  rpc::Payload piece, StatusCollector& errors,
                                  obs::TraceContext trace_parent = {});
  /// Vectored wrappers: one attempt against the DS as a whole, then
  /// degrade region by region through the single-slice ladder (so each
  /// region keeps its own retry/breaker/MDS-fallback recovery).
  sim::Task<void> run_write_vector(FileState& f, std::vector<IoSlice> slices,
                                   rpc::Payload data, StatusCollector& errors,
                                   obs::TraceContext trace_parent = {});
  sim::Task<void> run_read_vector(FileState& f, std::vector<IoSlice> slices,
                                  std::vector<rpc::Payload>& out,
                                  StatusCollector& errors);
  sim::Task<void> run_commit_target(FileState& f, size_t device_index,
                                    StatusCollector& errors,
                                    uint64_t* verifier_out = nullptr);

  // Crash-consistent unstable writes: every UNSTABLE WRITE's byte range is
  // retained (pinned in the cache) together with the server's write
  // verifier until a COMMIT whose verifier matches covers it.  A verifier
  // change — seen on a WRITE mid-stream or on the COMMIT itself — means the
  // server restarted and dropped its volatile data; the retained ranges are
  // re-dirtied and flow back out through the normal write-back machinery.
  void note_unstable_write(FileState& f, const IoSlice& slice,
                           uint64_t verifier);
  void redirty_lost(FileState& f, size_t target);

  /// A stale layout (MDS restart) is refreshed exactly once, lazily, at the
  /// next data-path entry.
  sim::Task<void> ensure_layout_fresh(FileState& f);

  // Per-data-server health (consecutive-failure circuit breaker).
  bool breaker_open(const rpc::RpcAddress& addr) const;
  void record_ds_result(const rpc::RpcAddress& addr, bool ok);
  sim::Task<void> refetch_layout(FileState& f, bool force = false);
  /// A granted layout is usable only when its aggregation scheme and every
  /// device are known.
  bool layout_usable(const FileLayout& l) const;
  /// Records a "nfs.client" event in the flight recorder, if the fabric
  /// carries one.
  void flight_event(const char* kind, const std::string& detail) const;
  sim::Task<void> flush_dirty(FilePtr file, bool only_full_chunks,
                              bool wait_completion);
  /// Routes [start, end) and queues it on the servers' write-back
  /// pipelines in wsize pieces, loading the bytes from the cache now.
  /// `for_write` picks the driver's write mapping; false takes the read
  /// mapping (the data half of an erasure-coded write).
  void enqueue_range(const FilePtr& file, uint64_t start, uint64_t end,
                     bool for_write);
  /// Waits for the file's queued write-backs; throws if any failed.
  sim::Task<void> await_writeback(FileState& f);

  // -- Redundancy (replicated / nested-mirror / erasure-coded layouts) -----
  /// Points `slice` at layout device `dev` (identity fields only).
  void aim_at_device(const FileState& f, IoSlice& slice, size_t dev) const;
  /// True when this device may not hold valid bytes for [start, end): its
  /// breaker is open or the range overlaps its degraded (skipped-write) set.
  bool device_unhealthy(const FileState& f, size_t device,
                        uint64_t start, uint64_t end) const;
  /// For replicated/nested layouts: redirects `slice` to a healthy device
  /// holding the same bytes.  `avoid` is the device being routed around.
  /// False when no healthy alternate exists.
  bool remap_replica(const FileState& f, IoSlice& slice, size_t avoid) const;
  /// Degraded-read rung on a redundant layout: serve `slice` without its
  /// home DS — surviving replica / mirror-group member, or reconstruction
  /// from k surviving erasure shards.  Fills `out` and returns true on
  /// success.
  sim::Task<bool> degraded_read(FileState& f, IoSlice slice,
                                rpc::Payload& out);
  /// Reads the `su`-sized erasure shards of the group containing
  /// `slice.file_offset` from any k healthy devices and decodes the target
  /// block.  Returns the reconstructed block (zero-padded to su).
  sim::Task<bool> ec_reconstruct_block(FileState& f, const IoSlice& slice,
                                       rpc::Payload& block);
  /// Records that `slice`'s bytes were not written to its device (the
  /// redundancy absorbed a terminal failure).
  void note_degraded_write(FileState& f, const IoSlice& slice);
  /// Erasure-coded flush: expands dirty ranges to stripe-group boundaries,
  /// read-modify-writes missing group bytes, computes parity, and enqueues
  /// data + parity write-back.
  sim::Task<void> flush_dirty_ec(FilePtr file);
  sim::Task<void> commit_unstable(FileState& f);

  // Page-cache bookkeeping: growing a file's valid or dirty set, or
  // claiming dirty ranges, keeps cached_bytes_ / dirty_bytes_ in step.
  void add_valid(FileState& f, uint64_t start, uint64_t end);
  void add_dirty(FileState& f, uint64_t start, uint64_t end);
  void remove_dirty(FileState& f, uint64_t start, uint64_t end);
  void account_cached(int64_t delta);
  /// Drops every clean cached range of one file: only the pinned ranges
  /// (dirty data and retained uncommitted writes) stay valid.  Returns the
  /// clean bytes dropped; the caller accounts for them.
  uint64_t drop_clean(FileState& st);
  /// drop_clean() for a failed revalidation.
  void invalidate_clean(FileState& st);
  void evict_clean_if_needed();
  sim::Task<void> readahead(FilePtr file, uint64_t from, uint64_t to);

  // Backchannel (CB_LAYOUTRECALL service).
  void start_backchannel();
  sim::Task<void> serve_callback(const rpc::CallContext& ctx,
                                 rpc::XdrDecoder& args,
                                 rpc::XdrEncoder& results);

  rpc::RpcFabric& fabric_;
  sim::Node& node_;
  rpc::RpcAddress mds_;
  rpc::RpcClient rpc_;
  ClientConfig config_;
  std::shared_ptr<const AggregationRegistry> aggregations_;

  bool mounted_ = false;
  std::unique_ptr<rpc::RpcServer> backchannel_;
  uint64_t recalls_served_ = 0;
  uint64_t delegation_recalls_served_ = 0;
  FileHandle root_fh_;
  /// shared_ptr values: call() holds the session (and its slot semaphore)
  /// across suspension points while session_lost() may erase the map entry.
  std::map<rpc::RpcAddress, std::shared_ptr<Session>> sessions_;
  std::map<rpc::RpcAddress, std::shared_ptr<sim::Latch>> session_creating_;
  std::map<DeviceId, rpc::RpcAddress> devices_;

  /// Data-server circuit breakers: consecutive failures and, once tripped,
  /// how long routing diverts this DS's slices to the MDS.
  struct DsHealth {
    uint32_t consecutive_failures = 0;
    sim::Time open_until = 0;
  };
  std::map<rpc::RpcAddress, DsHealth> ds_health_;

  /// Per-data-server write-back pipelines (std::map: references stay stable
  /// across co_await while new DSes appear).
  std::map<rpc::RpcAddress, DsSched> scheds_;

  /// NIC admission gate for write-back dispatch: one dispatch at a time.
  /// The NIC serializes frames, so launching every per-DS pipeline at once
  /// just time-slices the link and bunches all completions (and the server
  /// disk work behind them) at the tail.  A dispatch holds the token only
  /// for its payload's estimated serialization time — never for the full
  /// RPC — so a slow or dead DS cannot pin the gate.
  std::unique_ptr<sim::Semaphore> tx_gate_;

  std::map<std::string, FileHandle> dentry_cache_;
  std::map<uint64_t, FilePtr> files_;  ///< fileid -> shared state

  uint64_t cached_bytes_ = 0;  ///< sum of valid (clean+dirty) cached bytes
  uint64_t dirty_bytes_ = 0;
  uint64_t lru_clock_ = 0;

  // "client.cache" component handles, resolved once at construction.
  obs::Counter* m_hit_bytes_;
  obs::Counter* m_miss_bytes_;
  obs::Counter* m_read_bytes_;
  obs::Counter* m_write_bytes_;
  obs::Counter* m_readahead_fetches_;
  obs::Counter* m_rpcs_;
  // "client.sched" component handles (per-DS gauges live in DsSched).
  obs::Counter* m_sched_writes_;
  obs::Counter* m_sched_bytes_;
  obs::Counter* m_sched_coalesced_extents_;
  obs::Counter* m_sched_coalesced_bytes_;
  obs::Counter* m_vectored_writes_;
  obs::Counter* m_vectored_regions_;
  obs::Counter* m_vectored_bytes_;
  // "client.recovery" component handles.
  obs::Counter* m_retries_;
  obs::Counter* m_fallbacks_;
  obs::Counter* m_breaker_trips_;
  obs::Counter* m_layout_refetches_;
  obs::Counter* m_rpc_retries_;
  // "client.replay" component handles.
  obs::Counter* m_verifier_mismatches_;
  obs::Counter* m_replayed_extents_;
  obs::Counter* m_replayed_bytes_;
  obs::Counter* m_session_recoveries_;
  // "client.redundancy" component handles.
  obs::Counter* m_replica_reroutes_;
  obs::Counter* m_degraded_reads_;
  obs::Counter* m_degraded_read_bytes_;
  obs::Counter* m_ec_reconstructions_;
  obs::Counter* m_degraded_writes_;
  obs::Counter* m_degraded_commits_;
};

/// Open-file state; exposed so deployments can inspect (tests) but opaque in
/// normal use.
class NfsClient::FileState {
 public:
  FileHandle fh;
  Stateid stateid;
  Fattr attr;
  uint64_t size = 0;
  bool size_dirty = false;
  std::optional<FileLayout> layout;
  bool read_delegation = false;
  std::string path;  ///< last path this file was opened under
  uint32_t open_count = 0;
  /// OPEN stateids live at the server.  Delegation fast-path opens are
  /// purely local, so open_count can exceed server_opens; CLOSE RPCs are
  /// only sent while server_opens exceeds the remaining handles.
  uint32_t server_opens = 0;
  /// Every outstanding server-side OPEN stateid, oldest first.  The server
  /// mints a distinct stateid per OPEN and CLOSE retires exactly one, so
  /// with concurrent handles on the same file each CLOSE must present a
  /// stateid that is still live — closing the newest twice earns
  /// NFS4ERR_BAD_STATEID and leaks the rest.  `stateid` mirrors the most
  /// recent entry for the I/O path.
  std::vector<Stateid> open_stateids;

  // Page cache.
  util::RangeBuffer content;
  util::IntervalSet valid;
  util::IntervalSet dirty;

  // Sequential-read tracking.
  uint64_t expected_seq_offset = 0;
  uint64_t readahead_high = 0;
  /// In-flight fetches: start -> (end, completion latch).
  std::map<uint64_t, std::pair<uint64_t, std::shared_ptr<sim::Latch>>> inflight;

  // Commit bookkeeping: device indices (or IoSlice::kMds) holding
  // uncommitted writes.
  std::set<size_t> unstable_targets;

  /// Per-target crash-consistency state: the write verifier the target's
  /// UNSTABLE WRITE replies carried, and the file ranges still covered only
  /// by those volatile writes.  The ranges stay pinned in the page cache
  /// until a COMMIT with a matching verifier retires them; on a mismatch
  /// (the server restarted) they are re-dirtied and replayed.
  struct TargetCommitState {
    bool verifier_known = false;
    uint64_t verifier = 0;
    util::IntervalSet uncommitted;
  };
  std::map<size_t, TargetCommitState> commit_targets;

  /// Set when the MDS session died (server restart): the layout came from
  /// the dead incarnation and is re-fetched once before the next I/O.
  bool layout_stale = false;

  /// Per-device ranges known NOT to hold current data: writes or COMMITs
  /// that terminally failed against the device while surviving redundancy
  /// absorbed them.  Reads must route around these ranges (and erasure
  /// reconstruction must not source from them).  Entries are sticky — a
  /// rebuilt replacement device arrives under a fresh layout whose reads
  /// the rebuild made whole, while these ranges keep being served by the
  /// surviving copies either way.
  std::map<size_t, util::IntervalSet> degraded;

  /// Ranges that must not be evicted: dirty data plus retained
  /// uncommitted writes (the client's only copy if a server restarts).
  util::IntervalSet pinned() const {
    util::IntervalSet p = dirty;
    for (const auto& [idx, t] : commit_targets) {
      for (const auto& iv : t.uncommitted.intervals()) p.add(iv.start, iv.end);
    }
    return p;
  }

  // Async write-back pipeline state (created lazily by the client).  The
  // in-flight windows themselves live per data server in the client's
  // scheduler; this only joins this file's outstanding write-backs.
  std::unique_ptr<sim::WaitGroup> wb_inflight;
  bool wb_error = false;

  /// Last failure-driven LAYOUTGET (-1: never); rate-limits re-fetches.
  sim::Time layout_refetched_at = -1;

  uint64_t last_use = 0;
};

}  // namespace dpnfs::nfs
