// Per-node local object store.
//
// Every storage node — whether it backs a PVFS2 storage daemon or an NFSv4
// data server — keeps its file stripes in one of these.  The store models
// the performance-relevant behaviour of a local file system:
//
//   * Write-behind buffering: unstable writes land in a bounded dirty
//     buffer; when the buffer is full, writers flush the oldest dirty
//     extents to disk before proceeding (throttled write-back).
//   * Commit/fsync: flushes an object's dirty extents to stable storage.
//   * Page-cache tracking: recently written/read blocks are "resident";
//     resident reads cost no disk time (the paper's warm-cache reads).
//   * Disk layout: each object occupies a contiguous slab of the disk
//     address space, so in-object sequential access is sequential on disk
//     and cross-object interleaving pays positioning costs.
//
// Content handling mirrors rpc::Payload: real bytes are stored and verified
// end-to-end; virtual bytes are tracked by size only.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>

#include "rpc/payload.hpp"
#include "sim/network.hpp"
#include "sim/sync.hpp"
#include "util/interval_set.hpp"
#include "util/obs.hpp"
#include "util/range_buffer.hpp"
#include "util/tenant.hpp"

namespace dpnfs::lfs {

using ObjectId = uint64_t;

struct ObjectStoreParams {
  uint64_t dirty_limit_bytes = 64ull << 20;   ///< write-behind buffer cap
  uint64_t cache_limit_bytes = 1536ull << 20; ///< page-cache budget
  uint64_t cache_block_bytes = 1ull << 20;    ///< cache-residency granularity
  uint64_t flush_chunk_bytes = 2ull << 20;    ///< writeback I/O size
  uint64_t object_slab_bytes = 16ull << 30;   ///< disk address spacing
};

struct ObjectStoreStats {
  uint64_t disk_read_bytes = 0;
  uint64_t disk_write_bytes = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t cache_hit_bytes = 0;
  uint64_t cache_miss_bytes = 0;
  /// Simulated time spent in disk I/O issued by this store, including arm
  /// queue wait.  Deltas across an operation give its disk attribution.
  uint64_t disk_time_ns = 0;
};

class ObjectStore {
 public:
  /// `node` must have a disk.
  ObjectStore(sim::Node& node, ObjectStoreParams params = {});
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  // -- Namespace (instant: callers charge CPU/metadata costs) --------------

  /// Creates an empty object.  Creating an existing object is an error.
  void create(ObjectId oid);
  bool exists(ObjectId oid) const noexcept { return objects_.contains(oid); }
  void remove(ObjectId oid);
  uint64_t size(ObjectId oid) const;
  void truncate(ObjectId oid, uint64_t new_size);

  // -- Data path (costs simulated time) -------------------------------------

  /// Writes `data` at `offset`.  `stable` forces the range to disk before
  /// returning (NFS FILE_SYNC / O_SYNC).  Extends the object as needed;
  /// creates it implicitly if absent.
  sim::Task<void> write(ObjectId oid, uint64_t offset, rpc::Payload data,
                        bool stable);

  /// Reads up to `length` bytes at `offset`; short at EOF.  Returns inline
  /// bytes whenever the range holds only real content (holes read as
  /// zeros); ranges touched by virtual writes return virtual payloads.
  sim::Task<rpc::Payload> read(ObjectId oid, uint64_t offset, uint64_t length);

  /// Flushes the object's dirty extents to disk (COMMIT / fsync).
  sim::Task<void> commit(ObjectId oid);

  /// Flushes everything (unmount / shutdown).
  sim::Task<void> commit_all();

  // -- Introspection ---------------------------------------------------------

  uint64_t dirty_bytes() const noexcept { return dirty_bytes_; }
  const ObjectStoreStats& stats() const noexcept { return stats_; }
  sim::Node& node() noexcept { return node_; }

  /// Marks an object's content resident in the page cache without disk I/O
  /// (benchmark warm-up helper).
  void warm(ObjectId oid);

  /// Drops all clean cache residency (benchmark cold-cache helper).
  void drop_caches();

  /// Crash semantics: the write-behind buffer was volatile memory, so a
  /// service restart loses every unflushed dirty extent.  Their content is
  /// dropped (lost ranges read back as zeros — the loss is observable, not
  /// papered over) and the dirty bookkeeping is cleared.  Object sizes and
  /// flushed data survive: metadata and stable storage are durable.
  /// Returns the number of dirty bytes lost.
  uint64_t drop_dirty();

 private:
  struct Object {
    uint64_t size = 0;
    uint64_t slab_index = 0;
    util::RangeBuffer content;
    util::IntervalSet dirty;  ///< not yet on disk
    std::unique_ptr<sim::Semaphore> flush_lock;  ///< serializes fsync
  };

  struct DirtyExtent {
    ObjectId oid;
    uint64_t start;
    uint64_t end;
  };

  Object& get(ObjectId oid);
  const Object& get(ObjectId oid) const;
  uint64_t disk_position(const Object& obj, uint64_t offset) const;

  /// One media access; throws sim::DiskFailedError while a scripted disk
  /// fault is active on this node.
  sim::Task<void> disk_io(uint64_t pos, uint64_t bytes);

  /// Marks [start, end) of `oid` cache-resident, evicting LRU blocks.
  void touch_cache(ObjectId oid, uint64_t start, uint64_t end);
  bool cache_covers(ObjectId oid, uint64_t start, uint64_t end);

  /// Flushes dirty extents (oldest first) until `target_dirty` or less
  /// remains.  Several writers may flush concurrently; the queue hand-off
  /// keeps each extent flushed exactly once.
  sim::Task<void> flush_until(uint64_t target_dirty);

  /// Flushes all dirty extents belonging to `oid`.
  sim::Task<void> flush_object(ObjectId oid);

  /// Writes `todo` to disk chunk by chunk.  On a disk fault, records how far
  /// it got in flush_fail_index_/flush_fail_pos_ and rethrows; the caller
  /// must requeue_unflushed() so the unwritten tail stays dirty.
  sim::Task<void> write_extents(
      Object& obj, const std::vector<util::IntervalSet::Interval>& todo);
  void requeue_unflushed(ObjectId oid, Object& obj,
                         const std::vector<util::IntervalSet::Interval>& todo);

  sim::Node& node_;
  ObjectStoreParams params_;
  std::unordered_map<ObjectId, Object> objects_;
  uint64_t next_slab_ = 0;

  std::deque<DirtyExtent> dirty_queue_;  ///< FIFO writeback order
  uint64_t dirty_bytes_ = 0;

  // Progress of the last failed write_extents() call, consumed by
  // requeue_unflushed() before the exception propagates further.
  size_t flush_fail_index_ = 0;
  uint64_t flush_fail_pos_ = 0;

  // Page-cache residency: block key -> LRU list position.
  using BlockKey = std::pair<ObjectId, uint64_t>;
  struct BlockKeyHash {
    size_t operator()(const BlockKey& k) const noexcept {
      return std::hash<uint64_t>()(k.first * 0x9E3779B97F4A7C15ULL ^ k.second);
    }
  };
  std::list<BlockKey> lru_;  // front = most recent
  std::unordered_map<BlockKey, std::list<BlockKey>::iterator, BlockKeyHash>
      resident_;

  ObjectStoreStats stats_;
};

/// Times one store access made on behalf of an RPC request.  `finish`
/// records it as a kInternal "store/<op>" span under the request's span, so
/// the critical-path analyzer can attribute disk time instead of folding it
/// into CPU, and charges the disk time to the request's tenant (it rides
/// the call header, so untraced requests are charged too).  The disk time is
/// the store's disk-time delta across the access: with concurrent ops on one
/// store it can include write-back the store did while this op was blocked
/// on it, which is still time this op spent waiting on the disk.
class StoreOpClock {
 public:
  explicit StoreOpClock(ObjectStore& store)
      : store_(store),
        start_(store.node().simulation().now()),
        disk_ns_(store.stats().disk_time_ns) {}

  /// `extra_disk_ns` adds disk time spent outside the store.
  void finish(obs::Tracer& tracer, obs::TenantLedger& tenants,
              obs::TraceContext trace, const char* op, uint64_t read_bytes,
              uint64_t write_bytes, int64_t extra_disk_ns = 0) const;

 private:
  ObjectStore& store_;
  int64_t start_;
  uint64_t disk_ns_;
};

}  // namespace dpnfs::lfs
