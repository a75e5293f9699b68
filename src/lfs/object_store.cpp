#include "lfs/object_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/fault.hpp"

namespace dpnfs::lfs {

using rpc::Payload;
using sim::Task;

ObjectStore::ObjectStore(sim::Node& node, ObjectStoreParams params)
    : node_(node), params_(params) {
  if (!node.has_disk()) {
    throw std::logic_error("ObjectStore requires a node with a disk");
  }
}

void ObjectStore::create(ObjectId oid) {
  const auto [it, inserted] = objects_.try_emplace(oid);
  if (!inserted) throw std::logic_error("object already exists");
  it->second.slab_index = next_slab_++;
}

void ObjectStore::remove(ObjectId oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) throw std::logic_error("remove: no such object");
  dirty_bytes_ -= it->second.dirty.total_length();
  objects_.erase(it);
  // Stale dirty_queue_ and cache entries are skipped lazily.
}

uint64_t ObjectStore::size(ObjectId oid) const { return get(oid).size; }

ObjectStore::Object& ObjectStore::get(ObjectId oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) throw std::logic_error("no such object");
  return it->second;
}

const ObjectStore::Object& ObjectStore::get(ObjectId oid) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) throw std::logic_error("no such object");
  return it->second;
}

uint64_t ObjectStore::disk_position(const Object& obj, uint64_t offset) const {
  return obj.slab_index * params_.object_slab_bytes + offset;
}

Task<void> ObjectStore::disk_io(uint64_t pos, uint64_t bytes) {
  if (node_.disk_failed()) throw sim::DiskFailedError(node_.name());
  const sim::Time t0 = node_.simulation().now();
  co_await node_.disk().io(pos, bytes);
  stats_.disk_time_ns +=
      static_cast<uint64_t>(node_.simulation().now() - t0);
}

void ObjectStore::truncate(ObjectId oid, uint64_t new_size) {
  Object& obj = get(oid);
  if (new_size < obj.size) {
    const uint64_t kEnd = ~0ull;
    obj.content.drop(new_size, kEnd);
    const uint64_t before = obj.dirty.total_length();
    obj.dirty.subtract(new_size, kEnd);
    dirty_bytes_ -= before - obj.dirty.total_length();
  }
  obj.size = new_size;
}

void ObjectStore::touch_cache(ObjectId oid, uint64_t start, uint64_t end) {
  const uint64_t block = params_.cache_block_bytes;
  const uint64_t max_blocks = params_.cache_limit_bytes / block;
  for (uint64_t b = start / block; b <= (end == 0 ? 0 : (end - 1) / block); ++b) {
    const BlockKey key{oid, b};
    auto it = resident_.find(key);
    if (it != resident_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      continue;
    }
    lru_.push_front(key);
    resident_.emplace(key, lru_.begin());
    while (resident_.size() > max_blocks) {
      resident_.erase(lru_.back());
      lru_.pop_back();
    }
  }
}

bool ObjectStore::cache_covers(ObjectId oid, uint64_t start, uint64_t end) {
  const uint64_t block = params_.cache_block_bytes;
  if (start >= end) return true;
  for (uint64_t b = start / block; b <= (end - 1) / block; ++b) {
    if (!resident_.contains(BlockKey{oid, b})) return false;
  }
  return true;
}

void ObjectStore::warm(ObjectId oid) {
  const Object& obj = get(oid);
  if (obj.size > 0) touch_cache(oid, 0, obj.size);
}

void ObjectStore::drop_caches() {
  lru_.clear();
  resident_.clear();
}

uint64_t ObjectStore::drop_dirty() {
  const uint64_t lost = dirty_bytes_;
  for (auto& [oid, obj] : objects_) {
    for (const auto& iv : obj.dirty.intervals()) {
      obj.content.drop(iv.start, iv.end);
    }
    obj.dirty.clear();
  }
  dirty_queue_.clear();
  dirty_bytes_ = 0;
  return lost;
}

Task<void> ObjectStore::write(ObjectId oid, uint64_t offset, Payload data,
                              bool stable) {
  if (!exists(oid)) create(oid);
  Object& obj = get(oid);
  const uint64_t len = data.size();
  const uint64_t end = offset + len;

  obj.content.store(offset, data);
  obj.size = std::max(obj.size, end);

  const uint64_t before = obj.dirty.total_length();
  obj.dirty.add(offset, end);
  dirty_bytes_ += obj.dirty.total_length() - before;
  dirty_queue_.push_back(DirtyExtent{oid, offset, end});
  touch_cache(oid, offset, end);

  if (stable) {
    co_await flush_object(oid);
  } else if (dirty_bytes_ > params_.dirty_limit_bytes) {
    // Throttled write-behind: the writer that overflows the buffer pays for
    // draining it back under the limit.
    co_await flush_until(params_.dirty_limit_bytes);
  }
}

Task<void> ObjectStore::flush_until(uint64_t target_dirty) {
  while (dirty_bytes_ > target_dirty && !dirty_queue_.empty()) {
    DirtyExtent ext = dirty_queue_.front();
    dirty_queue_.pop_front();
    auto it = objects_.find(ext.oid);
    if (it == objects_.end()) continue;  // removed since queueing
    Object& obj = it->second;
    // Skip entries whose own range was already flushed (by coalescing or a
    // commit); otherwise coalesce up to a full chunk of dirty bytes starting
    // where this entry's dirty data begins — interleaved small writers must
    // not degrade the disk to seek-per-write.
    const auto own = obj.dirty.intersection(ext.start, ext.end);
    if (own.empty()) continue;
    const uint64_t anchor = own.front().start;
    const uint64_t flush_end =
        std::max(ext.end, anchor + params_.flush_chunk_bytes);
    const auto todo = obj.dirty.intersection(anchor, flush_end);
    for (const auto& iv : todo) {
      obj.dirty.subtract(iv.start, iv.end);
      dirty_bytes_ -= iv.length();
    }
    try {
      co_await write_extents(obj, todo);
    } catch (...) {
      requeue_unflushed(ext.oid, obj, todo);
      throw;
    }
  }
}

Task<void> ObjectStore::write_extents(
    Object& obj, const std::vector<util::IntervalSet::Interval>& todo) {
  for (size_t i = 0; i < todo.size(); ++i) {
    uint64_t pos = todo[i].start;
    while (pos < todo[i].end) {
      const uint64_t n = std::min(params_.flush_chunk_bytes, todo[i].end - pos);
      try {
        co_await disk_io(disk_position(obj, pos), n);
      } catch (...) {
        flush_fail_index_ = i;
        flush_fail_pos_ = pos;
        throw;
      }
      stats_.disk_write_bytes += n;
      ++stats_.disk_writes;
      pos += n;
    }
  }
}

void ObjectStore::requeue_unflushed(ObjectId oid, Object& obj,
                                    const std::vector<util::IntervalSet::Interval>& todo) {
  // Everything from the failing chunk onward never reached the disk: put it
  // back so a later commit retries instead of silently dropping it.
  for (size_t j = flush_fail_index_; j < todo.size(); ++j) {
    const uint64_t from = j == flush_fail_index_ ? flush_fail_pos_ : todo[j].start;
    if (from >= todo[j].end) continue;
    const uint64_t before = obj.dirty.total_length();
    obj.dirty.add(from, todo[j].end);
    dirty_bytes_ += obj.dirty.total_length() - before;
    dirty_queue_.push_back(DirtyExtent{oid, from, todo[j].end});
  }
}

Task<void> ObjectStore::flush_object(ObjectId oid) {
  Object& obj = get(oid);
  if (!obj.flush_lock) {
    obj.flush_lock = std::make_unique<sim::Semaphore>(node_.simulation(), 1);
  }
  co_await obj.flush_lock->acquire();
  const auto todo = obj.dirty.intervals();
  for (const auto& iv : todo) {
    obj.dirty.subtract(iv.start, iv.end);
    dirty_bytes_ -= iv.length();
  }
  try {
    co_await write_extents(obj, todo);
  } catch (...) {
    // Disk failed mid-flush: the unwritten tail is still dirty, and the
    // lock must not wedge the retry a later commit will attempt.
    requeue_unflushed(oid, obj, todo);
    obj.flush_lock->release();
    throw;
  }
  obj.flush_lock->release();
}

Task<void> ObjectStore::commit(ObjectId oid) {
  if (!exists(oid)) co_return;
  co_await flush_object(oid);
}

Task<void> ObjectStore::commit_all() {
  // Snapshot ids first: flushing suspends and the map may grow meanwhile.
  std::vector<ObjectId> ids;
  ids.reserve(objects_.size());
  for (const auto& [oid, obj] : objects_) {
    if (!obj.dirty.empty()) ids.push_back(oid);
  }
  for (ObjectId oid : ids) co_await commit(oid);
}

Task<Payload> ObjectStore::read(ObjectId oid, uint64_t offset, uint64_t length) {
  Object& obj = get(oid);
  if (offset >= obj.size) co_return Payload{};
  const uint64_t end = std::min(obj.size, offset + length);

  if (cache_covers(oid, offset, end)) {
    stats_.cache_hit_bytes += end - offset;
  } else {
    // Fetch the missing blocks from disk, block-aligned, coalescing
    // contiguous misses into single I/Os.
    stats_.cache_miss_bytes += end - offset;
    const uint64_t block = params_.cache_block_bytes;
    uint64_t run_start = 0;
    bool in_run = false;
    const uint64_t first_b = offset / block;
    const uint64_t last_b = (end - 1) / block;
    for (uint64_t b = first_b; b <= last_b + 1; ++b) {
      const bool miss = (b <= last_b) && !resident_.contains(BlockKey{oid, b});
      if (miss && !in_run) {
        run_start = b;
        in_run = true;
      } else if (!miss && in_run) {
        const uint64_t io_start = run_start * block;
        const uint64_t io_end = std::min(obj.size, b * block);
        co_await disk_io(disk_position(obj, io_start), io_end - io_start);
        stats_.disk_read_bytes += io_end - io_start;
        ++stats_.disk_reads;
        in_run = false;
      }
    }
  }
  touch_cache(oid, offset, end);
  co_return obj.content.load(offset, end - offset);
}

void StoreOpClock::finish(obs::Tracer& tracer, obs::TenantLedger& tenants,
                          obs::TraceContext trace, const char* op,
                          uint64_t read_bytes, uint64_t write_bytes,
                          int64_t extra_disk_ns) const {
  const int64_t disk_ns =
      static_cast<int64_t>(store_.stats().disk_time_ns - disk_ns_) +
      extra_disk_ns;
  tenants.account_disk(trace.tenant, disk_ns);
  if (!trace.valid()) return;
  obs::Span span;
  span.trace_id = trace.trace_id;
  span.span_id = tracer.begin(trace).span_id;
  span.parent_span_id = trace.span_id;
  span.kind = obs::SpanKind::kInternal;
  span.name = std::string("store/") + op;
  span.node = store_.node().name();
  span.start = start_;
  span.end = store_.node().simulation().now();
  span.bytes_out = read_bytes;
  span.bytes_in = write_bytes;
  span.disk = disk_ns;
  tracer.record(std::move(span));
}

}  // namespace dpnfs::lfs
