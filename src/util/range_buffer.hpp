// Sparse byte-range content buffer.
//
// Stores file content as disjoint real-byte extents plus a set of "virtual"
// ranges whose size is known but whose bytes were never materialized (see
// rpc::Payload).  Shared by the server-side object store and the client
// page cache so both sides verify real content identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "rpc/payload.hpp"
#include "util/interval_set.hpp"

namespace dpnfs::util {

class RangeBuffer {
 public:
  /// Stores `data` at `offset`, replacing whatever was there.
  void store(uint64_t offset, const rpc::Payload& data);

  /// Loads [offset, offset+length).  Never-written gaps read as zeros; any
  /// overlap with a virtual range yields a virtual payload.
  rpc::Payload load(uint64_t offset, uint64_t length) const;

  /// Forgets content in [start, end) (eviction / truncation).  Dropped
  /// ranges read as zeros again.
  void drop(uint64_t start, uint64_t end);

  /// True if [start, end) overlaps a virtual (unmaterialized) range.
  bool tainted(uint64_t start, uint64_t end) const {
    return virtual_ranges_.intersects(start, end);
  }

 private:
  void erase_real(uint64_t start, uint64_t end);

  std::map<uint64_t, std::vector<std::byte>> extents_;
  IntervalSet virtual_ranges_;
};

/// Elevator queue of disjoint byte extents, each carrying a value (the
/// client's per-data-server write-back scheduler queues dirty extents with
/// their payloads here).  `pop_run` services the queue in ascending-offset
/// order — elevator style — and coalesces a run of *adjacent* extents into
/// one dispatch, capped at `max_run` bytes, so many small dirties leave as
/// one big request.  A caller-supplied predicate can veto individual merges
/// (e.g. "only if also contiguous in file space").
template <typename V>
class ExtentQueue {
 public:
  struct Item {
    uint64_t start = 0;
    uint64_t length = 0;
    V value;
  };

  /// Inserts an extent.  The caller keeps extents disjoint (use
  /// `pop_overlap` first when re-dirtying a queued range).
  void push(uint64_t start, uint64_t length, V value) {
    total_ += length;
    extents_.insert_or_assign(start, Entry{length, std::move(value)});
  }

  /// Removes and returns one extent overlapping [start, end), if any.
  /// Callers loop until empty, merge content, and re-push — that keeps the
  /// queue disjoint so dispatch order can never resurrect stale bytes.
  std::optional<Item> pop_overlap(uint64_t start, uint64_t end) {
    auto it = extents_.lower_bound(start);
    if (it != extents_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.length > start) it = prev;
    }
    if (it == extents_.end() || it->first >= end) return std::nullopt;
    Item out{it->first, it->second.length, std::move(it->second.value)};
    total_ -= out.length;
    extents_.erase(it);
    return out;
  }

  /// Pops the lowest-offset run of adjacent extents totaling at most
  /// `max_run` bytes.  `merge_ok(prev_value, next_value)` gates each
  /// extension of the run; pass a constant-true predicate for pure
  /// offset-adjacency coalescing.  When the lowest extent alone exceeds
  /// `max_run`, `split(value, head_len)` must carve off and return the
  /// value for the first `head_len` bytes, leaving `value` as the tail.
  /// Empty result means an empty queue.
  template <typename MergeOk, typename Split>
  std::vector<Item> pop_run(uint64_t max_run, MergeOk&& merge_ok,
                            Split&& split) {
    std::vector<Item> run;
    auto it = extents_.begin();
    if (it == extents_.end()) return run;
    uint64_t run_len = 0;
    while (it != extents_.end() && it->second.length + run_len <= max_run) {
      if (!run.empty()) {
        const Item& prev = run.back();
        if (it->first != prev.start + prev.length ||
            !merge_ok(prev.value, it->second.value)) {
          break;
        }
      }
      run.push_back(Item{it->first, it->second.length,
                         std::move(it->second.value)});
      run_len += run.back().length;
      total_ -= run.back().length;
      it = extents_.erase(it);
    }
    if (run.empty()) {
      // First extent alone exceeds max_run: split it.
      Item head{it->first, max_run, split(it->second.value, max_run)};
      it->second.length -= max_run;
      auto node = extents_.extract(it);
      node.key() += max_run;
      extents_.insert(std::move(node));
      total_ -= max_run;
      run.push_back(std::move(head));
    }
    return run;
  }

  bool empty() const noexcept { return extents_.empty(); }
  size_t size() const noexcept { return extents_.size(); }
  uint64_t total_bytes() const noexcept { return total_; }

 private:
  struct Entry {
    uint64_t length;
    V value;
  };
  std::map<uint64_t, Entry> extents_;
  uint64_t total_ = 0;
};

}  // namespace dpnfs::util
