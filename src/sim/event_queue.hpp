// Event queue for the discrete-event core.
//
// A single-rotation calendar queue: a power-of-two wheel of fixed-width time
// buckets plus an overflow heap for events past the wheel horizon, plus a
// FIFO ring for events scheduled at the current instant (the zero-delay
// wake-ups that dominate semaphore hand-offs and channel pushes).  Push and
// pop are O(1) amortized at steady state instead of O(log n) heap sifts over
// the whole pending set.
//
// The queue realizes the total order (time, then insertion seq), so a run is
// bit-identical to one driven by any (time, seq) min-heap; `sim_task_test`
// checks every pop against such a reference heap.  Same-tick FIFO holds
// because seq breaks every tie:
//  * events at the current instant go to the FIFO ring, where push order is
//    seq order (seq is globally monotonic);
//  * a wheel bucket is a (time, seq) min-heap, so draining it interleaves
//    correctly with mid-drain insertions into the same bucket;
//  * pop() takes the global (time, seq) minimum across ring, wheel, and
//    overflow, so an event parked in the wheel at time T always precedes a
//    zero-delay event scheduled later (with a higher seq) at the same T.
//
// Storage obeys a shrink hysteresis: rings and heap vectors release memory
// when occupancy falls below a quarter of a large capacity, and wheel buckets
// drop oversized allocations once drained.  `memory_bytes()` reports the
// retained footprint so tests can bound it.
#pragma once

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace dpnfs::sim {

struct Event {
  Time time;
  uint64_t seq;
  std::coroutine_handle<> handle;
};

namespace detail {

// Min-heap order on (time, seq): `a` sorts after `b`.
inline bool event_after(const Event& a, const Event& b) noexcept {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
}

// Fixed-policy FIFO ring with power-of-two capacity and shrink hysteresis.
class EventRing {
 public:
  bool empty() const noexcept { return count_ == 0; }
  size_t size() const noexcept { return count_; }

  const Event& front() const noexcept { return buf_[head_ & mask()]; }

  void push_back(const Event& e) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask()] = e;
    ++count_;
  }

  Event pop_front() {
    Event e = buf_[head_ & mask()];
    ++head_;
    --count_;
    // Hysteresis: only shed memory once a burst is well and truly over, and
    // never chase small capacities.
    if (buf_.size() > 1024 && count_ < buf_.size() / 8) rebuild(count_ * 4);
    return e;
  }

  size_t capacity_bytes() const noexcept {
    return buf_.capacity() * sizeof(Event);
  }

 private:
  size_t mask() const noexcept { return buf_.size() - 1; }

  void grow() { rebuild(buf_.empty() ? 64 : buf_.size() * 2); }

  void rebuild(size_t want) {
    size_t cap = std::bit_ceil(std::max<size_t>(want, 64));
    std::vector<Event> next(cap);
    for (size_t i = 0; i < count_; ++i) next[i] = buf_[(head_ + i) & mask()];
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<Event> buf_;
  size_t head_ = 0;
  size_t count_ = 0;
};

// (time, seq) min-heap over a vector, with the same shrink hysteresis: the
// calendar queue's overflow store.
class EventHeap {
 public:
  bool empty() const noexcept { return v_.empty(); }
  size_t size() const noexcept { return v_.size(); }
  const Event& top() const noexcept { return v_.front(); }

  void push(const Event& e) {
    v_.push_back(e);
    std::push_heap(v_.begin(), v_.end(), event_after);
  }

  Event pop() {
    std::pop_heap(v_.begin(), v_.end(), event_after);
    Event e = v_.back();
    v_.pop_back();
    if (v_.capacity() > 4096 && v_.size() < v_.capacity() / 4) {
      std::vector<Event> next;
      next.reserve(std::max<size_t>(64, v_.size() * 2));
      next.assign(v_.begin(), v_.end());
      v_.swap(next);
    }
    return e;
  }

  size_t capacity_bytes() const noexcept {
    return v_.capacity() * sizeof(Event);
  }

 private:
  std::vector<Event> v_;
};

}  // namespace detail

class EventQueue {
 public:
  EventQueue() : buckets_(kBuckets), live_(kBuckets / 64, 0) {}

  bool empty() const noexcept { return size_ == 0; }
  size_t size() const noexcept { return size_; }

  void push(Time t, uint64_t seq, std::coroutine_handle<> h) {
    ++size_;
    if (t <= current_) {
      // Zero-delay (or clamped-to-now) wake-up: FIFO ring, O(1).  Push order
      // is seq order, so the ring stays sorted by (time, seq).
      ++mix_.immediate;
      immediate_.push_back(Event{current_, seq, h});
      return;
    }
    if (t - current_ >= kHorizon) {
      ++mix_.overflow;
    } else {
      ++mix_.wheel;
    }
    push_wheel(Event{t, seq, h});
  }

  /// How pushed events classified: same-tick FIFO ring vs wheel horizon vs
  /// overflow heap.
  struct PushMix {
    uint64_t immediate = 0;
    uint64_t wheel = 0;
    uint64_t overflow = 0;
  };
  const PushMix& push_mix() const noexcept { return mix_; }

  /// Earliest pending (time, seq) event's time.  Precondition: !empty().
  Time next_time() const { return peek_min()->time; }

  /// Removes and returns the (time, seq)-minimum event.
  /// Precondition: !empty().
  Event pop() {
    --size_;
    // Global minimum across the three stores.  All immediate events sit at
    // current_, so anything in the wheel/overflow at the same time but a
    // lower seq (scheduled before the clock reached current_) wins.
    const Event* m = peek_min();
    if (!immediate_.empty() && m == &immediate_.front()) {
      return immediate_.pop_front();
    }
    if (!overflow_.empty() && m == &overflow_.top()) {
      Event e = overflow_.pop();
      current_ = e.time;
      migrate_overflow();
      return e;
    }
    return pop_wheel();
  }

  /// Bytes of storage currently retained by the queue (capacities, not live
  /// events).  The shrink hysteresis bounds this after bursts.
  size_t memory_bytes() const {
    size_t total = overflow_.capacity_bytes() + immediate_.capacity_bytes() +
                   live_.capacity() * sizeof(uint64_t);
    for (const auto& b : buckets_) total += b.capacity() * sizeof(Event);
    return total;
  }

 private:
  // Wheel geometry: 4096 buckets of 2^11 ns (~2 us) cover a ~8.4 ms
  // horizon — wide enough for NIC/disk/CPU service times, while long timers
  // (retry backoff, samplers, run_until deadlines) ride the overflow heap.
  static constexpr size_t kBuckets = 4096;         // power of two
  static constexpr unsigned kWidthShift = 11;      // bucket width 2048 ns
  static constexpr Time kHorizon =
      static_cast<Time>(kBuckets - 1) << kWidthShift;

  static size_t bucket_index(Time t) noexcept {
    return (static_cast<uint64_t>(t) >> kWidthShift) & (kBuckets - 1);
  }

  void push_wheel(const Event& e) {
    if (e.time - current_ >= kHorizon) {
      overflow_.push(e);
      return;
    }
    size_t b = bucket_index(e.time);
    auto& v = buckets_[b];
    if (v.empty()) live_[b / 64] |= uint64_t{1} << (b % 64);
    v.push_back(e);
    std::push_heap(v.begin(), v.end(), detail::event_after);
    // Keep the cached minimum current: a new event can only move the
    // minimum earlier (in cyclic order from the clock's bucket).
    if (wheel_count_ == 0) {
      cached_min_ = b;
    } else if (cached_min_ != kBuckets) {
      const size_t start = bucket_index(current_);
      if (((b - start) & (kBuckets - 1)) <
          ((cached_min_ - start) & (kBuckets - 1))) {
        cached_min_ = b;
      }
    }
    ++wheel_count_;
  }

  // First non-empty bucket in cyclic order from the current cursor.  Bucket
  // windows increase monotonically along that order (single-rotation
  // invariant), so this bucket holds the wheel's (time, seq) minimum.  The
  // result is cached: pushes keep it current and only a drained bucket
  // forces a rescan, so steady-state pops skip the bitmap walk entirely.
  size_t min_bucket() const noexcept {
    if (cached_min_ != kBuckets) return cached_min_;
    cached_min_ = scan_min_bucket();
    return cached_min_;
  }

  size_t scan_min_bucket() const noexcept {
    const size_t start = bucket_index(current_);
    const size_t w0 = start / 64;
    uint64_t bits = live_[w0] & (~uint64_t{0} << (start % 64));
    if (bits != 0) {
      return w0 * 64 + static_cast<size_t>(std::countr_zero(bits));
    }
    // i == live_.size() revisits the start word for its low (wrapped) bits;
    // its high bits were checked above and are known empty.
    for (size_t i = 1; i <= live_.size(); ++i) {
      const size_t w = (w0 + i) % live_.size();
      if (live_[w] != 0) {
        return w * 64 + static_cast<size_t>(std::countr_zero(live_[w]));
      }
    }
    return kBuckets;  // unreachable when wheel_count_ > 0
  }

  const Event* peek_min() const {
    const Event* best = nullptr;
    if (!immediate_.empty()) best = &immediate_.front();
    if (wheel_count_ > 0) {
      const Event& w = buckets_[min_bucket()].front();
      if (!best || detail::event_after(*best, w)) best = &w;
    }
    if (!overflow_.empty()) {
      const Event& o = overflow_.top();
      if (!best || detail::event_after(*best, o)) best = &o;
    }
    return best;
  }

  Event pop_wheel() {
    size_t b = min_bucket();
    auto& v = buckets_[b];
    std::pop_heap(v.begin(), v.end(), detail::event_after);
    Event e = v.back();
    v.pop_back();
    --wheel_count_;
    if (v.empty()) {
      live_[b / 64] &= ~(uint64_t{1} << (b % 64));
      cached_min_ = kBuckets;  // rescan lazily on the next wheel access
      // Drained bucket: drop a burst-sized allocation rather than holding
      // peak capacity in every bucket it ever visited.
      if (v.capacity() > 512) std::vector<Event>().swap(v);
    }
    current_ = e.time;
    migrate_overflow();
    return e;
  }

  // Pull overflow events that fell inside the wheel horizon as the clock
  // advanced.  Amortized against the pops that advanced the clock.
  void migrate_overflow() {
    while (!overflow_.empty() && overflow_.top().time - current_ < kHorizon) {
      push_wheel(overflow_.pop());
    }
  }

  size_t size_ = 0;
  Time current_ = 0;  // time of the most recently popped event
  detail::EventRing immediate_;
  std::vector<std::vector<Event>> buckets_;
  std::vector<uint64_t> live_;  // occupancy bitmap over buckets_
  size_t wheel_count_ = 0;
  // Cached min_bucket() result; kBuckets means "rescan".  Mutable: caching
  // inside const peeks is invisible to callers.
  mutable size_t cached_min_ = kBuckets;
  detail::EventHeap overflow_;
  PushMix mix_;
};

}  // namespace dpnfs::sim
