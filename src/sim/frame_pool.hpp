// Size-classed free-list recycler for coroutine frames.
//
// Every `sim::Task<T>` coroutine frame is heap-allocated by the compiler
// through the promise's `operator new`.  A busy simulated RPC allocates
// dozens of short-lived frames (transfer legs, semaphore scopes, server
// dispatch), which at thousands of concurrent clients makes malloc/free the
// dominant cost of the run.  `FramePool` intercepts those allocations with
// per-size-class free lists so steady-state frame allocation is O(1) and
// touches memory that is already cache-warm.
//
// Frames are rounded up to 64-byte classes; anything larger than 8 KiB (or
// any allocation while the pool is disabled) falls through to ::operator
// new.  A one-byte header in front of the block records the class, so a
// block allocated while the pool was enabled is correctly recycled even if
// the pool has been disabled in between (and vice versa).
//
// The pool is process-global and can be switched off at runtime
// (`set_enabled(false)`) so `bench_scale` can measure the pre-overhaul
// allocation behavior honestly.  The simulation is single-threaded per
// `Simulation` instance; the free lists are thread_local for safety when
// tests run deployments on multiple threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace dpnfs::sim {

/// Frame-pool counters (thread-local).
struct FramePoolStats {
  uint64_t fresh = 0;   // allocations served by ::operator new
  uint64_t reused = 0;  // allocations served from a free list
};

class FramePool {
 public:
  static void* allocate(std::size_t n) {
    Shard& sh = shard();
    ++sh.live;
    const std::size_t cls = size_class(n);
    if (sh.enabled && cls < kClasses) {
      auto& list = sh.lists[cls];
      if (!list.empty()) {
        void* p = list.back();
        list.pop_back();
        ++sh.stats.reused;
        return offset(p);
      }
    }
    ++sh.stats.fresh;
    // Headered block: remember the class (or kClasses for pass-through) so
    // deallocate recycles correctly regardless of the toggle's history.
    auto* raw = static_cast<unsigned char*>(
        ::operator new(kHeader + (cls < kClasses ? class_bytes(cls) : n)));
    raw[0] = static_cast<unsigned char>(sh.enabled && cls < kClasses
                                            ? cls
                                            : kClasses);
    return raw + kHeader;
  }

  static void deallocate(void* p, std::size_t /*n*/) noexcept {
    Shard& sh = shard();
    --sh.live;
    auto* raw = static_cast<unsigned char*>(p) - kHeader;
    const unsigned cls = raw[0];
    if (cls < kClasses) {
      auto& list = sh.lists[cls];
      if (list.size() < kMaxPerClass) {
        list.push_back(raw);
        return;
      }
    }
    ::operator delete(raw);
  }

  static bool enabled() noexcept { return shard().enabled; }
  static void set_enabled(bool on) noexcept { shard().enabled = on; }

  using Stats = FramePoolStats;
  static Stats stats() noexcept { return shard().stats; }
  static void reset_stats() noexcept { shard().stats = Stats{}; }

  /// Coroutine frames allocated on this thread and not yet freed.
  static uint64_t live() noexcept { return shard().live; }

  /// Releases all cached blocks back to the system allocator.
  static void drain() noexcept {
    for (auto& list : shard().lists) {
      for (void* raw : list) ::operator delete(raw);
      list.clear();
      list.shrink_to_fit();
    }
  }

 private:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 128;  // up to 8 KiB frames
  static constexpr std::size_t kMaxPerClass = 4096;
  // Header keeps the frame's 16-byte alignment (coroutine frames require at
  // most alignof(std::max_align_t) here).
  static constexpr std::size_t kHeader = alignof(std::max_align_t);

  static std::size_t size_class(std::size_t n) noexcept {
    return (n + kGranularity - 1) / kGranularity;
  }
  static std::size_t class_bytes(std::size_t cls) noexcept {
    return cls * kGranularity;
  }
  static void* offset(void* raw) noexcept {
    return static_cast<unsigned char*>(raw) + kHeader;
  }

  struct Shard {
    bool enabled = true;
    uint64_t live = 0;
    Stats stats;
    std::vector<void*> lists[kClasses];
  };

  // A constinit thread_local pointer avoids the per-access dynamic-init
  // guard a non-trivial thread_local would cost on every coroutine frame
  // allocation.  The shard leaks at thread exit by design — it lives for
  // the process.
  static Shard& shard() noexcept {
    if (shard_p_ == nullptr) shard_p_ = new Shard();
    return *shard_p_;
  }

  static inline constinit thread_local Shard* shard_p_ = nullptr;
};

}  // namespace dpnfs::sim
