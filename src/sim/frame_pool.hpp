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
// Frames are rounded up to 64-byte classes; anything larger than 8 KiB falls
// through to ::operator new.  The class is a function of the frame size, and
// the promise's sized `operator delete` passes that size back, so a block
// needs no header to find its way home.
//
// The simulation is single-threaded per `Simulation` instance; the free
// lists are thread_local for safety when tests run deployments on multiple
// threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace dpnfs::sim {

class FramePool {
 public:
  static void* allocate(std::size_t n) {
    Shard& sh = shard();
    ++sh.live;
    const std::size_t cls = size_class(n);
    if (cls >= kClasses) return ::operator new(n);
    auto& list = sh.lists[cls];
    if (list.empty()) return ::operator new(class_bytes(cls));
    void* p = list.back();
    list.pop_back();
    return p;
  }

  /// `n` must be the size `p` was allocated with.
  static void deallocate(void* p, std::size_t n) noexcept {
    Shard& sh = shard();
    --sh.live;
    const std::size_t cls = size_class(n);
    if (cls < kClasses && sh.lists[cls].size() < kMaxPerClass) {
      sh.lists[cls].push_back(p);
      return;
    }
    ::operator delete(p);
  }

  /// Coroutine frames allocated on this thread and not yet freed.
  static uint64_t live() noexcept { return shard().live; }

 private:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 128;  // up to 8 KiB frames
  static constexpr std::size_t kMaxPerClass = 4096;

  // Class c holds blocks of (c + 1) * 64 bytes.  n == 0 wraps to a huge
  // class and passes through.
  static std::size_t size_class(std::size_t n) noexcept {
    return (n - 1) / kGranularity;
  }
  static std::size_t class_bytes(std::size_t cls) noexcept {
    return (cls + 1) * kGranularity;
  }

  struct Shard {
    uint64_t live = 0;
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
