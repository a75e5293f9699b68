// Recycling pool for byte buffers.
//
// XDR encoders, payload gathers, and decode-side fragment copies each churn
// a `std::vector<std::byte>` per RPC.  `BufferPool` keeps retired vectors in
// power-of-two capacity classes and hands them back on the next `take`, so
// steady-state buffer allocation is O(1) per RPC instead of a malloc/free
// pair per message.
//
// Process-global, runtime-toggleable (`set_enabled(false)` restores the
// plain-malloc behavior for the legacy-core bench mode).  Thread_local
// free lists keep it safe when tests run deployments on several threads.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dpnfs::util {

namespace detail {

inline constexpr std::size_t kBufferPoolClasses = 25;  // up to 16 MiB

struct BufferPoolShard {
  bool enabled = true;
  uint64_t fresh = 0;
  uint64_t reused = 0;
  std::size_t cached_bytes = 0;
  std::vector<std::vector<std::byte>> lists[kBufferPoolClasses];
};

}  // namespace detail

class BufferPool {
 public:
  /// Returns an empty vector whose capacity is at least `reserve_hint`.
  static std::vector<std::byte> take(std::size_t reserve_hint) {
    Shard& s = shard();
    if (s.enabled) {
      for (std::size_t cls = class_of(reserve_hint); cls < kClasses; ++cls) {
        auto& list = s.lists[cls];
        if (!list.empty()) {
          std::vector<std::byte> v = std::move(list.back());
          list.pop_back();
          s.cached_bytes -= v.capacity();
          ++s.reused;
          return v;
        }
      }
    }
    ++s.fresh;
    std::vector<std::byte> v;
    v.reserve(reserve_hint);
    return v;
  }

  /// Retires a vector into the pool.  No-op for tiny or oversized buffers
  /// and when the pool is full or disabled.
  static void give(std::vector<std::byte>&& v) noexcept {
    Shard& s = shard();
    const std::size_t cap = v.capacity();
    if (!s.enabled || cap < kMinCapacity || cap > kMaxCapacity) return;
    const std::size_t cls = class_of(cap);
    // The buffer serves requests up to its full capacity, but classes round
    // *up*; file it under the class it can actually satisfy.
    const std::size_t file_under = (std::size_t{1} << cls) <= cap ? cls
                                   : cls > 0                      ? cls - 1
                                                                  : 0;
    auto& list = s.lists[file_under];
    if (list.size() >= kMaxPerClass || s.cached_bytes + cap > kMaxCachedBytes) {
      return;
    }
    v.clear();
    s.cached_bytes += cap;
    list.push_back(std::move(v));
  }

  static bool enabled() noexcept { return shard().enabled; }
  static void set_enabled(bool on) noexcept { shard().enabled = on; }

  struct Stats {
    uint64_t fresh = 0;
    uint64_t reused = 0;
    std::size_t cached_bytes = 0;
  };
  static Stats stats() noexcept {
    Shard& s = shard();
    return {s.fresh, s.reused, s.cached_bytes};
  }
  static void reset_stats() noexcept {
    shard().fresh = 0;
    shard().reused = 0;
  }

  /// Frees every cached buffer.
  static void drain() noexcept {
    Shard& s = shard();
    for (auto& list : s.lists) {
      list.clear();
      list.shrink_to_fit();
    }
    s.cached_bytes = 0;
  }

 private:
  static constexpr std::size_t kClasses = detail::kBufferPoolClasses;
  static constexpr std::size_t kMinCapacity = 64;
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << (kClasses - 1);
  static constexpr std::size_t kMaxPerClass = 64;
  // One largest-class buffer's worth; a lower cap would leave the top
  // classes unable to pool anything.  Chosen by measurement (perfbench
  // openloop_sessions, seed 1, 25 s): at 32 or 64 MiB the real-byte
  // buffers of its verification pass stayed pooled afterwards and peak RSS
  // read 82 MB; at 16 MiB it read 73 MB.
  static constexpr std::size_t kMaxCachedBytes = kMaxCapacity;

  static std::size_t class_of(std::size_t n) noexcept {
    return static_cast<std::size_t>(
        std::bit_width(std::bit_ceil(std::max<std::size_t>(n, 1)) - 1));
  }

  using Shard = detail::BufferPoolShard;

  // A constinit thread_local pointer avoids the per-access dynamic-init
  // guard a non-trivial thread_local object would cost (take/give run on
  // every RPC; the guard showed up in profiles).  The shard leaks at thread
  // exit by design — it lives for the process.
  static Shard& shard() noexcept {
    if (shard_p_ == nullptr) shard_p_ = new Shard();
    return *shard_p_;
  }

  static inline constinit thread_local Shard* shard_p_ = nullptr;
};

}  // namespace dpnfs::util
