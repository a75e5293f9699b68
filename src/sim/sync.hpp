// Synchronization primitives for simulation coroutines.
//
// All primitives wake waiters through the simulation event queue (never by
// direct resume), preserving deterministic FIFO ordering and bounding native
// stack depth.  They are intentionally single-threaded: the whole simulation
// runs on one OS thread.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "sim/simulation.hpp"

namespace dpnfs::sim {

/// Counting semaphore with FIFO waiters.  Models exclusive or limited
/// resources (disk arms, CPU cores, server worker threads, buffer pools).
class Semaphore {
 public:
  Semaphore(Simulation& sim, uint64_t permits) : sim_(sim), permits_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  uint64_t available() const noexcept { return permits_; }
  size_t waiters() const noexcept { return waiters_.size(); }

  /// Awaitable single-permit acquire.
  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() {
        if (s.permits_ > 0) {
          --s.permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { s.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Non-suspending acquire: takes a permit iff one is available right now.
  bool try_acquire() noexcept {
    if (permits_ == 0) return false;
    --permits_;
    return true;
  }

  /// Releases one permit; hands it directly to the oldest waiter if any.
  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.schedule(0, h);  // permit transferred, not returned to the pool
    } else {
      ++permits_;
    }
  }

  /// RAII permit: releases on destruction.
  class ScopedPermit {
   public:
    ScopedPermit() = default;
    explicit ScopedPermit(Semaphore* s) : sem_(s) {}
    ScopedPermit(ScopedPermit&& o) noexcept : sem_(std::exchange(o.sem_, nullptr)) {}
    ScopedPermit& operator=(ScopedPermit&& o) noexcept {
      if (this != &o) {
        reset();
        sem_ = std::exchange(o.sem_, nullptr);
      }
      return *this;
    }
    ScopedPermit(const ScopedPermit&) = delete;
    ScopedPermit& operator=(const ScopedPermit&) = delete;
    ~ScopedPermit() { reset(); }

    void reset() {
      if (sem_ != nullptr) std::exchange(sem_, nullptr)->release();
    }

   private:
    Semaphore* sem_ = nullptr;
  };

  /// Awaitable acquire returning an RAII permit.
  Task<ScopedPermit> scoped() {
    co_await acquire();
    co_return ScopedPermit{this};
  }

  Simulation& simulation() noexcept { return sim_; }

 private:
  Simulation& sim_;
  uint64_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// One-shot latch: `wait()` suspends until `set()`; after that, waits
/// complete immediately.
class Latch {
 public:
  explicit Latch(Simulation& sim) : sim_(sim) {}

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) sim_.schedule(0, h);
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Latch& l;
      bool await_ready() const noexcept { return l.set_; }
      void await_suspend(std::coroutine_handle<> h) { l.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  bool set_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Joins a dynamic set of spawned tasks (Go-style wait group).
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(sim) {}

  void add(uint64_t n = 1) { count_ += n; }

  void done() {
    assert(count_ > 0);
    if (--count_ == 0) {
      for (auto h : waiters_) sim_.schedule(0, h);
      waiters_.clear();
    }
  }

  uint64_t pending() const noexcept { return count_; }

  auto wait() {
    struct Awaiter {
      WaitGroup& wg;
      bool await_ready() const noexcept { return wg.count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) { wg.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Spawns `task` detached and marks this group done when it finishes.
  void spawn(Task<void> task) {
    add(1);
    sim_.spawn(run_and_done(std::move(task)));
  }

 private:
  Task<void> run_and_done(Task<void> task) {
    co_await task;
    done();
  }

  Simulation& sim_;
  uint64_t count_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Cyclic barrier: `parties` tasks rendezvous; the last arrival releases
/// everyone and the barrier resets for reuse (MPI_Barrier-style).
class Barrier {
 public:
  Barrier(Simulation& sim, uint64_t parties) : sim_(sim), parties_(parties) {}

  auto arrive_and_wait() {
    struct Awaiter {
      Barrier& b;
      bool await_ready() {
        if (b.arrived_ + 1 == b.parties_) {
          b.arrived_ = 0;
          for (auto h : b.waiters_) b.sim_.schedule(0, h);
          b.waiters_.clear();
          return true;  // last arrival passes through immediately
        }
        ++b.arrived_;
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { b.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  uint64_t parties_;
  uint64_t arrived_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// FIFO message queue with optional capacity bound and close semantics.
/// `recv()` yields std::nullopt once the channel is closed and drained.
template <typename T>
class Channel {
 public:
  /// `capacity` == 0 means unbounded.
  explicit Channel(Simulation& sim, size_t capacity = 0)
      : sim_(sim), capacity_(capacity) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  size_t size() const noexcept { return items_.size(); }
  bool closed() const noexcept { return closed_; }

  /// Awaitable send; suspends while a bounded channel is full.
  /// Sending on a closed channel is a programming error.
  Task<void> send(T item) {
    assert(!closed_);
    while (capacity_ != 0 && items_.size() >= capacity_) {
      co_await suspend_on(send_waiters_);
      if (closed_) co_return;  // dropped: receiver went away
    }
    items_.push_back(std::move(item));
    wake_one(recv_waiters_);
  }

  /// Non-suspending send for unbounded channels (asserts unbounded).
  void push(T item) {
    assert(capacity_ == 0 && !closed_);
    items_.push_back(std::move(item));
    wake_one(recv_waiters_);
  }

  /// Awaitable receive; nullopt after close+drain.
  Task<std::optional<T>> recv() {
    while (items_.empty()) {
      if (closed_) co_return std::nullopt;
      co_await suspend_on(recv_waiters_);
    }
    T item = std::move(items_.front());
    items_.pop_front();
    wake_one(send_waiters_);
    co_return std::optional<T>(std::move(item));
  }

  void close() {
    closed_ = true;
    wake_all(recv_waiters_);
    wake_all(send_waiters_);
  }

 private:
  struct QueueAwaiter {
    std::deque<std::coroutine_handle<>>& q;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { q.push_back(h); }
    void await_resume() const noexcept {}
  };

  QueueAwaiter suspend_on(std::deque<std::coroutine_handle<>>& q) {
    return QueueAwaiter{q};
  }

  void wake_one(std::deque<std::coroutine_handle<>>& q) {
    if (!q.empty()) {
      sim_.schedule(0, q.front());
      q.pop_front();
    }
  }

  void wake_all(std::deque<std::coroutine_handle<>>& q) {
    for (auto h : q) sim_.schedule(0, h);
    q.clear();
  }

  Simulation& sim_;
  size_t capacity_;
  bool closed_ = false;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> recv_waiters_;
  std::deque<std::coroutine_handle<>> send_waiters_;
};

}  // namespace dpnfs::sim
