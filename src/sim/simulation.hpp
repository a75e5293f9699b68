// Discrete-event simulation core.
//
// `Simulation` owns the virtual clock and the event queue.  All coroutine
// wake-ups flow through the queue — including zero-delay ones — which keeps
// execution order deterministic (time, then insertion order) and the native
// call stack shallow.  The queue is a calendar queue (see event_queue.hpp).
#pragma once

#include <coroutine>
#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dpnfs::sim {

class Simulation {
 public:
  Simulation() { roots_.prev = roots_.next = &roots_; }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  Time now() const noexcept { return now_; }

  /// Schedules `h` to resume after `delay` (>= 0).
  void schedule(Duration delay, std::coroutine_handle<> h) {
    schedule_at(now_ + (delay > 0 ? delay : 0), h);
  }

  /// Schedules `h` to resume at absolute time `t` (clamped to >= now).
  void schedule_at(Time t, std::coroutine_handle<> h) {
    if (t < now_) t = now_;
    queue_.push(t, next_seq_++, h);
  }

  /// Awaitable: suspends the caller for `delay` simulated time.
  auto delay(Duration d) {
    struct Awaiter {
      Simulation& sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim.schedule(d, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable: yields the processor, resuming after already-queued events
  /// at the current time.
  auto yield() { return delay(0); }

  /// Starts a detached task.  The task self-destroys on completion; an
  /// escaping exception terminates the program.
  void spawn(Task<void> task) {
    auto h = task.release();
    h.promise().link_after(roots_);
    schedule(0, h);
  }

  /// Destroys every spawned task that has not finished — and with it every
  /// frame it awaits — then drops the pending wake-ups, without advancing
  /// the clock.  For teardown only: call it while the objects the frames'
  /// locals reference are still alive, and run nothing afterwards, since
  /// semaphores and channels may still hold the destroyed frames' handles.
  void destroy_detached();

  /// Runs until the event queue is empty.  Returns the number of events
  /// processed.
  uint64_t run();

  /// Runs until the queue is empty or the clock would pass `deadline`.
  /// Returns true if the queue drained before the deadline.
  bool run_until(Time deadline);

  uint64_t events_processed() const noexcept { return events_processed_; }

  /// Pending events.
  size_t queue_depth() const noexcept { return queue_.size(); }

  /// Storage retained by the event queue (bounded after bursts by the
  /// queue's shrink hysteresis).
  size_t queue_memory_bytes() const { return queue_.memory_bytes(); }

  /// Same-tick / wheel / overflow push classification.
  const EventQueue::PushMix& queue_push_mix() const noexcept {
    return queue_.push_mix();
  }

 private:
  EventQueue queue_;
  /// Head of the list of live spawned tasks.
  detail::RootLink roots_;
  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
};

}  // namespace dpnfs::sim
