#include "sim/simulation.hpp"

namespace dpnfs::sim {

uint64_t Simulation::run() {
  const uint64_t start = events_processed_;
  while (!queue_.empty()) {
    Event ev = queue_.pop();
    now_ = ev.time;
    ++events_processed_;
    ev.handle.resume();
  }
  return events_processed_ - start;
}

void Simulation::destroy_detached() {
  // A destroyed frame's locals may spawn or wake tasks as they go (a
  // released semaphore permit schedules its next waiter), so loop until the
  // list stays empty and only then drop the queue.
  while (roots_.next != &roots_) {
    auto& p = static_cast<Task<void>::promise_type&>(
        static_cast<detail::PromiseBase&>(*roots_.next));
    p.unlink();
    Task<void>::handle_type::from_promise(p).destroy();
  }
  while (!queue_.empty()) queue_.pop();
}

bool Simulation::run_until(Time deadline) {
  while (!queue_.empty()) {
    if (queue_.next_time() > deadline) {
      now_ = deadline;
      return false;
    }
    Event ev = queue_.pop();
    now_ = ev.time;
    ++events_processed_;
    ev.handle.resume();
  }
  return true;
}

}  // namespace dpnfs::sim
