#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace dpnfs::sim {
namespace {

Task<void> hold(Simulation& sim, Semaphore& sem, Duration d, int tag,
                std::vector<int>& order) {
  co_await sem.acquire();
  order.push_back(tag);
  co_await sim.delay(d);
  sem.release();
}

TEST(Semaphore, SerializesExclusiveResource) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) sim.spawn(hold(sim, sem, ms(10), i, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), ms(40));
  EXPECT_EQ(sem.available(), 1u);
}

TEST(Semaphore, MultiplePermitsRunConcurrently) {
  Simulation sim;
  Semaphore sem(sim, 2);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) sim.spawn(hold(sim, sem, ms(10), i, order));
  sim.run();
  EXPECT_EQ(sim.now(), ms(20));  // two waves of two
}

Task<void> scoped_hold(Simulation& sim, Semaphore& sem, Duration d) {
  auto permit = co_await sem.scoped();
  co_await sim.delay(d);
  // permit released by RAII
}

TEST(Semaphore, ScopedPermitReleasesOnScopeExit) {
  Simulation sim;
  Semaphore sem(sim, 1);
  sim.spawn(scoped_hold(sim, sem, ms(5)));
  sim.spawn(scoped_hold(sim, sem, ms(5)));
  sim.run();
  EXPECT_EQ(sim.now(), ms(10));
  EXPECT_EQ(sem.available(), 1u);
}

Task<void> wait_latch(Latch& l, Simulation& sim, std::vector<Time>& out) {
  co_await l.wait();
  out.push_back(sim.now());
}

Task<void> set_latch_at(Simulation& sim, Latch& l, Duration d) {
  co_await sim.delay(d);
  l.set();
}

TEST(Latch, ReleasesAllWaitersOnSet) {
  Simulation sim;
  Latch latch(sim);
  std::vector<Time> times;
  sim.spawn(wait_latch(latch, sim, times));
  sim.spawn(wait_latch(latch, sim, times));
  sim.spawn(set_latch_at(sim, latch, ms(7)));
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], ms(7));
  EXPECT_EQ(times[1], ms(7));
}

TEST(Latch, WaitAfterSetIsImmediate) {
  Simulation sim;
  Latch latch(sim);
  latch.set();
  std::vector<Time> times;
  sim.spawn(wait_latch(latch, sim, times));
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 0);
}

Task<void> sleeper(Simulation& sim, Duration d) { co_await sim.delay(d); }

Task<void> join_group(Simulation& sim, WaitGroup& wg, Time& finished_at) {
  co_await wg.wait();
  finished_at = sim.now();
}

TEST(WaitGroup, WaitsForAllSpawnedTasks) {
  Simulation sim;
  WaitGroup wg(sim);
  wg.spawn(sleeper(sim, ms(3)));
  wg.spawn(sleeper(sim, ms(9)));
  wg.spawn(sleeper(sim, ms(6)));
  Time finished = -1;
  sim.spawn(join_group(sim, wg, finished));
  sim.run();
  EXPECT_EQ(finished, ms(9));
  EXPECT_EQ(wg.pending(), 0u);
}

TEST(WaitGroup, EmptyGroupDoesNotBlock) {
  Simulation sim;
  WaitGroup wg(sim);
  Time finished = -1;
  sim.spawn(join_group(sim, wg, finished));
  sim.run();
  EXPECT_EQ(finished, 0);
}

Task<void> producer(Simulation& sim, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await ch.send(i);
    co_await sim.delay(ms(1));
  }
  ch.close();
}

Task<void> consumer(Channel<int>& ch, std::vector<int>& out) {
  while (true) {
    auto item = co_await ch.recv();
    if (!item) break;
    out.push_back(*item);
  }
}

TEST(Channel, FifoDeliveryAndClose) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn(consumer(ch, got));
  sim.spawn(producer(sim, ch, 5));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

Task<void> fast_producer(Channel<int>& ch, int n, Simulation& sim,
                         std::vector<Time>& send_times) {
  for (int i = 0; i < n; ++i) {
    co_await ch.send(i);
    send_times.push_back(sim.now());
  }
  ch.close();
}

Task<void> slow_consumer(Simulation& sim, Channel<int>& ch, Duration per_item) {
  while (true) {
    auto item = co_await ch.recv();
    if (!item) break;
    co_await sim.delay(per_item);
  }
}

TEST(Channel, BoundedChannelAppliesBackpressure) {
  Simulation sim;
  Channel<int> ch(sim, 2);
  std::vector<Time> send_times;
  sim.spawn(fast_producer(ch, 6, sim, send_times));
  sim.spawn(slow_consumer(sim, ch, ms(10)));
  sim.run();
  ASSERT_EQ(send_times.size(), 6u);
  // First two sends fill the buffer instantly; later sends must wait for
  // the consumer to drain.
  EXPECT_EQ(send_times[0], 0);
  EXPECT_EQ(send_times[1], 0);
  EXPECT_GT(send_times[5], ms(20));
}

TEST(Channel, RecvOnClosedEmptyChannelReturnsNullopt) {
  Simulation sim;
  Channel<int> ch(sim);
  ch.close();
  std::vector<int> got;
  sim.spawn(consumer(ch, got));
  sim.run();
  EXPECT_TRUE(got.empty());
}

TEST(Channel, PushIsNonSuspendingOnUnbounded) {
  Simulation sim;
  Channel<std::string> ch(sim);
  ch.push("a");
  ch.push("b");
  ch.close();
  std::vector<std::string> got;
  sim.spawn([](Channel<std::string>& c, std::vector<std::string>& out) -> Task<void> {
    while (auto v = co_await c.recv()) out.push_back(*v);
  }(ch, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace dpnfs::sim
