#include <gtest/gtest.h>

#include <coroutine>
#include <cstring>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace dpnfs::sim {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.run(), 0u);
}

Task<void> record_after(Simulation& sim, Duration d, std::vector<Time>& out) {
  co_await sim.delay(d);
  out.push_back(sim.now());
}

TEST(Simulation, DelayAdvancesClock) {
  Simulation sim;
  std::vector<Time> times;
  sim.spawn(record_after(sim, ms(5), times));
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], ms(5));
  EXPECT_EQ(sim.now(), ms(5));
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<Time> times;
  sim.spawn(record_after(sim, ms(30), times));
  sim.spawn(record_after(sim, ms(10), times));
  sim.spawn(record_after(sim, ms(20), times));
  sim.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], ms(10));
  EXPECT_EQ(times[1], ms(20));
  EXPECT_EQ(times[2], ms(30));
}

Task<void> tagged(Simulation& sim, int tag, std::vector<int>& out) {
  co_await sim.yield();
  out.push_back(tag);
}

TEST(Simulation, EqualTimesFireInSpawnOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) sim.spawn(tagged(sim, i, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

Task<int> answer() { co_return 42; }

Task<int> chain() {
  int v = co_await answer();
  co_return v + 1;
}

Task<void> check_chain(bool& ok) {
  ok = (co_await chain()) == 43;
}

TEST(Task, ValueChainsThroughNestedAwaits) {
  Simulation sim;
  bool ok = false;
  sim.spawn(check_chain(ok));
  sim.run();
  EXPECT_TRUE(ok);
}

Task<int> thrower() {
  throw std::runtime_error("boom");
  co_return 0;  // unreachable
}

Task<void> catcher(bool& caught) {
  try {
    (void)co_await thrower();
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  sim.spawn(catcher(caught));
  sim.run();
  EXPECT_TRUE(caught);
}

Task<void> deep(Simulation& sim, int depth, int& leaf_hits) {
  if (depth == 0) {
    co_await sim.yield();
    ++leaf_hits;
    co_return;
  }
  co_await deep(sim, depth - 1, leaf_hits);
}

TEST(Task, DeepRecursionDoesNotOverflowStack) {
  Simulation sim;
  int hits = 0;
  sim.spawn(deep(sim, 50000, hits));
  sim.run();
  EXPECT_EQ(hits, 1);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<Time> times;
  sim.spawn(record_after(sim, ms(10), times));
  sim.spawn(record_after(sim, ms(100), times));
  EXPECT_FALSE(sim.run_until(ms(50)));
  EXPECT_EQ(times.size(), 1u);
  EXPECT_EQ(sim.now(), ms(50));
  EXPECT_TRUE(sim.run_until(ms(1000)));
  EXPECT_EQ(times.size(), 2u);
}

Task<void> sequential_delays(Simulation& sim, std::vector<Time>& out) {
  co_await sim.delay(ms(1));
  out.push_back(sim.now());
  co_await sim.delay(ms(2));
  out.push_back(sim.now());
  co_await sim.delay(ms(3));
  out.push_back(sim.now());
}

TEST(Simulation, SequentialDelaysAccumulate) {
  Simulation sim;
  std::vector<Time> times;
  sim.spawn(sequential_delays(sim, times));
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{ms(1), ms(3), ms(6)}));
}

TEST(Task, DroppedTaskNeverRunsAndDoesNotLeak) {
  Simulation sim;
  bool ran = false;
  {
    auto t = [](bool& r) -> Task<void> {
      r = true;
      co_return;
    }(ran);
    EXPECT_TRUE(t.valid());
    // destroyed unawaited
  }
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(us(1), 1000);
  EXPECT_EQ(ms(1), 1000000);
  EXPECT_EQ(sec(1), 1000000000);
  EXPECT_EQ(from_seconds(1.5), sec(1) + ms(500));
  EXPECT_DOUBLE_EQ(to_seconds(ms(1500)), 1.5);
}

TEST(TimeHelpers, DurationForBytes) {
  EXPECT_EQ(duration_for_bytes(0, 1e6), 0);
  EXPECT_EQ(duration_for_bytes(1'000'000, 1e6), sec(1));
  EXPECT_GE(duration_for_bytes(1, 1e12), 1);  // nonzero payload takes time
}

// --- Event-queue order and memory bounds -----------------------------------

namespace {

// A busy pseudo-random schedule: chains of delays at mixed magnitudes (same
// tick, sub-bucket, cross-bucket, and beyond the calendar horizon), each
// appending its marker when it fires.  Exercises every storage class of the
// calendar queue.
Task<void> chain(Simulation& sim, uint64_t seed, int hops,
                 std::vector<std::pair<Time, uint64_t>>& out) {
  uint64_t state = seed;
  for (int i = 0; i < hops; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Delays from 0ns to ~67ms: zero-delay wakeups, intra-bucket,
    // inter-bucket, and overflow-heap territory.
    const Duration d = static_cast<Duration>(state % 67'000'000ULL);
    co_await sim.delay(d);
    out.emplace_back(sim.now(), seed * 1000 + static_cast<uint64_t>(i));
  }
}

struct Lcg {
  uint64_t s;
  uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 17;
  }
};

// Same tick, inside the calendar wheel's ~8.4 ms horizon, or past it into
// the overflow heap.
Duration mixed_delay(Lcg& rng) {
  const uint64_t r = rng.next();
  switch (r % 8) {
    case 0:
    case 1:
    case 2:
      return 0;
    case 7:
      return ms(9) + static_cast<Duration>(r % 200'000'000ULL);
    default:
      return 1 + static_cast<Duration>(r % 8'300'000ULL);
  }
}

}  // namespace

// The calendar queue must realize the (time, seq) total order of a plain
// min-heap.  A bare queue and a reference std::priority_queue take the same
// pushes, made the way Simulation makes them (relative to the clock, seq
// increasing), and every pop must agree.
TEST(EventQueue, PopsInReferenceHeapOrder) {
  using Key = std::pair<Time, uint64_t>;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> ref;
  EventQueue q;
  Lcg rng{0x5eed};
  Time now = 0;
  uint64_t seq = 0;
  auto schedule = [&](Duration d) {
    q.push(now + d, seq, std::noop_coroutine());
    ref.emplace(now + d, seq++);
  };
  for (int i = 0; i < 512; ++i) schedule(mixed_delay(rng));

  uint64_t pops = 0;
  bool jumped = false;
  while (!q.empty()) {
    ASSERT_EQ(q.size(), ref.size()) << "pop " << pops;
    ASSERT_EQ(q.next_time(), ref.top().first) << "pop " << pops;
    // Simulation::run_until, once: the next event lies past the deadline,
    // so the clock moves to the deadline without a pop, past the queue's
    // own cursor.  Pushes that follow, even zero-delay ones, land ahead of
    // that cursor.
    if (!jumped && pops >= 20'000 && q.next_time() > now + 1) {
      now += (q.next_time() - now) / 2;
      jumped = true;
      for (int i = 0; i < 64; ++i) schedule(mixed_delay(rng));
      continue;
    }
    // Simulation::run: pop, move the clock, dispatch.  Each dispatch
    // schedules one follow-up and now and then a second, until the push
    // budget runs out and the queue drains.
    const Event e = q.pop();
    ASSERT_EQ(Key(e.time, e.seq), ref.top()) << "pop " << pops;
    ref.pop();
    now = e.time;
    ++pops;
    if (seq < 40'000) {
      schedule(mixed_delay(rng));
      if (rng.next() % 4 == 0) schedule(mixed_delay(rng));
    }
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_TRUE(jumped);
}

// Queue storage must not ratchet: after a burst of events drains, the
// retained footprint shrinks back toward the steady state instead of
// keeping the high-water allocation forever (shrink hysteresis in the
// immediate ring and per-bucket heaps; oversized bucket storage is dropped
// on drain).
TEST(EventQueue, StorageShrinksAfterBurst) {
  Simulation sim;
  std::vector<std::pair<Time, uint64_t>> sink;
  // 30k one-shot wakeups in a two-bucket window: the immediate ring grows
  // to hold every spawn, then two bucket heaps hold every pending timer at
  // once — every storage tier hits its high-water mark before a single
  // event fires.
  uint64_t fired = 0;
  for (uint64_t c = 0; c < 30'000; ++c) {
    sim.spawn([](Simulation& sim, uint64_t seed,
                 uint64_t& fired) -> Task<void> {
      co_await sim.delay(static_cast<Duration>(
          (seed * 6364136223846793005ULL + 1442695040888963407ULL) % 4096));
      ++fired;
    }(sim, c + 1, fired));
  }
  sim.run();
  ASSERT_EQ(fired, 30'000u);
  const size_t drained = sim.queue_memory_bytes();

  // A light follow-up load must not see the burst's footprint again.
  sim.spawn(chain(sim, 99, 8, sink));
  sim.run();
  const size_t steady = sim.queue_memory_bytes();

  // The structural floor (the calendar bucket array) plus a bounded
  // per-bucket cache: far below the burst's tens of thousands of queued
  // events (~MBs if retained).
  EXPECT_LT(drained, 1u << 21);
  EXPECT_LT(steady, 1u << 21);
}

// Frames recycle by 64-byte size class, derived from the size alone: a freed
// block is the next one handed out for its class, and only its class.
TEST(FramePool, RecyclesBlocksBySizeClass) {
  const uint64_t before = FramePool::live();
  for (std::size_t n : {1, 64, 65, 8192, 8193}) {
    void* p = FramePool::allocate(n);
    std::memset(p, 0xa5, n);  // the whole requested size is usable
    FramePool::deallocate(p, n);
    void* again = FramePool::allocate(n);
    if (n <= 8192) {
      EXPECT_EQ(again, p) << "size " << n;
    }
    FramePool::deallocate(again, n);
  }

  // 1 and 64 share the first class; 65 starts the second.
  void* small = FramePool::allocate(64);
  FramePool::deallocate(small, 64);
  void* next_class = FramePool::allocate(65);
  EXPECT_NE(next_class, small);
  void* tiny = FramePool::allocate(1);
  EXPECT_EQ(tiny, small);

  // 8 KiB is the largest class; 8193 bytes pass straight through to
  // ::operator new, so they cannot take the cached 8 KiB block.
  void* largest = FramePool::allocate(8192);
  FramePool::deallocate(largest, 8192);
  void* oversized = FramePool::allocate(8193);
  EXPECT_NE(oversized, largest);
  EXPECT_EQ(FramePool::allocate(8192), largest);

  FramePool::deallocate(oversized, 8193);
  FramePool::deallocate(largest, 8192);
  FramePool::deallocate(tiny, 1);
  FramePool::deallocate(next_class, 65);
  EXPECT_EQ(FramePool::live(), before);
}

}  // namespace
}  // namespace dpnfs::sim
