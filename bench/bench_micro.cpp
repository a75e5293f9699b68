// Micro-benchmarks (google-benchmark) for the hot building blocks: XDR
// codecs, interval sets, the sparse range buffer, the simulation kernel's
// event throughput, and the observability hot-path primitives.  These bound
// how large a simulated experiment can be before wall-clock time matters.
#include <benchmark/benchmark.h>

#include "nfs/layout.hpp"
#include "nfs/ops.hpp"
#include "rpc/xdr.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "util/interval_set.hpp"
#include "util/obs.hpp"
#include "util/range_buffer.hpp"
#include "util/rng.hpp"

namespace {

using namespace dpnfs;

void BM_XdrEncodePrimitives(benchmark::State& state) {
  for (auto _ : state) {
    rpc::XdrEncoder enc;
    for (int i = 0; i < 64; ++i) {
      enc.put_u32(static_cast<uint32_t>(i));
      enc.put_u64(static_cast<uint64_t>(i) << 32);
      enc.put_string("component-name");
    }
    benchmark::DoNotOptimize(std::move(enc).take());
  }
  state.SetItemsProcessed(state.iterations() * 192);
}
BENCHMARK(BM_XdrEncodePrimitives);

void BM_XdrRoundTripCompound(benchmark::State& state) {
  for (auto _ : state) {
    nfs::CompoundBuilder b;
    b.add(nfs::OpCode::kSequence, nfs::SequenceArgs{nfs::SessionId{1}, 0});
    b.add(nfs::OpCode::kPutFh, nfs::PutFhArgs{nfs::FileHandle{42}});
    b.add(nfs::OpCode::kWrite,
          nfs::WriteArgs{nfs::Stateid{7}, 1 << 20, nfs::StableHow::kUnstable,
                         rpc::Payload::virtual_bytes(2 << 20)});
    rpc::XdrEncoder enc = std::move(b).finish();
    const auto buf = std::move(enc).take();
    rpc::XdrDecoder dec(buf);
    benchmark::DoNotOptimize(dec.get_u32());
  }
}
BENCHMARK(BM_XdrRoundTripCompound);

void BM_FileLayoutEncodeDecode(benchmark::State& state) {
  nfs::FileLayout l;
  l.stripe_unit = 2 << 20;
  for (uint32_t i = 0; i < 6; ++i) {
    l.devices.push_back(nfs::DeviceId{i});
    l.fhs.push_back(nfs::FileHandle{1000 + i});
  }
  for (auto _ : state) {
    rpc::XdrEncoder enc;
    l.encode(enc);
    const auto buf = std::move(enc).take();
    rpc::XdrDecoder dec(buf);
    benchmark::DoNotOptimize(nfs::FileLayout::decode(dec));
  }
}
BENCHMARK(BM_FileLayoutEncodeDecode);

void BM_IntervalSetChurn(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    util::IntervalSet s;
    for (int i = 0; i < 256; ++i) {
      const uint64_t a = rng.below(1 << 20);
      const uint64_t b = a + rng.range(1, 8192);
      if (rng.chance(0.7)) {
        s.add(a, b);
      } else {
        s.subtract(a, b);
      }
    }
    benchmark::DoNotOptimize(s.total_length());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_IntervalSetChurn);

void BM_RangeBufferStoreLoad(benchmark::State& state) {
  const auto chunk = static_cast<size_t>(state.range(0));
  std::vector<std::byte> data(chunk, std::byte{0x5A});
  for (auto _ : state) {
    util::RangeBuffer b;
    for (int i = 0; i < 32; ++i) {
      b.store(static_cast<uint64_t>(i) * chunk,
              rpc::Payload::inline_bytes(data));
    }
    benchmark::DoNotOptimize(b.load(0, 32 * chunk));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 64 * chunk);
}
BENCHMARK(BM_RangeBufferStoreLoad)->Arg(4096)->Arg(65536);

void BM_SimEventThroughput(benchmark::State& state) {
  // Measures raw scheduler throughput: N coroutines ping-ponging delays.
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 16; ++i) {
      sim.spawn([](sim::Simulation& s) -> sim::Task<void> {
        for (int k = 0; k < 512; ++k) co_await s.delay(sim::us(10));
      }(sim));
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 16 * 512);
}
BENCHMARK(BM_SimEventThroughput);

void BM_SemaphoreContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Semaphore sem(sim, 2);
    for (int i = 0; i < 64; ++i) {
      sim.spawn([](sim::Simulation& s, sim::Semaphore& sem) -> sim::Task<void> {
        for (int k = 0; k < 32; ++k) {
          co_await sem.acquire();
          co_await s.delay(sim::us(1));
          sem.release();
        }
      }(sim, sem));
    }
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 32);
}
BENCHMARK(BM_SemaphoreContention);

void BM_ObsCounterHotPath(benchmark::State& state) {
  // The instrumented hot paths do exactly this: bump a pre-resolved
  // counter handle.  Must stay in the "free" range for the <5% overhead
  // budget to hold.
  obs::MetricsRegistry reg;
  obs::Counter* c = &reg.counter("storage0", "pvfs.io", "bytes_written");
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) c->add(4096);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ObsCounterHotPath);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::HistogramMetric* h = &reg.histogram("storage0", "rpc", "service_us",
                                           obs::latency_us_boundaries());
  util::Rng rng(7);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      h->observe(static_cast<double>(rng.below(1'000'000)));
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ObsHistogramObserve);

}  // namespace

BENCHMARK_MAIN();
