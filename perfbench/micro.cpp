// Host-time microbenchmarks of three public hot functions, each shaped like
// the workload that calls it.  Every figure is the median over several
// batches of the batch's ns per operation.
#include <chrono>
#include <coroutine>
#include <queue>
#include <unordered_map>

#include "nfs/ops.hpp"
#include "perfbench.hpp"
#include "util/obs.hpp"

namespace perfbench {

namespace {

constexpr int kBatches = 7;

volatile uint64_t g_sink = 0;  // keeps measured results observable

template <typename Body>
double median_ns_per_op(uint64_t ops_per_batch, Body&& body) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    body(ops_per_batch);
    const auto t1 = std::chrono::steady_clock::now();
    per_op.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                     static_cast<double>(ops_per_batch));
  }
  return median(per_op);
}

struct Lcg {
  uint64_t s;
  uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 17;
  }
};

}  // namespace

// One pop of the (time, seq) minimum followed by one push, over a standing
// population, with delays drawn from the measured push mix: same-tick
// wake-ups, completions inside the calendar wheel's ~8 ms horizon, and
// timers beyond it.
double micro_event_queue_ns(uint64_t population,
                            const sim::EventQueue::PushMix& mix) {
  const uint64_t total = mix.immediate + mix.wheel + mix.overflow;
  const uint64_t imm_cut = total > 0 ? mix.immediate * 1000 / total : 500;
  const uint64_t wheel_cut =
      imm_cut + (total > 0 ? mix.wheel * 1000 / total : 450);
  auto delay = [&](uint64_t r) -> sim::Duration {
    const uint64_t cls = r % 1000, v = r / 1000;
    if (cls < imm_cut) return 0;
    if (cls < wheel_cut) return static_cast<sim::Duration>(256 + v % 8000000);
    return sim::ms(8) + static_cast<sim::Duration>(v % uint64_t(sim::ms(192)));
  };

  sim::EventQueue q;
  Lcg rng{0x5CA1AB1Eu};
  const auto handle = std::coroutine_handle<>::from_address(&rng);  // opaque
  uint64_t seq = 0;
  for (uint64_t i = 0; i < std::max<uint64_t>(population, 1); ++i) {
    q.push(delay(rng.next()), seq++, handle);
  }
  return median_ns_per_op(200000, [&](uint64_t ops) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      const sim::Event e = q.pop();
      acc += static_cast<uint64_t>(e.time);
      q.push(e.time + delay(rng.next()), seq++, e.handle);
    }
    g_sink = g_sink + acc;
  });
}

// Encode a SEQUENCE / PUTFH / WRITE(8 KB) COMPOUND with nfs::CompoundBuilder
// and decode it back with rpc::XdrDecoder, as oltp_rmw's write-back sends
// it (virtual payload: the simulator charges the bytes without holding them).
double micro_xdr_compound_ns() {
  return median_ns_per_op(100000, [](uint64_t ops) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      nfs::CompoundBuilder b;
      b.add(nfs::OpCode::kSequence,
            nfs::SequenceArgs{nfs::SessionId{0x1234 + i}, 3});
      b.add(nfs::OpCode::kPutFh, nfs::PutFhArgs{nfs::FileHandle{77}});
      b.add(nfs::OpCode::kWrite,
            nfs::WriteArgs{nfs::Stateid{9}, (i & 0xFFFF) * 8192,
                           nfs::StableHow::kUnstable,
                           rpc::Payload::virtual_bytes(8192)});
      rpc::XdrEncoder enc = std::move(b).finish();
      acc += enc.wire_size();
      const std::vector<std::byte> wire = std::move(enc).take();

      rpc::XdrDecoder dec(wire);
      const uint32_t count = dec.get_u32();
      for (uint32_t op = 0; op < count; ++op) {
        switch (static_cast<nfs::OpCode>(dec.get_u32())) {
          case nfs::OpCode::kSequence:
            acc += nfs::SequenceArgs::decode(dec).slot;
            break;
          case nfs::OpCode::kPutFh:
            acc += nfs::PutFhArgs::decode(dec).fh.id;
            break;
          case nfs::OpCode::kWrite:
            acc += nfs::WriteArgs::decode(dec).data.size();
            break;
          default:
            break;
        }
      }
    }
    g_sink = g_sink + acc;
  });
}

// One RPC's worth of spans per trace — root client call, server execution,
// store access — at the production tracer settings.  Sampled: every trace
// kept in the default 4096-span ring (eviction included).  Unsampled: rate
// 0, so each trace is staged and discarded when its fast root ends.  Result
// is ns per span, begin() plus record().
double micro_span_ns(bool sampled) {
  obs::Tracer tracer;
  tracer.set_sample_rate(sampled ? 1.0 : 0.0);
  tracer.set_slo_threshold(sampled ? 0 : 500'000'000);
  const std::string call = "nfs/1", node_c = "client3", node_s = "storage2",
                    store = "store/write";
  constexpr int kSpansPerTrace = 3;
  return median_ns_per_op(60000, [&](uint64_t ops) {
    obs::TimeNs t = 0;
    for (uint64_t i = 0; i < ops; i += kSpansPerTrace) {
      const obs::TraceContext root = tracer.begin();
      const obs::TraceContext srv = tracer.begin(root);
      const obs::TraceContext sto = tracer.begin(srv);
      obs::Span s3{sto.trace_id, sto.span_id, srv.span_id,
                   obs::SpanKind::kInternal, store, node_s, t + 20, t + 60};
      tracer.record(std::move(s3));
      obs::Span s2{srv.trace_id, srv.span_id, root.span_id,
                   obs::SpanKind::kServerExec, call, node_s, t + 10, t + 80};
      tracer.record(std::move(s2));
      obs::Span s1{root.trace_id, root.span_id, 0, obs::SpanKind::kClientCall,
                   call, node_c, t, t + 100};
      tracer.record(std::move(s1));
      t += 100;
    }
    g_sink = g_sink + tracer.spans_recorded();
  }) ;
}

double reference_kernel_s() {
  const auto t0 = std::chrono::steady_clock::now();
  std::unordered_map<uint64_t, uint64_t> map;
  std::priority_queue<uint64_t> heap;
  uint64_t x = 88172645463325252ull, acc = 0;
  for (int i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    map[x & 0x3FFFF] += static_cast<uint64_t>(i);
    heap.push(x);
    if (heap.size() > 50000) {
      acc += heap.top();
      heap.pop();
    }
    if ((i & 7) == 0) map.erase((x >> 20) & 0x3FFFF);
  }
  // Allocation churn with interleaved lifetimes, as the simulator's
  // coroutine frames, buffers and map nodes churn.
  // 8192 live blocks of 64 B-4 KiB stay far below a repetition's own peak
  // resident memory, which peak_rss_mb reports.
  std::vector<char*> live(8192, nullptr);
  for (int i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    char*& slot = live[(x >> 20) % live.size()];
    delete[] slot;
    slot = new char[64 + (x >> 40) % 4032];
    slot[0] = static_cast<char>(i);
    acc += static_cast<uint64_t>(slot[0]);
  }
  for (char* p : live) delete[] p;
  g_sink = g_sink + acc + map.size();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
