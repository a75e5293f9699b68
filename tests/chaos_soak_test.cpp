// Seeded chaos soak: randomized DS/MDS service restarts under concurrent
// writers, on every access architecture (`ctest -L chaos`).
//
// A SplitMix64-derived schedule crashes four data-server daemons and one
// MDS while three client nodes stream writes.  The harness asserts the
// crash-consistency contract end to end:
//   - every file reads back byte-identical to an in-memory oracle (no
//     unstable extent was lost, despite the restarts dropping dirty state);
//   - the clients' `client.replay` counters show the loss was detected and
//     replayed (verifier mismatches > 0), not silently absorbed;
//   - the scheduled restarts actually happened (boot instances advanced);
//   - two invocations with the same seed are bit-identical — same finish
//     time, same replay counters, same per-writer chunk counts — so any
//     failure is replayable from its seed alone.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/adapters.hpp"
#include "core/deployment.hpp"
#include "rpc/fabric.hpp"
#include "sim/fault.hpp"
#include "sim/sync.hpp"
#include "util/bytes.hpp"
#include "util/obs.hpp"

namespace dpnfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

constexpr uint64_t kSeed = 1013;
constexpr size_t kWriters = 3;
constexpr uint64_t kChunk = 512_KiB;
constexpr sim::Time kWriteUntil = sim::ms(3700);  // past the last window

/// SplitMix64: tiny, seedable, and identical on every platform — the whole
/// schedule derives from one uint64_t.
uint64_t next_rand(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Oracle content: every byte is a function of its absolute position in the
/// writer's keyspace, so any reassembly is checkable.
Payload chaos_pattern(uint64_t base, uint64_t length) {
  std::vector<std::byte> v(length);
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t o = base + i;
    v[i] = static_cast<std::byte>((o * 167 + (o >> 13) * 11 + 5) & 0xFF);
  }
  return Payload::inline_bytes(std::move(v));
}

struct ServiceTarget {
  uint32_t node = 0;
  uint16_t port = 0;
  auto operator<=>(const ServiceTarget&) const = default;
};

/// Data-server daemon for "the i-th dice roll", per architecture (same
/// node/port mapping as `simulate --chaos-seed`).
ServiceTarget ds_target(const core::ClusterConfig& cfg, uint64_t i) {
  switch (cfg.architecture) {
    case core::Architecture::kNativePvfs:
      return {static_cast<uint32_t>(i % cfg.storage_nodes), rpc::kPvfsIoPort};
    case core::Architecture::kPnfs3Tier:
      return {cfg.storage_nodes / 2 +
                  static_cast<uint32_t>(i % cfg.three_tier_data_servers),
              rpc::kNfsPort};
    case core::Architecture::kPlainNfs:
      return {cfg.storage_nodes, rpc::kNfsPort};
    default:  // Direct-pNFS and 2-tier: DS daemons on the storage nodes
      return {static_cast<uint32_t>(i % cfg.storage_nodes), rpc::kNfsPort};
  }
}

ServiceTarget mds_target(const core::ClusterConfig& cfg) {
  switch (cfg.architecture) {
    case core::Architecture::kNativePvfs:
      return {0, rpc::kPvfsMetaPort};
    case core::Architecture::kPnfs3Tier:
      return {cfg.storage_nodes / 2, core::kMdsPort};
    case core::Architecture::kPlainNfs:
      return {cfg.storage_nodes, rpc::kNfsPort};
    default:
      return {0, core::kMdsPort};
  }
}

/// Retries `make_op()` (a fresh Task per attempt) until it stops throwing.
/// Restart windows last <= 400 ms and the client stacks carry their own
/// retry budgets, so 80 x 100 ms is far beyond any reachable outage.
template <typename MakeOp>
Task<bool> retry_op(sim::Simulation& sim, MakeOp make_op) {
  for (int attempt = 0; attempt < 80; ++attempt) {
    bool failed = false;
    try {
      co_await make_op();
    } catch (const std::exception&) {
      failed = true;
    }
    if (!failed) co_return true;
    co_await sim.delay(sim::ms(100));
  }
  co_return false;
}

struct ChaosOutcome {
  sim::Time finished = 0;
  uint64_t verifier_mismatches = 0;
  uint64_t replayed_extents = 0;
  uint64_t replayed_bytes = 0;
  uint64_t restarts_observed = 0;
  uint64_t ds_windows = 0;
  uint64_t mds_windows = 0;
  uint64_t traces_sampled = 0;
  uint64_t traces_promoted = 0;
  uint64_t sampled_trace_hash = 0;  // order-independent digest of the set
  std::vector<uint64_t> chunks;  // per writer
  bool writers_ok = false;
  bool data_ok = false;

  bool operator==(const ChaosOutcome&) const = default;
};

struct ScenarioState {
  std::vector<uint64_t> chunks = std::vector<uint64_t>(kWriters, 0);
  std::vector<char> writer_ok = std::vector<char>(kWriters, 0);
  bool data_ok = false;
};

Task<void> writer_main(core::Deployment& d, size_t i, uint64_t& chunks,
                       char& ok) {
  auto& sim = d.simulation();
  const uint64_t base = static_cast<uint64_t>(i) << 40;
  const std::string path = "/chaos/f" + std::to_string(i);
  auto f = co_await d.client(i).open(path, true);  // pre-chaos: no faults yet
  uint64_t n = 0;
  bool gave_up = false;
  while (sim.now() < kWriteUntil) {
    const uint64_t off = n * kChunk;
    if (!co_await retry_op(sim, [&] {
          return f->write(off, chaos_pattern(base + off, kChunk));
        })) {
      gave_up = true;
      break;
    }
    ++n;
    // Occasional fsync: COMMITs land at staggered times, so restarts race
    // both in-flight WRITEs and long WRITE->COMMIT unstable windows (the
    // low cadence is what leaves streamed extents exposed to the crashes).
    if (n % 6 == 0 &&
        !co_await retry_op(sim, [&] { return f->fsync(); })) {
      gave_up = true;
      break;
    }
    co_await sim.delay(sim::ms(100));
  }
  chunks = n;
  if (gave_up || !co_await retry_op(sim, [&] { return f->fsync(); })) {
    co_return;  // ok stays false; the test reports the stuck writer
  }
  try {
    co_await f->close();
  } catch (const std::exception&) {
    // Data is already durable (fsync above); a close-time hiccup is not a
    // soak failure.
  }
  ok = 1;
}

Task<void> chaos_scenario(core::Deployment& d, ScenarioState& st) {
  co_await d.mount_all();
  co_await d.client(0).mkdir("/chaos");
  sim::WaitGroup wg(d.simulation());
  for (size_t i = 0; i < kWriters; ++i) {
    wg.spawn(writer_main(d, i, st.chunks[i], st.writer_ok[i]));
  }
  co_await wg.wait();

  // Verification phase: a fourth client (cold cache) reads every file back
  // and compares against the oracle byte-for-byte.
  bool all_ok = true;
  try {
    for (size_t i = 0; i < kWriters; ++i) {
      const uint64_t base = static_cast<uint64_t>(i) << 40;
      const uint64_t size = st.chunks[i] * kChunk;
      auto g = co_await d.client(kWriters).open_read("/chaos/f" +
                                                     std::to_string(i));
      Payload back = co_await g->read(0, size);
      if (!(back == chaos_pattern(base, size))) all_ok = false;
      co_await g->close();
    }
  } catch (const std::exception&) {
    all_ok = false;
  }
  st.data_ok = all_ok;
}

ChaosOutcome run_chaos(core::Architecture arch, uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.architecture = arch;
  cfg.storage_nodes = 4;
  cfg.clients = kWriters + 1;  // 3 writers + 1 cold-cache verifier
  cfg.three_tier_data_servers = 2;

  // Restart-recovery posture (mirrors `simulate --chaos-seed`): bounded
  // per-RPC deadlines, generous retry ladders, an MDS grace window, and
  // COMMITs deferred so unstable data is genuinely exposed to the crashes.
  cfg.nfs_client.ds_timeout = sim::ms(250);
  cfg.nfs_client.ds_rpc_retries = 8;
  cfg.nfs_client.slice_retries = 4;
  cfg.nfs_client.breaker_threshold = 4;
  cfg.nfs_client.breaker_reset = sim::ms(500);
  cfg.nfs_client.mds_timeout = sim::ms(500);
  cfg.nfs_client.wb_commit_backlog = 16_MiB;
  // Chunk-sized WRITEs stream out the moment the application writes them,
  // so every architecture continuously holds unstable extents for the
  // restart windows to destroy (2 MiB wsize would batch them into the
  // fsync itself, shrinking the WRITE->COMMIT exposure to microseconds).
  cfg.nfs_client.wsize = static_cast<uint32_t>(kChunk);
  cfg.mds_grace_period = sim::ms(100);
  cfg.pvfs_client.io_timeout = sim::ms(250);
  cfg.pvfs_client.io_retries = 10;
  cfg.pvfs_client.meta_timeout = sim::ms(500);
  cfg.pvfs_client.meta_retries = 6;
  // Head-sample half the traces (seeded => bit-reproducible) and tail-keep
  // anything slow or errored: the soak doubles as the proof that sampling
  // never perturbs simulation outcomes or its own determinism under chaos.
  cfg.trace_sample_rate = 0.5;
  cfg.trace_sample_seed = seed;
  cfg.trace_slo_threshold = sim::ms(400);
  if (arch == core::Architecture::kDirectPnfs) {
    // A Direct-pNFS DS and the co-located PVFS daemon share one object
    // store but carry independent boot verifiers: MDS-fallback writes
    // landed during a DS outage would be destroyed undetectably by the
    // DS's revive-time dirty drop.  Replay-through-retry is the only
    // loss-proof recovery path under restart faults (docs/failures.md).
    cfg.nfs_client.mds_fallback = false;
  }

  // Five non-overlapping restart windows in 600 ms slots (start jitter
  // < 120 ms, duration < 400 ms), so even same-target windows — plain NFS
  // has only one service — stay distinct restarts.  Slot 2 is the MDS.
  ChaosOutcome out;
  uint64_t rng = seed;
  std::set<ServiceTarget> targets;
  for (int slot = 0; slot < 5; ++slot) {
    const sim::Time at =
        sim::ms(300 + 600 * slot + static_cast<int64_t>(next_rand(rng) % 120));
    const sim::Time revive =
        at + sim::ms(150 + static_cast<int64_t>(next_rand(rng) % 250));
    const ServiceTarget t = slot == 2 ? mds_target(cfg)
                                      : ds_target(cfg, next_rand(rng));
    cfg.faults.crash_service(t.node, t.port, at, revive);
    targets.insert(t);
    slot == 2 ? ++out.mds_windows : ++out.ds_windows;
  }

  core::Deployment d(cfg);
  ScenarioState st;
  d.simulation().spawn(chaos_scenario(d, st));
  d.simulation().run();

  out.finished = d.simulation().now();
  out.chunks = st.chunks;
  out.data_ok = st.data_ok;
  if (!st.data_ok) {
    // Oracle mismatch: dump the flight recorder so the seconds before the
    // corruption are on record.  Same seed => same dump, so the saved file
    // is a standalone reproduction of the failure.
    const std::string path = "chaos_flight_" +
                             std::string(core::architecture_name(arch)) + "_" +
                             std::to_string(seed) + ".json";
    if (obs::write_file(path, d.flight().to_json())) {
      ADD_FAILURE() << "chaos oracle mismatch; flight dump written to "
                    << path;
    } else {
      ADD_FAILURE() << "chaos oracle mismatch; flight dump:\n"
                    << d.flight().to_json();
    }
  }
  out.writers_ok = true;
  for (char ok : st.writer_ok) out.writers_ok = out.writers_ok && ok != 0;
  for (size_t i = 0; i < kWriters; ++i) {
    auto& c = d.client(i);
    if (auto* n = dynamic_cast<core::NfsFileSystemClient*>(&c)) {
      const nfs::ClientStats& s = n->native().stats();
      out.verifier_mismatches += s.verifier_mismatches;
      out.replayed_extents += s.replayed_extents;
      out.replayed_bytes += s.replayed_bytes;
    } else if (auto* p = dynamic_cast<core::PvfsFileSystemClient*>(&c)) {
      const pvfs::PvfsClientStats& s = p->native().stats();
      out.verifier_mismatches += s.verifier_mismatches;
      out.replayed_extents += s.replayed_extents;
      out.replayed_bytes += s.replayed_bytes;
    }
  }
  if (const sim::FaultInjector* inj = d.fault_injector()) {
    for (const ServiceTarget& t : targets) {
      out.restarts_observed +=
          inj->boot_instance(t.node, t.port, d.simulation().now()) - 1;
    }
  }
  out.traces_sampled = d.tracer().traces_sampled();
  out.traces_promoted = d.tracer().traces_promoted();
  // XOR of retained trace ids: identical iff both runs retained the same
  // trace-id set, regardless of retention order.
  std::set<uint64_t> retained_ids;
  for (const auto& s : d.tracer().retained_spans()) {
    retained_ids.insert(s.trace_id);
  }
  for (uint64_t id : retained_ids) {
    out.sampled_trace_hash ^= id * 0x9E3779B97F4A7C15ull;
  }
  return out;
}

void expect_sound(const ChaosOutcome& out) {
  EXPECT_TRUE(out.writers_ok);  // no writer exhausted its retry budget
  EXPECT_TRUE(out.data_ok);     // byte-identical to the oracle: zero loss
  EXPECT_GE(out.ds_windows, 3u);
  EXPECT_GE(out.mds_windows, 1u);
  // Every scheduled window produced a distinct boot instance.
  EXPECT_EQ(out.restarts_observed, out.ds_windows + out.mds_windows);
  // The crashes really destroyed unstable state, and the clients detected
  // and replayed it — the soak is vacuous if nothing was ever at risk.
  EXPECT_GE(out.verifier_mismatches, 1u);
  EXPECT_GE(out.replayed_extents, 1u);
  EXPECT_GE(out.replayed_bytes, kChunk);
  for (uint64_t n : out.chunks) EXPECT_GE(n, 4u);  // writers made progress
  // Sampling ran (half rate leaves both sampled and unsampled traces) and
  // the chaos-injected timeouts tail-promoted at least one errored trace.
  EXPECT_GE(out.traces_sampled, 1u);
  EXPECT_GE(out.traces_promoted, 1u);
}

void run_arch(core::Architecture arch) {
  const ChaosOutcome a = run_chaos(arch, kSeed);
  expect_sound(a);
  // Bit-reproducible: a second same-seed invocation matches exactly —
  // finish time, replay counters, restart count, per-writer progress.
  const ChaosOutcome b = run_chaos(arch, kSeed);
  EXPECT_TRUE(a == b);
}

TEST(ChaosSoak, DirectPnfs) { run_arch(core::Architecture::kDirectPnfs); }
TEST(ChaosSoak, NativePvfs) { run_arch(core::Architecture::kNativePvfs); }
TEST(ChaosSoak, Pnfs2Tier) { run_arch(core::Architecture::kPnfs2Tier); }
TEST(ChaosSoak, Pnfs3Tier) { run_arch(core::Architecture::kPnfs3Tier); }
TEST(ChaosSoak, PlainNfs) { run_arch(core::Architecture::kPlainNfs); }

}  // namespace
}  // namespace dpnfs
