// Permanent data-server loss under load (`ctest -L chaos -L faults`).
//
// One storage node is killed for good — NFS data server and PVFS storage
// daemon both, never revived — while three writers stream chunks.  The
// harness asserts the full survival story from ISSUE/docs/failures.md:
//   - writers never error: outage-time writes are absorbed by the surviving
//     replica (mirror) or carried by parity (erasure);
//   - a cold reader with stale placement gets every byte back through the
//     degraded machinery, byte-identical to the oracle;
//   - `client.recovery.mds_fallbacks` stays pinned at zero on every client:
//     redundancy, not the MDS proxy, served the degraded bytes;
//   - the rebuild service declares the node dead, re-materializes its
//     objects onto the spare, and a fresh-layout verifier then reads the
//     rebuilt copies byte-identical;
//   - two same-seed invocations produce bit-identical outcomes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "core/deployment.hpp"
#include "rpc/fabric.hpp"
#include "sim/sync.hpp"
#include "util/bytes.hpp"

namespace dpnfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

constexpr size_t kWriters = 3;
constexpr uint64_t kChunk = 256_KiB;
constexpr sim::Time kKillAt = sim::ms(1500);
constexpr sim::Time kWriteUntil = sim::ms(3000);
constexpr uint32_t kVictim = 1;  // never node 0: it hosts MDS + rebuild

Payload chaos_pattern(uint64_t base, uint64_t length) {
  std::vector<std::byte> v(length);
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t o = base + i;
    v[i] = static_cast<std::byte>((o * 167 + (o >> 13) * 11 + 5) & 0xFF);
  }
  return Payload::inline_bytes(std::move(v));
}

struct KillOutcome {
  sim::Time finished = 0;
  std::vector<uint64_t> chunks;  // per writer
  bool writers_ok = false;
  bool degraded_data_ok = false;  // stale-placement reads during the outage
  bool rebuilt_data_ok = false;   // fresh-layout reads after the rebuild
  bool rebuild_completed = false;
  uint64_t mds_fallbacks = 0;     // summed over every client: must be 0
  uint64_t degraded_writes = 0;
  uint64_t degraded_reads = 0;
  uint64_t replica_reroutes = 0;
  uint64_t ec_reconstructions = 0;
  uint64_t dses_declared_dead = 0;
  uint64_t objects_rebuilt = 0;
  uint64_t objects_failed = 0;
  uint64_t bytes_rebuilt = 0;

  bool operator==(const KillOutcome&) const = default;
};

struct ScenarioState {
  std::vector<uint64_t> chunks = std::vector<uint64_t>(kWriters, 0);
  std::vector<char> writer_ok = std::vector<char>(kWriters, 0);
  bool degraded_ok = false;
  bool rebuilt_ok = false;
  bool rebuild_completed = false;
};

Task<void> writer_main(core::Deployment& d, size_t i, uint64_t& chunks,
                       char& ok) {
  auto& sim = d.simulation();
  const uint64_t base = static_cast<uint64_t>(i) << 40;
  auto f = co_await d.client(i).open("/pk/f" + std::to_string(i), true);
  uint64_t n = 0;
  while (sim.now() < kWriteUntil) {
    // No retry wrapper: absorbed-by-redundancy writes must never throw.
    co_await f->write(n * kChunk, chaos_pattern(base + n * kChunk, kChunk));
    ++n;
    if (n % 6 == 0) co_await f->fsync();
    co_await sim.delay(sim::ms(100));
  }
  chunks = n;
  co_await f->fsync();
  co_await f->close();
  ok = 1;
}

Task<void> scenario(core::Deployment& d, ScenarioState& st) {
  auto& sim = d.simulation();
  co_await d.mount_all();
  co_await d.client(0).mkdir("/pk");
  sim::WaitGroup wg(sim);
  for (size_t i = 0; i < kWriters; ++i) {
    wg.spawn(writer_main(d, i, st.chunks[i], st.writer_ok[i]));
  }
  co_await wg.wait();

  // Phase 1 — degraded reads: a cold client whose layouts still point at
  // the dead node (the rebuild has not been declared yet) reads every file
  // back through the surviving redundancy.
  bool degraded_ok = true;
  try {
    for (size_t i = 0; i < kWriters; ++i) {
      const uint64_t base = static_cast<uint64_t>(i) << 40;
      const uint64_t size = st.chunks[i] * kChunk;
      auto g =
          co_await d.client(kWriters).open_read("/pk/f" + std::to_string(i));
      Payload back = co_await g->read(0, size);
      if (!(back == chaos_pattern(base, size))) degraded_ok = false;
      co_await g->close();
    }
  } catch (const std::exception&) {
    degraded_ok = false;
  }
  st.degraded_ok = degraded_ok;

  // Phase 2 — wait for the rebuild service to declare the node dead and
  // re-materialize its objects onto the spare.
  for (int spin = 0; spin < 200; ++spin) {
    if (d.rebuild() != nullptr &&
        d.rebuild()->stats().rebuilds_completed >= 1) {
      st.rebuild_completed = true;
      break;
    }
    co_await sim.delay(sim::ms(100));
  }
  d.stop_rebuild();
  if (!st.rebuild_completed) co_return;

  // Phase 3 — a fresh-layout verifier now reads the retargeted placement:
  // the rebuilt objects on the spare must be byte-identical too.
  bool rebuilt_ok = true;
  try {
    for (size_t i = 0; i < kWriters; ++i) {
      const uint64_t base = static_cast<uint64_t>(i) << 40;
      const uint64_t size = st.chunks[i] * kChunk;
      auto g = co_await d.client(kWriters + 1)
                   .open_read("/pk/f" + std::to_string(i));
      Payload back = co_await g->read(0, size);
      if (!(back == chaos_pattern(base, size))) rebuilt_ok = false;
      co_await g->close();
    }
  } catch (const std::exception&) {
    rebuilt_ok = false;
  }
  st.rebuilt_ok = rebuilt_ok;
}

KillOutcome run_kill(core::ClusterConfig cfg) {
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.clients = kWriters + 2;  // writers + degraded reader + rebuilt verifier
  cfg.stripe_unit = 256_KiB;

  // Fast-failure posture: bounded per-RPC deadlines and a hair-trigger
  // breaker, so dead-node slices fall through to the degraded rungs quickly.
  cfg.nfs_client.ds_timeout = sim::ms(200);
  cfg.nfs_client.ds_rpc_retries = 2;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::ms(400);
  cfg.nfs_client.mds_timeout = sim::ms(500);
  cfg.nfs_client.wsize = static_cast<uint32_t>(kChunk);
  cfg.pvfs_client.io_timeout = sim::ms(200);
  cfg.pvfs_client.io_retries = 2;
  // mds_fallback stays at its default (enabled): the point of the oracle is
  // that redundant layouts never take it even when it is allowed.

  // The rebuild declares death only after the writers' final fsync
  // (kWriteUntil + slack), so the copy sources include every absorbed byte.
  cfg.rebuild_enabled = true;
  cfg.rebuild.check_interval = sim::ms(100);
  cfg.rebuild.dead_threshold = sim::ms(1800);
  cfg.rebuild.chunk_bytes = 512_KiB;
  cfg.rebuild.rate_bytes_per_sec = 200'000'000;  // exercise the throttle

  cfg.faults.crash_service(kVictim, rpc::kNfsPort, kKillAt);
  cfg.faults.crash_service(kVictim, rpc::kPvfsIoPort, kKillAt);

  core::Deployment d(cfg);
  d.start_rebuild();
  ScenarioState st;
  d.simulation().spawn(scenario(d, st));
  d.simulation().run();

  KillOutcome out;
  out.finished = d.simulation().now();
  out.chunks = st.chunks;
  out.writers_ok = true;
  for (char ok : st.writer_ok) out.writers_ok = out.writers_ok && ok != 0;
  out.degraded_data_ok = st.degraded_ok;
  out.rebuilt_data_ok = st.rebuilt_ok;
  out.rebuild_completed = st.rebuild_completed;
  for (size_t i = 0; i < cfg.clients; ++i) {
    const nfs::ClientStats& s =
        dynamic_cast<core::NfsFileSystemClient&>(d.client(i)).native().stats();
    out.mds_fallbacks += s.mds_fallbacks;
    out.degraded_writes += s.degraded_writes;
    out.degraded_reads += s.degraded_reads;
    out.replica_reroutes += s.replica_reroutes;
    out.ec_reconstructions += s.ec_reconstructions;
  }
  if (const core::RebuildManager* r = d.rebuild()) {
    const core::RebuildStats& rs = r->stats();
    out.dses_declared_dead = rs.dses_declared_dead;
    out.objects_rebuilt = rs.objects_rebuilt;
    out.objects_failed = rs.objects_failed;
    out.bytes_rebuilt = rs.bytes_rebuilt;
  }
  if (!st.degraded_ok || !st.rebuilt_ok) {
    ADD_FAILURE() << "permanent-kill oracle mismatch; flight dump:\n"
                  << d.flight_json();
  }
  // The rebuild lifecycle is on the flight-recorder record.
  const std::string flight = d.flight_json();
  EXPECT_NE(flight.find("ds.declared_dead"), std::string::npos);
  EXPECT_NE(flight.find("rebuild.start"), std::string::npos);
  EXPECT_NE(flight.find("rebuild.complete"), std::string::npos);
  return out;
}

void expect_sound(const KillOutcome& out, bool erasure) {
  EXPECT_TRUE(out.writers_ok);        // no writer ever saw an error
  EXPECT_TRUE(out.degraded_data_ok);  // byte-identical through redundancy
  EXPECT_TRUE(out.rebuild_completed);
  EXPECT_TRUE(out.rebuilt_data_ok);   // byte-identical off the spare
  EXPECT_EQ(out.mds_fallbacks, 0u);   // the pinned oracle
  EXPECT_GE(out.degraded_writes, 1u);
  EXPECT_GE(out.degraded_reads + out.replica_reroutes, 1u);
  if (erasure) {
    EXPECT_GE(out.ec_reconstructions, 1u);
  }
  EXPECT_EQ(out.dses_declared_dead, 1u);
  EXPECT_GE(out.objects_rebuilt, 1u);
  EXPECT_EQ(out.objects_failed, 0u);
  EXPECT_GE(out.bytes_rebuilt, kChunk);
  for (uint64_t n : out.chunks) EXPECT_GE(n, 4u);
}

void run_twice(core::ClusterConfig cfg, bool erasure) {
  const KillOutcome a = run_kill(cfg);
  expect_sound(a, erasure);
  const KillOutcome b = run_kill(cfg);
  EXPECT_TRUE(a == b);  // bit-reproducible end to end
}

TEST(PermanentKill, MirrorRebuildsOntoSpare) {
  core::ClusterConfig cfg;
  cfg.storage_nodes = 4;  // 3 active + 1 spare
  cfg.spare_nodes = 1;
  cfg.distribution = pvfs::DistKind::kMirror;
  cfg.replicas = 2;
  run_twice(cfg, /*erasure=*/false);
}

TEST(PermanentKill, ErasureRebuildsOntoSpare) {
  core::ClusterConfig cfg;
  cfg.storage_nodes = 7;  // 6 active (4+2) + 1 spare
  cfg.spare_nodes = 1;
  cfg.distribution = pvfs::DistKind::kErasure;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  run_twice(cfg, /*erasure=*/true);
}

}  // namespace
}  // namespace dpnfs
