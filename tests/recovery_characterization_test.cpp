// Characterization of the NFS client's recovery ladder (`ctest -L faults`).
//
// The other fault tests assert that recovery happened (`> 0`, `>= 1`).
// These pin exactly how it happened: for eight scripted fault recipes on
// Direct-pNFS they assert every ClientStats field of every client, the
// simulated finish time, and the bytes read back.  A change that moves a
// rung of the ladder (one retry more, a fallback taken one attempt
// earlier, a replay that now runs twice) changes a number here.  Update
// the values only in a change that means to alter recovery behavior.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/adapters.hpp"
#include "core/deployment.hpp"
#include "nfs/client.hpp"
#include "rpc/fabric.hpp"
#include "util/bytes.hpp"

namespace dpnfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

/// Every byte is a function of its absolute file offset, so a read back is
/// checkable whichever path (DS, surviving replica, reconstruction, MDS)
/// served it.
Payload pattern(uint64_t offset, uint64_t length) {
  std::vector<std::byte> v(length);
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t o = offset + i;
    v[i] = static_cast<std::byte>((o * 151 + (o >> 12) * 5 + 29) & 0xFF);
  }
  return Payload::inline_bytes(std::move(v));
}

/// Every ClientStats field, named, in declaration order.
std::string describe(const nfs::ClientStats& s) {
  const std::pair<const char*, uint64_t> fields[] = {
      {"bytes_read", s.bytes_read},
      {"bytes_written", s.bytes_written},
      {"wire_read_bytes", s.wire_read_bytes},
      {"wire_write_bytes", s.wire_write_bytes},
      {"rpcs", s.rpcs},
      {"cache_hit_bytes", s.cache_hit_bytes},
      {"readahead_fetches", s.readahead_fetches},
      {"sched_writes", s.sched_writes},
      {"sched_coalesced_extents", s.sched_coalesced_extents},
      {"sched_coalesced_bytes", s.sched_coalesced_bytes},
      {"vectored_writes", s.vectored_writes},
      {"vectored_regions", s.vectored_regions},
      {"vectored_bytes", s.vectored_bytes},
      {"recovery_retries", s.recovery_retries},
      {"mds_fallbacks", s.mds_fallbacks},
      {"breaker_trips", s.breaker_trips},
      {"layout_refetches", s.layout_refetches},
      {"verifier_mismatches", s.verifier_mismatches},
      {"replayed_extents", s.replayed_extents},
      {"replayed_bytes", s.replayed_bytes},
      {"session_recoveries", s.session_recoveries},
      {"replica_reroutes", s.replica_reroutes},
      {"degraded_reads", s.degraded_reads},
      {"degraded_read_bytes", s.degraded_read_bytes},
      {"ec_reconstructions", s.ec_reconstructions},
      {"degraded_writes", s.degraded_writes},
      {"degraded_commits", s.degraded_commits},
  };
  std::string out;
  for (const auto& [name, value] : fields) {
    if (!out.empty()) out += ' ';
    out += std::string(name) + "=" + std::to_string(value);
  }
  return out;
}

struct Outcome {
  sim::Time finished = 0;
  uint64_t bytes_back = 0;
  bool data_ok = true;
  std::vector<std::string> clients;  ///< describe() of each client's stats
};

using Scenario = Task<void> (*)(core::Deployment&, Outcome&);

Outcome run(const core::ClusterConfig& cfg, Scenario scenario) {
  core::Deployment d(cfg);
  Outcome out;
  d.simulation().spawn(scenario(d, out));
  d.simulation().run();
  for (size_t i = 0; i < d.client_count(); ++i) {
    const nfs::ClientStats s =
        dynamic_cast<core::NfsFileSystemClient&>(d.client(i)).native().stats();
    out.clients.push_back(describe(s));
  }
  return out;
}

Task<void> wait_until(sim::Simulation& sim, sim::Time t) {
  if (sim.now() < t) co_await sim.delay(t - sim.now());
}

/// Reads [0, length) of `path` through `client` in one call and checks it
/// against the pattern.
Task<void> read_back(core::FileSystemClient& client, std::string path,
                     uint64_t length, Outcome& out) {
  auto f = co_await client.open_read(path);
  Payload back = co_await f->read(0, length);
  out.bytes_back += back.size();
  out.data_ok = out.data_ok && back == pattern(0, length);
  co_await f->close();
}

/// Recovery posture of the stripe-layout recipes: 200 ms deadlines (well
/// above healthy queueing, so only the crashed DS fails), one transport
/// retry, one slice retry, and a breaker that trips after two failures and
/// stays open for the rest of the run.
core::ClusterConfig stripe_config(uint32_t storage_nodes) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = storage_nodes;
  cfg.clients = 2;
  cfg.nfs_client.ds_timeout = sim::ms(200);
  cfg.nfs_client.ds_rpc_retries = 1;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::sec(60);
  return cfg;
}

// ---------------------------------------------------------------------------
// 1. A DS crash mid-write (stripe layout): retries, breaker, MDS fallback
// ---------------------------------------------------------------------------

Task<void> crash_mid_write(core::Deployment& d, Outcome& out) {
  co_await d.mount_all();
  auto f = co_await d.client(0).open("/f", true);
  co_await f->write(0, pattern(0, 8_MiB));
  co_await f->fsync();
  co_await wait_until(d.simulation(), sim::sec(1) + sim::ms(1));
  co_await f->write(8_MiB, pattern(8_MiB, 8_MiB));
  co_await f->fsync();
  co_await f->close();
  co_await read_back(d.client(1), "/f", 16_MiB, out);
  out.finished = d.simulation().now();
}

TEST(RecoveryCharacterization, DsCrashMidWrite) {
  core::ClusterConfig cfg = stripe_config(4);
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::sec(1));
  const Outcome out = run(cfg, crash_mid_write);
  EXPECT_TRUE(out.data_ok);
  EXPECT_EQ(out.bytes_back, 16_MiB);
  EXPECT_EQ(out.finished, 4459582257);
  ASSERT_EQ(out.clients.size(), 2u);
  EXPECT_EQ(out.clients[0],
            "bytes_read=0 bytes_written=16777216 wire_read_bytes=0 "
            "wire_write_bytes=16777216 rpcs=44 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=8 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=1 mds_fallbacks=2 "
            "breaker_trips=1 layout_refetches=1 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
  EXPECT_EQ(out.clients[1],
            "bytes_read=16777216 bytes_written=0 wire_read_bytes=16777216 "
            "wire_write_bytes=0 rpcs=24 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=0 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=1 mds_fallbacks=2 "
            "breaker_trips=1 layout_refetches=1 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
}

// ---------------------------------------------------------------------------
// 2. Crash and revive: the retried slice lands on the revived DS
// ---------------------------------------------------------------------------

Task<void> crash_and_revive(core::Deployment& d, Outcome& out) {
  co_await d.mount_all();
  auto f = co_await d.client(0).open("/f", true);
  co_await f->write(0, pattern(0, 8_MiB));
  // The outage (200-700 ms) begins under this fsync: the slice retry
  // outlasts it and lands on the revived DS, which re-establishes the
  // session.
  co_await f->fsync();
  co_await f->write(8_MiB, pattern(8_MiB, 8_MiB));
  co_await f->fsync();
  co_await wait_until(d.simulation(), sim::ms(1500));
  co_await f->write(16_MiB, pattern(16_MiB, 8_MiB));
  co_await f->fsync();
  co_await f->close();
  co_await read_back(d.client(1), "/f", 24_MiB, out);
  out.finished = d.simulation().now();
}

TEST(RecoveryCharacterization, DsCrashAndRevive) {
  core::ClusterConfig cfg = stripe_config(4);
  cfg.faults.crash_service(2, rpc::kNfsPort, sim::ms(200), sim::ms(700));
  const Outcome out = run(cfg, crash_and_revive);
  EXPECT_TRUE(out.data_ok);
  EXPECT_EQ(out.bytes_back, 24_MiB);
  EXPECT_EQ(out.finished, 2486289084);
  ASSERT_EQ(out.clients.size(), 2u);
  EXPECT_EQ(out.clients[0],
            "bytes_read=0 bytes_written=25165824 wire_read_bytes=0 "
            "wire_write_bytes=25165824 rpcs=57 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=12 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=1 mds_fallbacks=0 "
            "breaker_trips=0 layout_refetches=0 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=1 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
  EXPECT_EQ(out.clients[1],
            "bytes_read=25165824 bytes_written=0 wire_read_bytes=25165824 "
            "wire_write_bytes=0 rpcs=26 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=0 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=0 mds_fallbacks=0 "
            "breaker_trips=0 layout_refetches=0 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
}

// ---------------------------------------------------------------------------
// 3. A DS restart: unstable writes replayed on WRITE and COMMIT mismatches
// ---------------------------------------------------------------------------

Task<void> restart_replay(core::Deployment& d, Outcome& out) {
  co_await d.mount_all();
  auto f = co_await d.client(0).open("/f", true);
  // Streams out as UNSTABLE WRITEs at once, then sits uncommitted across
  // the restart window (500-520 ms).
  co_await f->write(0, pattern(0, 4_MiB));
  co_await wait_until(d.simulation(), sim::ms(600));
  // A WRITE to the revived DS carries its new verifier (mid-stream
  // mismatch); fsync's COMMIT finds the other mismatch.
  co_await f->write(4_MiB, pattern(4_MiB, 4_MiB));
  co_await f->fsync();
  co_await f->fsync();
  co_await f->close();
  co_await read_back(d.client(1), "/f", 8_MiB, out);
  out.finished = d.simulation().now();
}

TEST(RecoveryCharacterization, DsRestartReplaysUnstableWrites) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 2;
  cfg.clients = 2;
  cfg.nfs_client.wb_commit_backlog = 0;  // fsync is the only COMMIT source
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(500), sim::ms(520));
  const Outcome out = run(cfg, restart_replay);
  EXPECT_TRUE(out.data_ok);
  EXPECT_EQ(out.bytes_back, 8_MiB);
  EXPECT_EQ(out.finished, 1387054111);
  ASSERT_EQ(out.clients.size(), 2u);
  EXPECT_EQ(out.clients[0],
            "bytes_read=0 bytes_written=8388608 wire_read_bytes=0 "
            "wire_write_bytes=10485760 rpcs=22 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=5 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=0 mds_fallbacks=0 "
            "breaker_trips=0 layout_refetches=0 verifier_mismatches=1 "
            "replayed_extents=1 replayed_bytes=2097152 session_recoveries=1 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
  EXPECT_EQ(out.clients[1],
            "bytes_read=8388608 bytes_written=0 wire_read_bytes=8388608 "
            "wire_write_bytes=0 rpcs=14 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=0 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=0 mds_fallbacks=0 "
            "breaker_trips=0 layout_refetches=0 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
}

// ---------------------------------------------------------------------------
// 4-5. Permanent kills under redundant layouts: write, then a cold read
// ---------------------------------------------------------------------------

constexpr sim::Time kKillAt = sim::ms(500);
constexpr uint64_t kDurable = 1_MiB;    // fsynced before the kill
constexpr uint64_t kUnstable = 256_KiB;  // written but uncommitted at the kill
constexpr uint64_t kOutage = 256_KiB;    // written during the outage
constexpr uint64_t kTotal = kDurable + kUnstable + kOutage;

Task<void> redundant_kill(core::Deployment& d, Outcome& out) {
  auto& sim = d.simulation();
  co_await d.mount_all();
  auto f = co_await d.client(0).open("/f", true);
  co_await f->write(0, pattern(0, kDurable));
  co_await f->fsync();
  co_await f->write(kDurable, pattern(kDurable, kUnstable));
  co_await wait_until(sim, kKillAt + sim::ms(100));
  co_await f->write(kDurable + kUnstable,
                    pattern(kDurable + kUnstable, kOutage));
  co_await f->fsync();
  // Cold reader: the first read meets the dead device, the second finds
  // its breaker open.
  co_await read_back(d.client(1), "/f", kTotal, out);
  co_await read_back(d.client(1), "/f", kTotal, out);
  co_await f->close();
  out.finished = sim.now();
}

core::ClusterConfig redundant_config(uint32_t victim) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.clients = 2;
  cfg.stripe_unit = 256_KiB;
  cfg.nfs_client.ds_timeout = sim::ms(200);
  cfg.nfs_client.ds_rpc_retries = 2;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::ms(400);
  cfg.nfs_client.wsize = 256_KiB;
  cfg.pvfs_client.io_timeout = sim::ms(200);
  cfg.pvfs_client.io_retries = 2;
  cfg.faults.crash_service(victim, rpc::kNfsPort, kKillAt);
  cfg.faults.crash_service(victim, rpc::kPvfsIoPort, kKillAt);
  return cfg;
}

TEST(RecoveryCharacterization, MirrorPermanentKill) {
  core::ClusterConfig cfg = redundant_config(1);
  cfg.storage_nodes = 3;
  cfg.distribution = pvfs::DistKind::kMirror;
  cfg.replicas = 2;
  const Outcome out = run(cfg, redundant_kill);
  EXPECT_TRUE(out.data_ok);
  EXPECT_EQ(out.bytes_back, 2 * kTotal);
  EXPECT_EQ(out.finished, 8210282757);
  ASSERT_EQ(out.clients.size(), 2u);
  EXPECT_EQ(out.clients[0],
            "bytes_read=0 bytes_written=1572864 wire_read_bytes=0 "
            "wire_write_bytes=3145728 rpcs=32 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=12 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=2 mds_fallbacks=0 "
            "breaker_trips=1 layout_refetches=0 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=1 degraded_commits=1");
  EXPECT_EQ(out.clients[1],
            "bytes_read=3145728 bytes_written=0 wire_read_bytes=1572864 "
            "wire_write_bytes=0 rpcs=22 cache_hit_bytes=1572864 "
            "readahead_fetches=0 sched_writes=0 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=3 mds_fallbacks=0 "
            "breaker_trips=1 layout_refetches=0 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=3 degraded_read_bytes=786432 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
}

TEST(RecoveryCharacterization, ErasureKillReconstructs) {
  // EC(4+2), first file on nodes 0-5: data on 0-3, parity on 4-5.
  core::ClusterConfig cfg = redundant_config(1);
  cfg.storage_nodes = 6;
  cfg.distribution = pvfs::DistKind::kErasure;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  const Outcome out = run(cfg, redundant_kill);
  EXPECT_TRUE(out.data_ok);
  EXPECT_EQ(out.bytes_back, 2 * kTotal);
  EXPECT_EQ(out.finished, 5182946317);
  ASSERT_EQ(out.clients.size(), 2u);
  EXPECT_EQ(out.clients[0],
            "bytes_read=0 bytes_written=1572864 wire_read_bytes=0 "
            "wire_write_bytes=2621440 rpcs=40 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=10 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=1 mds_fallbacks=0 "
            "breaker_trips=1 layout_refetches=0 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=1 degraded_commits=0");
  EXPECT_EQ(out.clients[1],
            "bytes_read=3145728 bytes_written=0 wire_read_bytes=1572864 "
            "wire_write_bytes=0 rpcs=32 cache_hit_bytes=1572864 "
            "readahead_fetches=0 sched_writes=0 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=2 mds_fallbacks=0 "
            "breaker_trips=1 layout_refetches=0 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=2 degraded_read_bytes=524288 "
            "ec_reconstructions=2 degraded_writes=0 degraded_commits=0");
}

// ---------------------------------------------------------------------------
// 6. Strided writes and reads under a crash: WRITEV and READV degrade
//    region by region
// ---------------------------------------------------------------------------

constexpr uint64_t kRecord = 4_KiB;
constexpr uint64_t kRecords = 65;  // odd: the even records span the file

Task<void> strided_under_crash(core::Deployment& d, Outcome& out) {
  auto& sim = d.simulation();
  co_await d.mount_all();
  auto w = co_await d.client(0).open("/s", true);
  for (uint64_t i = 0; i < kRecords; i += 2) {
    co_await w->write(i * kRecord, pattern(i * kRecord, kRecord));
  }
  co_await w->fsync();
  // The reader caches every fourth record, so its later whole-file read
  // misses in strided gaps that fold into READVs.
  auto r = co_await d.client(1).open_read("/s");
  for (uint64_t i = 0; i < kRecords; i += 4) {
    Payload got = co_await r->read(i * kRecord, kRecord);
    out.data_ok = out.data_ok && got == pattern(i * kRecord, kRecord);
  }
  co_await wait_until(sim, sim::ms(501));
  // The odd records are non-adjacent too: each DS gets them as a WRITEV.
  for (uint64_t i = 1; i < kRecords; i += 2) {
    co_await w->write(i * kRecord, pattern(i * kRecord, kRecord));
  }
  co_await w->fsync();
  co_await w->close();
  Payload back = co_await r->read(0, kRecords * kRecord);
  out.bytes_back = back.size();
  out.data_ok = out.data_ok && back == pattern(0, kRecords * kRecord);
  co_await r->close();
  out.finished = sim.now();
}

TEST(RecoveryCharacterization, StridedVectoredIoDegradesRegionByRegion) {
  core::ClusterConfig cfg = stripe_config(2);
  cfg.stripe_unit = 64_KiB;
  cfg.nfs_client.readahead_window = 0;
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(500));
  const Outcome out = run(cfg, strided_under_crash);
  EXPECT_TRUE(out.data_ok);
  EXPECT_EQ(out.bytes_back, kRecords * kRecord);
  EXPECT_EQ(out.finished, 9158051596);
  ASSERT_EQ(out.clients.size(), 2u);
  EXPECT_EQ(out.clients[0],
            "bytes_read=0 bytes_written=266240 wire_read_bytes=0 "
            "wire_write_bytes=266240 rpcs=53 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=4 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=4 vectored_regions=65 "
            "vectored_bytes=266240 recovery_retries=0 mds_fallbacks=16 "
            "breaker_trips=1 layout_refetches=1 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
  EXPECT_EQ(out.clients[1],
            "bytes_read=335872 bytes_written=0 wire_read_bytes=266240 "
            "wire_write_bytes=0 rpcs=46 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=0 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=0 mds_fallbacks=8 "
            "breaker_trips=1 layout_refetches=1 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
}

// ---------------------------------------------------------------------------
// 7. A COMMIT-path failure: the DS dies between WRITE and COMMIT
// ---------------------------------------------------------------------------

Task<void> commit_failure(core::Deployment& d, Outcome& out) {
  co_await d.mount_all();
  auto f = co_await d.client(0).open("/f", true);
  co_await f->write(0, pattern(0, 4_MiB));
  co_await wait_until(d.simulation(), sim::ms(600));
  // COMMIT to the dead DS falls back to the MDS, whose verifier never
  // matches: the retained extent is replayed through the MDS.
  co_await f->fsync();
  co_await f->close();
  co_await read_back(d.client(1), "/f", 4_MiB, out);
  out.finished = d.simulation().now();
}

TEST(RecoveryCharacterization, CommitFailureFallsBackAndReplays) {
  core::ClusterConfig cfg = stripe_config(2);
  cfg.nfs_client.wb_commit_backlog = 0;
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(500));
  const Outcome out = run(cfg, commit_failure);
  EXPECT_TRUE(out.data_ok);
  EXPECT_EQ(out.bytes_back, 4_MiB);
  EXPECT_EQ(out.finished, 2870925329);
  ASSERT_EQ(out.clients.size(), 2u);
  EXPECT_EQ(out.clients[0],
            "bytes_read=0 bytes_written=4194304 wire_read_bytes=0 "
            "wire_write_bytes=6291456 rpcs=19 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=3 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=1 mds_fallbacks=2 "
            "breaker_trips=1 layout_refetches=0 verifier_mismatches=1 "
            "replayed_extents=1 replayed_bytes=2097152 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
  EXPECT_EQ(out.clients[1],
            "bytes_read=4194304 bytes_written=0 wire_read_bytes=4194304 "
            "wire_write_bytes=0 rpcs=13 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=0 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=1 mds_fallbacks=1 "
            "breaker_trips=1 layout_refetches=1 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
}

// ---------------------------------------------------------------------------
// 8. A write-through client (no data cache) under a crash
// ---------------------------------------------------------------------------

Task<void> write_through_crash(core::Deployment& d, Outcome& out) {
  co_await d.mount_all();
  auto f = co_await d.client(0).open("/f", true);
  for (uint64_t off = 0; off < 8_MiB; off += 1_MiB) {
    co_await f->write(off, pattern(off, 1_MiB));
  }
  co_await f->fsync();
  co_await wait_until(d.simulation(), sim::sec(1) + sim::ms(1));
  for (uint64_t off = 8_MiB; off < 16_MiB; off += 1_MiB) {
    co_await f->write(off, pattern(off, 1_MiB));
  }
  co_await f->fsync();
  co_await f->close();
  co_await read_back(d.client(1), "/f", 16_MiB, out);
  out.finished = d.simulation().now();
}

TEST(RecoveryCharacterization, WriteThroughClientUnderCrash) {
  core::ClusterConfig cfg = stripe_config(4);
  cfg.nfs_client.data_cache = false;
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::sec(1));
  const Outcome out = run(cfg, write_through_crash);
  EXPECT_TRUE(out.data_ok);
  EXPECT_EQ(out.bytes_back, 16_MiB);
  EXPECT_EQ(out.finished, 4165662808);
  ASSERT_EQ(out.clients.size(), 2u);
  EXPECT_EQ(out.clients[0],
            "bytes_read=0 bytes_written=16777216 wire_read_bytes=0 "
            "wire_write_bytes=16777216 rpcs=43 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=0 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=1 mds_fallbacks=2 "
            "breaker_trips=1 layout_refetches=1 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
  EXPECT_EQ(out.clients[1],
            "bytes_read=16777216 bytes_written=0 wire_read_bytes=16777216 "
            "wire_write_bytes=0 rpcs=24 cache_hit_bytes=0 "
            "readahead_fetches=0 sched_writes=0 sched_coalesced_extents=0 "
            "sched_coalesced_bytes=0 vectored_writes=0 vectored_regions=0 "
            "vectored_bytes=0 recovery_retries=1 mds_fallbacks=2 "
            "breaker_trips=1 layout_refetches=1 verifier_mismatches=0 "
            "replayed_extents=0 replayed_bytes=0 session_recoveries=0 "
            "replica_reroutes=0 degraded_reads=0 degraded_read_bytes=0 "
            "ec_reconstructions=0 degraded_writes=0 degraded_commits=0");
}

}  // namespace
}  // namespace dpnfs
