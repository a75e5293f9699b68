// Redundancy: Reed-Solomon coding contracts, and degraded-mode reads and
// writes under a permanent data-server kill (`ctest -L faults`).
//
// The deployment half of the matrix kills one (or two) data-server nodes —
// both the NFS data server and the PVFS storage daemon, never revived — and
// asserts the client contract from docs/failures.md:
//   - every byte reads back byte-identical through a surviving replica
//     (mirror) or k-of-n reconstruction (erasure);
//   - writes issued during the outage are absorbed by the surviving
//     redundancy, not errored and not proxied;
//   - `client.recovery.mds_fallbacks` stays pinned at zero throughout.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "core/deployment.hpp"
#include "rpc/fabric.hpp"
#include "util/bytes.hpp"
#include "util/reed_solomon.hpp"

namespace dpnfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;
using util::ReedSolomon;

// ---------------------------------------------------------------------------
// Reed-Solomon unit contracts
// ---------------------------------------------------------------------------

uint64_t next_rand(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::vector<std::byte>> random_shards(uint32_t k, size_t len,
                                                  uint64_t seed) {
  std::vector<std::vector<std::byte>> out(k);
  for (auto& shard : out) {
    shard.resize(len);
    for (auto& b : shard) b = static_cast<std::byte>(next_rand(seed) & 0xFF);
  }
  return out;
}

TEST(ReedSolomon, RoundTripsEveryErasurePattern) {
  constexpr uint32_t k = 4, m = 2;
  const ReedSolomon rs(k, m);
  const auto data = random_shards(k, 257, 42);
  std::vector<std::vector<std::byte>> parity;
  rs.encode(data, &parity);
  ASSERT_EQ(parity.size(), m);

  // Every erasure pattern of <= m shards (including parity) reconstructs.
  const uint32_t n = k + m;
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = a; b < n; ++b) {  // a == b: single erasure
      std::vector<std::optional<std::vector<std::byte>>> shards(n);
      for (uint32_t i = 0; i < k; ++i) shards[i] = data[i];
      for (uint32_t j = 0; j < m; ++j) shards[k + j] = parity[j];
      shards[a].reset();
      shards[b].reset();
      ASSERT_TRUE(rs.reconstruct(&shards)) << a << "," << b;
      for (uint32_t i = 0; i < k; ++i) {
        ASSERT_EQ(*shards[i], data[i]) << "data " << i << " after erasing "
                                       << a << "," << b;
      }
      for (uint32_t j = 0; j < m; ++j) {
        ASSERT_EQ(*shards[k + j], parity[j])
            << "parity " << j << " after erasing " << a << "," << b;
      }
    }
  }
}

TEST(ReedSolomon, RefusesMoreThanMErasures) {
  const ReedSolomon rs(4, 2);
  const auto data = random_shards(4, 64, 7);
  std::vector<std::vector<std::byte>> parity;
  rs.encode(data, &parity);
  std::vector<std::optional<std::vector<std::byte>>> shards(6);
  for (uint32_t i = 0; i < 4; ++i) shards[i] = data[i];
  for (uint32_t j = 0; j < 2; ++j) shards[4 + j] = parity[j];
  shards[0].reset();
  shards[2].reset();
  shards[5].reset();
  EXPECT_FALSE(rs.reconstruct(&shards));
}

TEST(ReedSolomon, EncodeIsDeterministic) {
  const ReedSolomon rs(3, 2);
  const auto data = random_shards(3, 100, 99);
  std::vector<std::vector<std::byte>> p1, p2;
  rs.encode(data, &p1);
  rs.encode(data, &p2);
  EXPECT_EQ(p1, p2);
}

TEST(ReedSolomon, SingleParityRoundTrips) {
  const ReedSolomon rs(3, 1);
  const auto data = random_shards(3, 33, 5);
  std::vector<std::vector<std::byte>> parity;
  rs.encode(data, &parity);
  for (uint32_t gone = 0; gone < 4; ++gone) {
    std::vector<std::optional<std::vector<std::byte>>> shards(4);
    for (uint32_t i = 0; i < 3; ++i) shards[i] = data[i];
    shards[3] = parity[0];
    shards[gone].reset();
    ASSERT_TRUE(rs.reconstruct(&shards));
    for (uint32_t i = 0; i < 3; ++i) ASSERT_EQ(*shards[i], data[i]);
  }
}

// ---------------------------------------------------------------------------
// Degraded reads and writes under permanent DS loss
// ---------------------------------------------------------------------------

Payload oracle(uint64_t base, uint64_t length) {
  std::vector<std::byte> v(length);
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t o = base + i;
    v[i] = static_cast<std::byte>((o * 167 + (o >> 13) * 11 + 5) & 0xFF);
  }
  return Payload::inline_bytes(std::move(v));
}

constexpr sim::Time kKillAt = sim::ms(500);
constexpr uint64_t kInitial = 1_MiB;    // durable (fsynced) before the kill
constexpr uint64_t kUnstable = 256_KiB;  // streamed but UNCOMMITTED at kill
constexpr uint64_t kExtra = 256_KiB;     // written during the outage
constexpr uint64_t kTotal = kInitial + kUnstable + kExtra;

struct DegradedCase {
  std::vector<uint32_t> victims;  ///< storage nodes killed (never node 0)
  bool rotate = false;            ///< advance placement by one create first
  bool expect_degraded_reads = false;
  bool expect_reconstruct = false;
  /// Mirror only: the pre-kill unstable chunk leaves a COMMIT target on the
  /// dead replica, so the post-kill fsync must take the degraded-commit
  /// rung.  (EC flushes only at fsync, so its targets never straddle the
  /// kill.)
  bool expect_degraded_commit = false;
};

struct DegradedOutcome {
  bool data_ok = false;
  nfs::ClientStats writer;
  nfs::ClientStats reader;
};

nfs::ClientStats client_stats(core::Deployment& d, size_t i) {
  return dynamic_cast<core::NfsFileSystemClient&>(d.client(i)).native().stats();
}

Task<void> degraded_scenario(core::Deployment& d, bool rotate,
                             bool& data_ok) {
  auto& sim = d.simulation();
  co_await d.mount_all();
  co_await d.client(0).mkdir("/r");
  if (rotate) {
    // Advance the round-robin placement by one create so the file under
    // test lands on the next node set.
    auto r = co_await d.client(0).open("/r/rotate", true);
    co_await r->close();
  }

  // Writer: the bulk of the file is written and durable before the kill.
  auto f = co_await d.client(0).open("/r/f", true);
  co_await f->write(0, oracle(0, kInitial));
  co_await f->fsync();
  // One more chunk streams out (wsize-sized, so the write-back pushes it
  // immediately) but is deliberately NOT committed before the kill.
  co_await f->write(kInitial, oracle(kInitial, kUnstable));
  co_await sim.delay(sim::ms(50));  // let the async WRITEs land

  co_await sim.delay(kKillAt + sim::ms(100) - sim.now());

  // Outage is live: the write is absorbed by the surviving redundancy, and
  // the fsync — which must also commit the pre-kill unstable chunk —
  // converges without error.  Neither touches the MDS data path.
  co_await f->write(kInitial + kUnstable, oracle(kInitial + kUnstable,
                                                 kExtra));
  co_await f->fsync();

  // Cold reader (fresh cache, stale placement): every byte must come back
  // through the degraded machinery, byte-identical.
  auto g = co_await d.client(1).open_read("/r/f");
  Payload back = co_await g->read(0, kTotal);
  data_ok = back == oracle(0, kTotal);
  // Second read: the breaker is open now, so routing remaps up front.
  Payload again = co_await g->read(0, kTotal);
  data_ok = data_ok && again == oracle(0, kTotal);
  co_await g->close();
  co_await f->close();
}

DegradedOutcome run_degraded(core::ClusterConfig cfg,
                             const DegradedCase& c) {
  cfg.clients = 2;
  cfg.stripe_unit = 256_KiB;
  // Fast-failure posture so the retry burn stays small; wsize matches the
  // chunk size so non-EC writes stream out the moment they are written.
  cfg.nfs_client.ds_timeout = sim::ms(200);
  cfg.nfs_client.ds_rpc_retries = 2;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::ms(400);
  cfg.nfs_client.wsize = 256_KiB;
  cfg.pvfs_client.io_timeout = sim::ms(200);
  cfg.pvfs_client.io_retries = 2;
  for (uint32_t v : c.victims) {
    cfg.faults.crash_service(v, rpc::kNfsPort, kKillAt);
    cfg.faults.crash_service(v, rpc::kPvfsIoPort, kKillAt);
  }

  core::Deployment d(cfg);
  bool data_ok = false;
  d.simulation().spawn(degraded_scenario(d, c.rotate, data_ok));
  d.simulation().run();

  DegradedOutcome out;
  out.data_ok = data_ok;
  out.writer = client_stats(d, 0);
  out.reader = client_stats(d, 1);
  return out;
}

void expect_degraded_sound(const DegradedOutcome& out, const DegradedCase& c) {
  EXPECT_TRUE(out.data_ok);
  // The MDS fallback counter is pinned at zero: redundancy, not the MDS,
  // carried every degraded byte.
  EXPECT_EQ(out.writer.mds_fallbacks, 0u);
  EXPECT_EQ(out.reader.mds_fallbacks, 0u);
  // The outage-time write really went through the degraded write path.
  EXPECT_GE(out.writer.degraded_writes, 1u);
  if (c.expect_degraded_commit) {
    EXPECT_GE(out.writer.degraded_commits, 1u);
  }
  if (c.expect_degraded_reads) {
    EXPECT_GE(out.reader.degraded_reads + out.reader.replica_reroutes, 1u);
  }
  if (c.expect_reconstruct) {
    EXPECT_GE(out.reader.ec_reconstructions, 1u);
  }
}

core::ClusterConfig mirror_config() {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 3;
  cfg.distribution = pvfs::DistKind::kMirror;
  cfg.replicas = 2;
  return cfg;
}

core::ClusterConfig erasure_config() {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.distribution = pvfs::DistKind::kErasure;
  cfg.ec_k = 2;
  cfg.ec_m = 2;
  return cfg;
}

// First created file under 3 active nodes with 2 replicas lands on nodes
// {0, 1}; killing node 1 removes one replica of it.
TEST(DegradedMirror, SurvivesReplicaKill) {
  const DegradedCase c{.victims = {1},
                       .expect_degraded_reads = true,
                       .expect_degraded_commit = true};
  expect_degraded_sound(run_degraded(mirror_config(), c), c);
}

// Rotate the placement (one extra create) so the file lives on {1, 2}, then
// kill each of its replicas in turn.
TEST(DegradedMirror, SurvivesEachReplicaKillInTurn) {
  for (uint32_t victim : {1u, 2u}) {
    const DegradedCase c{.victims = {victim},
                         .rotate = true,
                         .expect_degraded_reads = true,
                         .expect_degraded_commit = true};
    expect_degraded_sound(run_degraded(mirror_config(), c), c);
  }
}

// EC(2+2), first file on nodes {0,1,2,3}: data on {0,1}, parity on {2,3}.
TEST(DegradedErasure, SurvivesDataFragmentKill) {
  const DegradedCase c{.victims = {1},
                       .expect_degraded_reads = true,
                       .expect_reconstruct = true};
  expect_degraded_sound(run_degraded(erasure_config(), c), c);
}

TEST(DegradedErasure, SurvivesParityFragmentKill) {
  // Reads never touch parity devices; writes during the outage must still
  // absorb the unreachable parity segment.
  const DegradedCase c{.victims = {2}};
  expect_degraded_sound(run_degraded(erasure_config(), c), c);
}

TEST(DegradedErasure, SurvivesBothParityKills) {
  const DegradedCase c{.victims = {2, 3}};
  expect_degraded_sound(run_degraded(erasure_config(), c), c);
}

TEST(DegradedErasure, SurvivesDataPlusParityKill) {
  // m = 2 erasures: one data fragment and one parity fragment at once;
  // reconstruction must pick exactly the two live shards.
  const DegradedCase c{.victims = {1, 3},
                       .expect_degraded_reads = true,
                       .expect_reconstruct = true};
  expect_degraded_sound(run_degraded(erasure_config(), c), c);
}

}  // namespace
}  // namespace dpnfs
