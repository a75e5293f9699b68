// NFS client cache semantics: close-to-open revalidation, page-cache
// retention, drop_caches, eviction, and the write-back/commit protocol
// details visible on the wire.
#include <gtest/gtest.h>

#include <memory>

#include "lfs/object_store.hpp"
#include "nfs/client.hpp"
#include "nfs/local_backend.hpp"
#include "nfs/server.hpp"
#include "rpc/fabric.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"

namespace dpnfs::nfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

struct Rig {
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};
  sim::Node& server_node = net.add_node(sim::NodeParams{
      .name = "server",
      .nic = sim::NicParams{},
      .disk = sim::DiskParams{},
      .cpu = sim::CpuParams{}});
  sim::Node& client_node = net.add_node(sim::NodeParams{
      .name = "client",
      .nic = sim::NicParams{},
      .disk = std::nullopt,
      .cpu = sim::CpuParams{}});
  lfs::ObjectStore store{server_node};
  LocalBackend backend{store, fabric.tracer(), fabric.tenants()};
  NfsServer server{fabric, server_node, rpc::kNfsPort, backend};
  std::unique_ptr<NfsClient> client;

  explicit Rig(ClientConfig cfg = {}) {
    cfg.pnfs_enabled = false;
    server.start();
    client = std::make_unique<NfsClient>(fabric, client_node, server.address(),
                                         "t@SIM", cfg);
  }

  void run(Task<void> t) {
    sim.spawn(std::move(t));
    sim.run();
  }
};

TEST(ClientCache, ReadsAfterReopenServedFromCache) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    co_await r.client->write(f, 0, Payload::virtual_bytes(4_MiB));
    co_await r.client->close(f);

    const uint64_t wire_before = r.client->stats().wire_read_bytes;
    auto g = co_await r.client->open("/f", false);
    (void)co_await r.client->read(g, 0, 4_MiB);
    co_await r.client->close(g);
    // Unchanged file: the data written through this client's cache is
    // still valid — nothing crosses the wire.
    EXPECT_EQ(r.client->stats().wire_read_bytes, wire_before);
  }(r));
}

TEST(ClientCache, ExternalChangeInvalidatesOnReopen) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    co_await r.client->write(f, 0, Payload::from_string("old content"));
    co_await r.client->close(f);

    // A second client modifies the file behind our back.
    NfsClient other(r.fabric, r.client_node, r.server.address(), "o@SIM",
                    ClientConfig{.pnfs_enabled = false});
    co_await other.mount();
    auto h = co_await other.open("/f", false);
    co_await other.write(h, 0, Payload::from_string("NEW CONTENT"));
    co_await other.close(h);

    auto g = co_await r.client->open("/f", false);
    Payload p = co_await r.client->read(g, 0, 11);
    EXPECT_EQ(p, Payload::from_string("NEW CONTENT"));
    co_await r.client->close(g);
  }(r));
}

TEST(ClientCache, DropCachesForcesRefetch) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    co_await r.client->write(f, 0, Payload::virtual_bytes(2_MiB));
    co_await r.client->close(f);
    r.client->drop_caches();

    const uint64_t wire_before = r.client->stats().wire_read_bytes;
    auto g = co_await r.client->open("/f", false);
    (void)co_await r.client->read(g, 0, 2_MiB);
    co_await r.client->close(g);
    EXPECT_EQ(r.client->stats().wire_read_bytes - wire_before, 2_MiB);
  }(r));
}

TEST(ClientCache, EvictionKeepsWorkingUnderTinyBudget) {
  ClientConfig cfg;
  cfg.cache_limit_bytes = 4_MiB;
  Rig r(cfg);
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/big", true);
    co_await r.client->write(f, 0, Payload::virtual_bytes(32_MiB));
    co_await r.client->fsync(f);
    // Sequential re-read far beyond the cache budget must still succeed.
    for (uint64_t off = 0; off < 32_MiB; off += 1_MiB) {
      Payload p = co_await r.client->read(f, off, 1_MiB);
      EXPECT_EQ(p.size(), 1_MiB);
    }
    co_await r.client->close(f);
  }(r));
  EXPECT_GT(r.client->stats().wire_read_bytes, 0u);  // misses happened
}

TEST(ClientCache, CommitOnlyGoesToWrittenTargets) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    co_await r.client->write(f, 0, Payload::virtual_bytes(64_KiB));
    const uint64_t rpcs_before = r.client->stats().rpcs;
    co_await r.client->fsync(f);
    const uint64_t fsync_rpcs = r.client->stats().rpcs - rpcs_before;
    // One WRITE + one COMMIT (no layout => no LAYOUTCOMMIT).
    EXPECT_EQ(fsync_rpcs, 2u);
    // A second fsync with nothing dirty is free.
    const uint64_t rpcs_mid = r.client->stats().rpcs;
    co_await r.client->fsync(f);
    EXPECT_EQ(r.client->stats().rpcs, rpcs_mid);
    co_await r.client->close(f);
  }(r));
}

TEST(ClientCache, UncachedReadsBypassCacheEveryTime) {
  ClientConfig cfg;
  cfg.data_cache = false;
  Rig r(cfg);
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    co_await r.client->write(f, 0, Payload::virtual_bytes(64_KiB));
    co_await r.client->fsync(f);
    const uint64_t before = r.client->stats().wire_read_bytes;
    for (int i = 0; i < 5; ++i) {
      (void)co_await r.client->read(f, 0, 8_KiB);
    }
    EXPECT_EQ(r.client->stats().wire_read_bytes - before, 5 * 8_KiB);
    co_await r.client->close(f);
  }(r));
}

TEST(ClientCache, RandomSmallReadsFetchPagesNotRsize) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/db", true);
    co_await r.client->write(f, 0, Payload::virtual_bytes(64_MiB));
    co_await r.client->fsync(f);
    co_await r.client->close(f);
    r.client->drop_caches();

    auto g = co_await r.client->open("/db", false);
    const uint64_t before = r.client->stats().wire_read_bytes;
    // Random-ish (non-sequential) 8 KB reads must not drag 2 MB each.
    const uint64_t offs[] = {40_MiB, 8_MiB, 56_MiB, 24_MiB, 16_MiB};
    for (uint64_t off : offs) {
      (void)co_await r.client->read(g, off, 8_KiB);
    }
    const uint64_t fetched = r.client->stats().wire_read_bytes - before;
    EXPECT_LE(fetched, 5 * 64_KiB);  // page-granular + no readahead
    co_await r.client->close(g);
  }(r));
}

TEST(ClientCache, WritebackWindowBoundsDoesNotLoseData) {
  ClientConfig cfg;
  cfg.wb_window_per_ds = 1;  // fully serialized per-DS pipelines
  Rig r(cfg);
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    std::vector<std::byte> pattern(5 * 1024 * 1024);
    for (size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((i / 1021) & 0xFF);
    }
    co_await r.client->write(f, 0, Payload::inline_bytes(pattern));
    co_await r.client->close(f);
    r.client->drop_caches();

    auto g = co_await r.client->open("/f", false);
    Payload p = co_await r.client->read(g, 0, pattern.size());
    EXPECT_EQ(p, Payload::inline_bytes(pattern));
    co_await r.client->close(g);
  }(r));
}

TEST(ClientCache, DentryCacheAvoidsRepeatedLookups) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    co_await r.client->mkdir("/a");
    co_await r.client->mkdir("/a/b");
    auto f = co_await r.client->open("/a/b/file", true);
    co_await r.client->close(f);
    const uint64_t before = r.client->stats().rpcs;
    for (int i = 0; i < 10; ++i) {
      (void)co_await r.client->stat("/a/b/file");
    }
    // 10 stats over a cached dentry: 10 GETATTR compounds, no LOOKUP walks.
    EXPECT_EQ(r.client->stats().rpcs - before, 10u);
  }(r));
}

}  // namespace
}  // namespace dpnfs::nfs
