// PVFS2-like parallel file system tests: protocol math, end-to-end client
// behaviour over the RPC fabric, and the PVFS2 performance traits the paper
// depends on (no client cache, bounded buffer pool, commit-on-fsync).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "pvfs/client.hpp"
#include "pvfs/meta_server.hpp"
#include "pvfs/storage_server.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace dpnfs::pvfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

TEST(PvfsProtocol, MapStripesRoundRobinDense) {
  FileMeta meta;
  meta.handle = 1;
  meta.stripe_unit = 100;
  meta.dfiles = {DfileRef{0, 10}, DfileRef{1, 11}, DfileRef{2, 12}};
  // 250 bytes from offset 0: stripes 0,1,2 -> dfiles 0,1,2.
  auto exts = map_stripes(meta, 0, 250);
  ASSERT_EQ(exts.size(), 3u);
  EXPECT_EQ(exts[0].dfile_index, 0u);
  EXPECT_EQ(exts[0].dfile_offset, 0u);
  EXPECT_EQ(exts[0].length, 100u);
  EXPECT_EQ(exts[2].dfile_index, 2u);
  EXPECT_EQ(exts[2].length, 50u);
  // Offset 350 (stripe 3 -> dfile 0, second stripe on it: dense offset 100).
  exts = map_stripes(meta, 350, 10);
  ASSERT_EQ(exts.size(), 1u);
  EXPECT_EQ(exts[0].dfile_index, 0u);
  EXPECT_EQ(exts[0].dfile_offset, 150u);
}

TEST(PvfsProtocol, LogicalSizeFromDfileSizes) {
  FileMeta meta;
  meta.stripe_unit = 100;
  meta.dfiles = {DfileRef{0, 1}, DfileRef{1, 2}, DfileRef{2, 3}};
  // Empty file.
  EXPECT_EQ(logical_size(meta, {0, 0, 0}), 0u);
  // 250 bytes: dfile0=100, dfile1=100, dfile2=50.
  EXPECT_EQ(logical_size(meta, {100, 100, 50}), 250u);
  // Exactly one stripe.
  EXPECT_EQ(logical_size(meta, {100, 0, 0}), 100u);
  // Sparse write at stripe 4 (dfile 1, dense offset 100..): dfile1=150.
  EXPECT_EQ(logical_size(meta, {0, 150, 0}), 450u);
}

TEST(PvfsProtocol, LogicalSizeInverseOfStriping) {
  // Property: writing [0, L) densely gives dfile sizes whose logical_size
  // is exactly L.
  util::Rng rng(11);
  FileMeta meta;
  meta.stripe_unit = 64;
  meta.dfiles = {DfileRef{0, 1}, DfileRef{1, 2}, DfileRef{2, 3}, DfileRef{3, 4}};
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t len = rng.range(1, 5000);
    std::vector<uint64_t> sizes(4, 0);
    for (const auto& ext : map_stripes(meta, 0, len)) {
      sizes[ext.dfile_index] =
          std::max(sizes[ext.dfile_index], ext.dfile_offset + ext.length);
    }
    ASSERT_EQ(logical_size(meta, sizes), len) << "len=" << len;
  }
}

struct PvfsCluster {
  static constexpr int kStorage = 3;
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};

  sim::Node* meta_node = nullptr;
  std::unique_ptr<PvfsMetaServer> meta;
  std::vector<std::unique_ptr<lfs::ObjectStore>> stores;
  std::vector<std::unique_ptr<PvfsStorageServer>> storage;
  sim::Node* cl_node = nullptr;
  std::unique_ptr<PvfsClient> client;

  explicit PvfsCluster(uint64_t stripe_unit = 1_MiB,
                       MetaServerConfig mcfg = {}) {
    std::vector<rpc::RpcAddress> addrs;
    for (int i = 0; i < kStorage; ++i) {
      auto& node = net.add_node(sim::NodeParams{
          .name = "io" + std::to_string(i),
          .nic = sim::NicParams{.bytes_per_sec = 117e6, .latency = sim::us(60)},
          .disk = sim::DiskParams{.bytes_per_sec = 60e6},
          .cpu = sim::CpuParams{.cores = 2}});
      stores.push_back(std::make_unique<lfs::ObjectStore>(node));
      storage.push_back(std::make_unique<PvfsStorageServer>(
          fabric, node, rpc::kPvfsIoPort, *stores.back()));
      storage.back()->start();
      addrs.push_back(storage.back()->address());
    }
    // Metadata manager doubles on storage node 0 (paper setup).
    meta_node = &net.node(0);
    mcfg.stripe_unit = stripe_unit;
    meta = std::make_unique<PvfsMetaServer>(fabric, *meta_node,
                                            rpc::kPvfsMetaPort, kStorage, mcfg);
    meta->start();
    cl_node = &net.add_node(sim::NodeParams{
        .name = "client",
        .nic = sim::NicParams{.bytes_per_sec = 117e6, .latency = sim::us(60)},
        .disk = std::nullopt,
        .cpu = sim::CpuParams{.cores = 2}});
    client = std::make_unique<PvfsClient>(fabric, *cl_node, meta->address(),
                                          addrs, "tester@SIM");
  }

  void run(Task<void> t) {
    sim.spawn(std::move(t));
    sim.run();
  }
};

TEST(PvfsEndToEnd, CreateWriteReadBack) {
  PvfsCluster f;
  f.run([](PvfsCluster& f) -> Task<void> {
    auto file = co_await f.client->create("/data");
    co_await f.client->write(file, 0, Payload::from_string("parallel bytes"));
    Payload p = co_await f.client->read(file, 0, 14);
    EXPECT_EQ(p, Payload::from_string("parallel bytes"));
    co_await f.client->close(file);
  }(f));
}

TEST(PvfsEndToEnd, RefusedCreateSurfacesAsPvfsError) {
  // EC(4+2) needs six storage nodes and the cluster has three: the
  // metadata server's create handler throws, and the RPC layer answers
  // SYSTEM_ERR with no body.
  MetaServerConfig mcfg;
  mcfg.distribution = DistKind::kErasure;
  PvfsCluster f(1_MiB, mcfg);
  std::string error;
  f.run([](PvfsCluster& f, std::string& error) -> Task<void> {
    try {
      co_await f.client->create("/data");
      error = "none";
    } catch (const PvfsError&) {
      error = "PvfsError";
    } catch (const rpc::XdrError&) {
      error = "XdrError";
    }
  }(f, error));
  EXPECT_EQ(error, "PvfsError");
}

TEST(PvfsEndToEnd, DataStripedAcrossStorageNodes) {
  PvfsCluster f;
  f.run([](PvfsCluster& f) -> Task<void> {
    auto file = co_await f.client->create("/striped");
    co_await f.client->write(file, 0, Payload::virtual_bytes(6_MiB));
    co_await f.client->close(file);
  }(f));
  // 6 MiB over 3 nodes with 1 MiB stripes: 2 MiB per node.
  for (const auto& store : f.stores) {
    uint64_t total = 0;
    for (uint64_t oid = 0; oid < 1000; ++oid) {
      if (store->exists(oid)) total += store->size(oid);
    }
    EXPECT_EQ(total, 2_MiB);
  }
}

TEST(PvfsEndToEnd, ReopenGathersSizeFromStorage) {
  PvfsCluster f;
  f.run([](PvfsCluster& f) -> Task<void> {
    auto file = co_await f.client->create("/szfile");
    co_await f.client->write(file, 0, Payload::virtual_bytes(5_MiB + 123));
    co_await f.client->close(file);

    auto again = co_await f.client->open("/szfile");
    EXPECT_EQ(again->size, 5_MiB + 123);
    co_await f.client->close(again);
  }(f));
}

TEST(PvfsEndToEnd, CrossStripeContentIntegrity) {
  PvfsCluster f(64_KiB);
  f.run([](PvfsCluster& f) -> Task<void> {
    auto file = co_await f.client->create("/pattern");
    std::vector<std::byte> pattern(300 * 1024);
    for (size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((i * 7) & 0xFF);
    }
    co_await f.client->write(file, 0, Payload::inline_bytes(pattern));
    Payload p = co_await f.client->read(file, 100 * 1024, 150 * 1024);
    EXPECT_TRUE(p.is_inline());
    EXPECT_EQ(p.size(), 150u * 1024);
    bool ok = true;
    for (size_t i = 0; i < p.size() && ok; ++i) {
      ok = p.data()[i] == static_cast<std::byte>(((100 * 1024 + i) * 7) & 0xFF);
    }
    EXPECT_TRUE(ok);
    co_await f.client->close(file);
  }(f));
}

TEST(PvfsEndToEnd, SparseFileReadsBackHoleAsZeros) {
  // The middle stripe's dfile holds no bytes: its region comes back empty
  // and must read as real zeros, keeping the whole read inline.
  PvfsCluster f(64_KiB);
  f.run([](PvfsCluster& f) -> Task<void> {
    auto file = co_await f.client->create("/sparse");
    const auto filled = [](char c) {
      return Payload::inline_bytes(
          std::vector<std::byte>(64_KiB, static_cast<std::byte>(c)));
    };
    co_await f.client->write(file, 0, filled('A'));
    co_await f.client->write(file, 128_KiB, filled('B'));
    Payload p = co_await f.client->read(file, 0, 192_KiB);
    EXPECT_EQ(p.size(), 192_KiB);
    EXPECT_TRUE(p.is_inline());
    Payload expected = filled('A');
    expected.append(filled('\0'));
    expected.append(filled('B'));
    EXPECT_EQ(p, expected);
    co_await f.client->close(file);
  }(f));
}

TEST(PvfsEndToEnd, NamespaceOperations) {
  PvfsCluster f;
  f.run([](PvfsCluster& f) -> Task<void> {
    co_await f.client->mkdir("/d");
    auto file = co_await f.client->create("/d/f");
    co_await f.client->close(file);

    auto entries = co_await f.client->readdir("/d");
    EXPECT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].first, "f");
    EXPECT_FALSE(entries[0].second);

    co_await f.client->rename("/d/f", "/d/g");
    entries = co_await f.client->readdir("/d");
    EXPECT_EQ(entries[0].first, "g");

    bool exist = false;
    try {
      co_await f.client->mkdir("/d");
    } catch (const PvfsError& e) {
      exist = (e.status() == PvfsStatus::kExist);
    }
    EXPECT_TRUE(exist);
  }(f));
}

TEST(PvfsEndToEnd, RemoveReapsStorageObjects) {
  PvfsCluster f;
  f.run([](PvfsCluster& f) -> Task<void> {
    auto file = co_await f.client->create("/gone");
    co_await f.client->write(file, 0, Payload::virtual_bytes(3_MiB));
    co_await f.client->close(file);
    co_await f.client->remove("/gone");
  }(f));
  for (const auto& store : f.stores) {
    for (uint64_t oid = 0; oid < 1000; ++oid) {
      EXPECT_FALSE(store->exists(oid));
    }
  }
}

TEST(PvfsEndToEnd, NoClientCacheMeansEveryReadHitsWire) {
  PvfsCluster f;
  f.run([](PvfsCluster& f) -> Task<void> {
    auto file = co_await f.client->create("/nocache");
    co_await f.client->write(file, 0, Payload::virtual_bytes(64_KiB));
    const uint64_t before = f.client->stats().storage_requests;
    for (int i = 0; i < 10; ++i) {
      (void)co_await f.client->read(file, 0, 8_KiB);
    }
    // 10 identical reads: 10 storage requests (no cache).
    EXPECT_EQ(f.client->stats().storage_requests - before, 10u);
    co_await f.client->close(file);
  }(f));
}

TEST(PvfsEndToEnd, FsyncForcesDataToDisk) {
  PvfsCluster f;
  f.run([](PvfsCluster& f) -> Task<void> {
    auto file = co_await f.client->create("/durable");
    co_await f.client->write(file, 0, Payload::virtual_bytes(6_MiB));
    uint64_t dirty = 0;
    for (const auto& store : f.stores) dirty += store->dirty_bytes();
    EXPECT_EQ(dirty, 6_MiB);  // buffered on storage nodes
    co_await f.client->fsync(file);
    dirty = 0;
    for (const auto& store : f.stores) dirty += store->dirty_bytes();
    EXPECT_EQ(dirty, 0u);
    co_await f.client->close(file);
  }(f));
}

TEST(PvfsEndToEnd, TruncateShrinksLogicalSize) {
  PvfsCluster f;
  f.run([](PvfsCluster& f) -> Task<void> {
    auto file = co_await f.client->create("/trunc");
    co_await f.client->write(file, 0, Payload::virtual_bytes(4_MiB));
    co_await f.client->truncate(file, 2_MiB + 500);
    const uint64_t gathered = co_await f.client->fetch_size(file);
    EXPECT_EQ(gathered, 2_MiB + 500);
    co_await f.client->close(file);
  }(f));
}

TEST(PvfsEndToEnd, BufferPoolBoundsParallelism) {
  // With a 1-buffer pool, N requests serialize; with 8 they overlap.  The
  // serialized run must take ~N times the per-request floor.
  auto elapsed_with_buffers = [](uint32_t buffers) {
    PvfsCluster f;
    PvfsClientConfig cfg;
    cfg.buffer_count = buffers;
    f.client = std::make_unique<PvfsClient>(
        f.fabric, *f.cl_node, f.meta->address(),
        std::vector<rpc::RpcAddress>{f.storage[0]->address(),
                                     f.storage[1]->address(),
                                     f.storage[2]->address()},
        "tester@SIM", cfg);
    f.run([](PvfsCluster& f) -> Task<void> {
      auto file = co_await f.client->create("/par");
      co_await f.client->write(file, 0, Payload::virtual_bytes(24_MiB));
      co_await f.client->close(file);
    }(f));
    return f.sim.now();
  };
  const auto serial = elapsed_with_buffers(1);
  const auto parallel = elapsed_with_buffers(8);
  EXPECT_GT(serial, parallel);
}

}  // namespace
}  // namespace dpnfs::pvfs
