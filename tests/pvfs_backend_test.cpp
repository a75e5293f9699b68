// PvfsBackend tests: the NFS-over-PVFS proxy used by the 2-/3-tier data
// servers and the plain NFSv4 server, including the stripe-view offset
// conversion and the FhRegistry control-protocol stand-in.
#include <gtest/gtest.h>

#include <memory>

#include "core/pvfs_backend.hpp"
#include "pvfs/meta_server.hpp"
#include "pvfs/storage_server.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"

namespace dpnfs::core {
namespace {

using namespace dpnfs::util::literals;
using nfs::FileHandle;
using nfs::Status;
using rpc::Payload;
using sim::Task;

struct Rig {
  static constexpr int kStorage = 3;
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};
  std::vector<std::unique_ptr<lfs::ObjectStore>> stores;
  std::vector<std::unique_ptr<pvfs::PvfsStorageServer>> storage;
  std::unique_ptr<pvfs::PvfsMetaServer> meta;
  std::unique_ptr<pvfs::PvfsClient> pvfs_client;
  std::shared_ptr<FhRegistry> registry = std::make_shared<FhRegistry>();

  Rig() {
    std::vector<rpc::RpcAddress> addrs;
    for (int i = 0; i < kStorage; ++i) {
      auto& node = net.add_node(sim::NodeParams{
          .name = "io" + std::to_string(i),
          .nic = sim::NicParams{},
          .disk = sim::DiskParams{},
          .cpu = sim::CpuParams{}});
      stores.push_back(std::make_unique<lfs::ObjectStore>(node));
      storage.push_back(std::make_unique<pvfs::PvfsStorageServer>(
          fabric, node, rpc::kPvfsIoPort, *stores.back()));
      storage.back()->start();
      addrs.push_back(storage.back()->address());
    }
    pvfs::MetaServerConfig mcfg;
    mcfg.stripe_unit = 64_KiB;
    meta = std::make_unique<pvfs::PvfsMetaServer>(fabric, net.node(0),
                                                  rpc::kPvfsMetaPort, kStorage,
                                                  mcfg);
    meta->start();
    auto& cn = net.add_node(sim::NodeParams{.name = "proxy",
                                            .nic = sim::NicParams{},
                                            .disk = std::nullopt,
                                            .cpu = sim::CpuParams{}});
    pvfs::PvfsClientConfig ccfg;
    ccfg.vfs_meta_latency = 0;  // keep unit tests snappy
    pvfs_client = std::make_unique<pvfs::PvfsClient>(fabric, cn, meta->address(),
                                                     addrs, "proxy@SIM", ccfg);
  }

  void run(Task<void> t) {
    sim.spawn(std::move(t));
    sim.run();
  }
};

TEST(FhRegistry, InternAndLookup) {
  FhRegistry reg;
  EXPECT_EQ(reg.root().id, FhRegistry::kRootId);
  const FileHandle d = reg.intern_dir("/a");
  EXPECT_EQ(reg.intern_dir("/a"), d);  // idempotent
  EXPECT_EQ(reg.find_path("/a"), d);
  EXPECT_EQ(reg.find_path("/missing"), std::nullopt);
  FhRegistry::Entry* e = reg.find(d);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->is_dir);
  reg.rename("/a", "/b");
  EXPECT_EQ(reg.find_path("/a"), std::nullopt);
  EXPECT_EQ(reg.find_path("/b"), d);  // handle survives rename
  reg.erase("/b");
  EXPECT_EQ(reg.find(d), nullptr);
}

TEST(PvfsBackendProxy, NamespaceAndDataRoundTrip) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    PvfsBackend backend(*r.pvfs_client, r.registry);
    FileHandle dir, fh;
    nfs::Fattr attr;
    EXPECT_EQ(co_await backend.mkdir(backend.root_fh(), "d", &dir), Status::kOk);
    EXPECT_EQ(co_await backend.open(dir, "f", true, &fh, &attr), Status::kOk);
    nfs::StableHow committed;
    uint64_t post_change = 0;
    EXPECT_EQ(co_await backend.write(fh, 0, Payload::from_string("proxy data"),
                                     nfs::StableHow::kUnstable, &committed,
                                     &post_change),
              Status::kOk);
    EXPECT_GT(post_change, 0u);
    Payload out;
    bool eof = false;
    EXPECT_EQ(co_await backend.read(fh, 0, 10, &out, &eof), Status::kOk);
    EXPECT_EQ(out, Payload::from_string("proxy data"));
    EXPECT_EQ(co_await backend.commit(fh), Status::kOk);

    // GETATTR reports the size the proxied write left behind.
    EXPECT_EQ(co_await backend.getattr(fh, &attr), Status::kOk);
    EXPECT_EQ(attr.size, 10u);

    // Namespace errors map to NFS statuses.
    FileHandle dummy;
    EXPECT_EQ(co_await backend.lookup(dir, "missing", &dummy), Status::kNoEnt);
    EXPECT_EQ(co_await backend.mkdir(dir, "", &dummy), Status::kInval);
  }(r));
}

TEST(PvfsBackendProxy, DescribeExposesNativeDistribution) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    PvfsBackend backend(*r.pvfs_client, r.registry);
    FileHandle fh;
    nfs::Fattr attr;
    EXPECT_EQ(co_await backend.open(backend.root_fh(), "f", true, &fh, &attr),
              Status::kOk);
    PfsLayoutDescription desc;
    EXPECT_TRUE(backend.describe(fh, &desc));
    EXPECT_EQ(desc.stripe_unit, 64_KiB);
    EXPECT_EQ(desc.placements.size(), 3u);
    // Directories have no layout.
    EXPECT_FALSE(backend.describe(backend.root_fh(), &desc));
  }(r));
}

TEST(PvfsBackendProxy, StripeViewConvertsDenseOffsetsToFileOffsets) {
  // A 2-tier data server for device index 1 of 3 with 64 KiB stripes:
  // device offset 0      -> file offset 64 KiB   (stripe 1)
  // device offset 64 KiB -> file offset 256 KiB  (stripe 4)
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    PvfsBackend mds(*r.pvfs_client, r.registry);
    FileHandle fh;
    nfs::Fattr attr;
    EXPECT_EQ(co_await mds.open(mds.root_fh(), "f", true, &fh, &attr),
              Status::kOk);
    // Write a recognizable pattern through the MDS path (logical offsets).
    std::vector<std::byte> content(512_KiB);
    for (size_t i = 0; i < content.size(); ++i) {
      content[i] = static_cast<std::byte>((i / 64_KiB) & 0xFF);  // stripe idx
    }
    nfs::StableHow committed;
    uint64_t post_change = 0;
    EXPECT_EQ(co_await mds.write(fh, 0, Payload::inline_bytes(content),
                                 nfs::StableHow::kUnstable, &committed,
                                 &post_change),
              Status::kOk);

    PvfsBackend ds1(*r.pvfs_client, r.registry, StripeView{64_KiB, 3, 1});
    Payload out;
    bool eof = false;
    // Dense device offset 0 on device 1 == logical stripe 1.
    EXPECT_EQ(co_await ds1.read(fh, 0, 64_KiB, &out, &eof), Status::kOk);
    EXPECT_TRUE(out.is_inline());
    EXPECT_EQ(out.data()[0], std::byte{1});
    // Dense device offset 64 KiB on device 1 == logical stripe 4.
    EXPECT_EQ(co_await ds1.read(fh, 64_KiB, 64_KiB, &out, &eof), Status::kOk);
    EXPECT_TRUE(out.is_inline());
    EXPECT_EQ(out.data()[0], std::byte{4});
  }(r));
}

TEST(PvfsBackendProxy, StripeViewWriteRoundTrip) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    PvfsBackend mds(*r.pvfs_client, r.registry);
    FileHandle fh;
    nfs::Fattr attr;
    EXPECT_EQ(co_await mds.open(mds.root_fh(), "g", true, &fh, &attr),
              Status::kOk);
    PvfsBackend ds0(*r.pvfs_client, r.registry, StripeView{64_KiB, 3, 0});
    // Write 2 dense stripes through DS0: logical stripes 0 and 3.
    std::vector<std::byte> data(128_KiB, std::byte{0xAB});
    nfs::StableHow committed;
    uint64_t post_change = 0;
    EXPECT_EQ(co_await ds0.write(fh, 0, Payload::inline_bytes(data),
                                 nfs::StableHow::kUnstable, &committed,
                                 &post_change),
              Status::kOk);
    // Read logically through the MDS: stripe 0 == 0xAB, stripe 1 missing,
    // stripe 3 == 0xAB.
    Payload out;
    bool eof = false;
    EXPECT_EQ(co_await mds.read(fh, 0, 1, &out, &eof), Status::kOk);
    EXPECT_EQ(out.data()[0], std::byte{0xAB});
    EXPECT_EQ(co_await mds.read(fh, 3 * 64_KiB, 1, &out, &eof), Status::kOk);
    EXPECT_EQ(out.data()[0], std::byte{0xAB});
  }(r));
}

TEST(PvfsBackendProxy, StaleHandleRejected) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    PvfsBackend backend(*r.pvfs_client, r.registry);
    Payload out;
    bool eof = false;
    EXPECT_EQ(co_await backend.read(FileHandle{9999}, 0, 10, &out, &eof),
              Status::kStale);
    nfs::Fattr attr;
    EXPECT_EQ(co_await backend.getattr(FileHandle{9999}, &attr), Status::kStale);
  }(r));
}

}  // namespace
}  // namespace dpnfs::core
