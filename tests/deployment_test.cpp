// Integration tests across all five access architectures: the same
// application workload must produce identical file contents everywhere,
// and the data must physically land on the shared back end.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/deployment.hpp"
#include "util/bytes.hpp"

namespace dpnfs::core {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

ClusterConfig small_config(Architecture arch, uint32_t clients = 2) {
  ClusterConfig cfg;
  cfg.architecture = arch;
  cfg.storage_nodes = 4;  // must stay even for the 3-tier split
  cfg.clients = clients;
  cfg.stripe_unit = 256 * 1024;
  cfg.nfs_client.rsize = 256 * 1024;
  cfg.nfs_client.wsize = 256 * 1024;
  return cfg;
}

const Architecture kAll[] = {
    Architecture::kDirectPnfs, Architecture::kNativePvfs,
    Architecture::kPnfs2Tier, Architecture::kPnfs3Tier, Architecture::kPlainNfs,
};

class AllArchitectures : public ::testing::TestWithParam<Architecture> {};

INSTANTIATE_TEST_SUITE_P(
    Archs, AllArchitectures, ::testing::ValuesIn(kAll),
    [](const ::testing::TestParamInfo<Architecture>& info) {
      std::string name = architecture_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

void run(Deployment& d, Task<void> t) {
  d.simulation().spawn(std::move(t));
  d.simulation().run();
}

TEST_P(AllArchitectures, WriteReadBackRoundTrip) {
  Deployment d(small_config(GetParam()));
  bool done = false;
  run(d, [](Deployment& d, bool& done) -> Task<void> {
    co_await d.mount_all();
    auto& fs = d.client(0);
    auto file = co_await fs.open("/roundtrip", true);

    std::vector<std::byte> pattern(1000 * 1000);  // spans several stripes
    for (size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
    }
    co_await file->write(0, Payload::inline_bytes(pattern));
    co_await file->close();

    auto rd = co_await fs.open("/roundtrip", false);
    EXPECT_EQ(rd->size(), pattern.size());
    Payload p = co_await rd->read(100'000, 500'000);
    EXPECT_TRUE(p.is_inline());
    EXPECT_EQ(p.size(), 500'000u);
    bool match = p.is_inline();
    for (size_t i = 0; i < p.size() && match; ++i) {
      match = p.data()[i] == static_cast<std::byte>(((100'000 + i) * 37 + 11) & 0xFF);
    }
    EXPECT_TRUE(match) << "content mismatch";
    co_await rd->close();
    done = true;
  }(d, done));
  EXPECT_TRUE(done);
}

TEST_P(AllArchitectures, CrossClientVisibilityAfterClose) {
  Deployment d(small_config(GetParam()));
  bool done = false;
  run(d, [](Deployment& d, bool& done) -> Task<void> {
    co_await d.mount_all();
    auto w = co_await d.client(0).open("/shared", true);
    co_await w->write(0, Payload::from_string("written by client zero"));
    co_await w->close();

    auto r = co_await d.client(1).open("/shared", false);
    EXPECT_EQ(r->size(), 22u);
    Payload p = co_await r->read(0, 22);
    EXPECT_EQ(p, Payload::from_string("written by client zero"));
    co_await r->close();
    done = true;
  }(d, done));
  EXPECT_TRUE(done);
}

TEST_P(AllArchitectures, DataLandsOnSharedBackend) {
  Deployment d(small_config(GetParam()));
  run(d, [](Deployment& d) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/bulk", true);
    co_await f->write(0, Payload::virtual_bytes(8_MiB));
    co_await f->close();  // commit-on-close: data reaches the disks
  }(d));
  // All 8 MiB must have been written to the back-end disks, regardless of
  // the access path.
  EXPECT_GE(d.disk_write_bytes(), 8_MiB);
  // And spread across more than one storage node (striping), for all but
  // plain NFS (which also stripes, through its PVFS client).
  uint64_t nodes_with_data = 0;
  for (auto* store : d.stores()) {
    if (store->stats().disk_write_bytes > 0) ++nodes_with_data;
  }
  EXPECT_GT(nodes_with_data, 1u);
}

TEST_P(AllArchitectures, NamespaceOps) {
  Deployment d(small_config(GetParam()));
  bool done = false;
  run(d, [](Deployment& d, bool& done) -> Task<void> {
    co_await d.mount_all();
    auto& fs = d.client(0);
    co_await fs.mkdir("/dir");
    auto f = co_await fs.open("/dir/a", true);
    co_await f->close();
    auto names = co_await fs.list("/dir");
    EXPECT_EQ(names, std::vector<std::string>{"a"});
    co_await fs.rename("/dir/a", "/dir/b");
    names = co_await fs.list("/dir");
    EXPECT_EQ(names, std::vector<std::string>{"b"});
    EXPECT_EQ(co_await fs.stat_size("/dir/b"), 0u);
    co_await fs.remove("/dir/b");
    names = co_await fs.list("/dir");
    EXPECT_TRUE(names.empty());
    done = true;
  }(d, done));
  EXPECT_TRUE(done);
}

TEST_P(AllArchitectures, ConcurrentClientsDisjointFiles) {
  Deployment d(small_config(GetParam(), /*clients=*/4));
  run(d, [](Deployment& d) -> Task<void> {
    co_await d.mount_all();
    sim::WaitGroup wg(d.simulation());
    for (size_t i = 0; i < d.client_count(); ++i) {
      wg.spawn([](Deployment& d, size_t i) -> Task<void> {
        auto& fs = d.client(i);
        const std::string path = "/file" + std::to_string(i);
        auto f = co_await fs.open(path, true);
        co_await f->write(0, Payload::virtual_bytes(4_MiB));
        co_await f->close();
        auto r = co_await fs.open(path, false);
        EXPECT_EQ(r->size(), 4_MiB);
        co_await r->close();
      }(d, i));
    }
    co_await wg.wait();
  }(d));
  EXPECT_GE(d.disk_write_bytes(), 16_MiB);
}

TEST_P(AllArchitectures, ConcurrentClientsSingleFileDisjointRegions) {
  Deployment d(small_config(GetParam(), /*clients=*/4));
  run(d, [](Deployment& d) -> Task<void> {
    co_await d.mount_all();
    {
      auto f = co_await d.client(0).open("/single", true);
      co_await f->close();
    }
    sim::WaitGroup wg(d.simulation());
    for (size_t i = 0; i < d.client_count(); ++i) {
      wg.spawn([](Deployment& d, size_t i) -> Task<void> {
        auto f = co_await d.client(i).open("/single", false);
        co_await f->write(i * 2_MiB, Payload::virtual_bytes(2_MiB));
        co_await f->close();
      }(d, i));
    }
    co_await wg.wait();
    const uint64_t size = co_await d.client(0).stat_size("/single");
    EXPECT_EQ(size, 8_MiB);
  }(d));
}

TEST_P(AllArchitectures, DestroyReleasesEveryCoroutineFrame) {
  const uint64_t before = sim::FramePool::live();
  {
    Deployment d(small_config(GetParam()));
    run(d, [](Deployment& d) -> Task<void> {
      co_await d.mount_all();
      auto f = co_await d.client(0).open("/done", true);
      co_await f->write(0, Payload::virtual_bytes(2_MiB));
      co_await f->close();
    }(d));
  }
  EXPECT_EQ(sim::FramePool::live(), before);

  // Torn down mid-run: I/O in flight and the periodic sampler still armed.
  {
    Deployment d(small_config(GetParam()));
    d.start_sampling();
    d.simulation().spawn([](Deployment& d) -> Task<void> {
      co_await d.mount_all();
      auto f = co_await d.client(1).open("/busy", true);
      co_await f->write(0, Payload::virtual_bytes(64_MiB));
      co_await f->close();
    }(d));
    d.simulation().run_until(sim::ms(50));
    EXPECT_GT(sim::FramePool::live(), before);
  }
  EXPECT_EQ(sim::FramePool::live(), before);
}

TEST(DeploymentShape, DirectPnfsGrantsLayouts) {
  Deployment d(small_config(Architecture::kDirectPnfs));
  run(d, [](Deployment& d) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/x", true);
    co_await f->write(0, Payload::virtual_bytes(1_MiB));
    co_await f->close();
  }(d));
  ASSERT_NE(d.translator(), nullptr);
  EXPECT_GT(d.translator()->layouts_granted(), 0u);
}

TEST(DeploymentShape, DirectPnfsWritesAreLocalToStorageNodes) {
  // With exact layouts, the only data crossing the network is
  // client -> data server; no inter-server transfers.  We can observe that
  // indirectly: bytes on disk == bytes written, and each storage node holds
  // exactly its striped share.
  ClusterConfig cfg = small_config(Architecture::kDirectPnfs, 1);
  Deployment d(cfg);
  run(d, [](Deployment& d) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/even", true);
    co_await f->write(0, Payload::virtual_bytes(8_MiB));
    co_await f->close();
  }(d));
  for (auto* store : d.stores()) {
    EXPECT_EQ(store->stats().disk_write_bytes, 2_MiB);  // 8 MiB over 4 nodes
  }
}

TEST(DeploymentShape, TwoTierMovesDataBetweenServers) {
  // In 2-tier, a data server receiving a stripe usually forwards it to the
  // PVFS storage node that actually owns it.  Disk bytes still total the
  // write, but simulated completion takes longer than Direct-pNFS for the
  // same work on identical hardware.
  auto elapsed = [](Architecture arch) {
    Deployment d(small_config(arch, 2));
    run(d, [](Deployment& d) -> Task<void> {
      co_await d.mount_all();
      sim::WaitGroup wg(d.simulation());
      for (size_t i = 0; i < d.client_count(); ++i) {
        wg.spawn([](Deployment& d, size_t i) -> Task<void> {
          auto f = co_await d.client(i).open("/f" + std::to_string(i), true);
          for (int k = 0; k < 16; ++k) {
            co_await f->write(static_cast<uint64_t>(k) * 4_MiB,
                              Payload::virtual_bytes(4_MiB));
          }
          co_await f->close();
        }(d, i));
      }
      co_await wg.wait();
    }(d));
    return d.simulation().now();
  };
  EXPECT_GT(elapsed(Architecture::kPnfs2Tier),
            elapsed(Architecture::kDirectPnfs));
}

/// The construction error for `cfg`, or "" when it builds.
std::string construction_error(const ClusterConfig& cfg) {
  try {
    Deployment d(cfg);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(DeploymentShape, RejectsErasureCodingWiderThanActiveStorage) {
  // The default EC(4+2) needs six active storage nodes.
  ClusterConfig cfg = small_config(Architecture::kDirectPnfs);
  cfg.distribution = pvfs::DistKind::kErasure;
  EXPECT_EQ(construction_error(cfg),
            "erasure coding needs ec_k + ec_m = 6 storage nodes, but only 4 "
            "are active (4 back-end nodes, 0 spares)");
  // Spares do not hold new distributions.
  cfg.storage_nodes = 6;
  cfg.spare_nodes = 1;
  EXPECT_EQ(construction_error(cfg),
            "erasure coding needs ec_k + ec_m = 6 storage nodes, but only 5 "
            "are active (6 back-end nodes, 1 spares)");
  // 3-tier holds its disks on half of its machines.
  cfg.architecture = Architecture::kPnfs3Tier;
  cfg.storage_nodes = 8;
  cfg.spare_nodes = 0;
  EXPECT_EQ(construction_error(cfg),
            "erasure coding needs ec_k + ec_m = 6 storage nodes, but only 4 "
            "are active (4 back-end nodes, 0 spares)");
  cfg.architecture = Architecture::kDirectPnfs;
  cfg.storage_nodes = 6;
  EXPECT_EQ(construction_error(cfg), "");
}

}  // namespace
}  // namespace dpnfs::core
