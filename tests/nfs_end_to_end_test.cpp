// End-to-end NFSv4.1 tests: a client and servers connected only through the
// RPC fabric (real XDR on the wire).  Covers the plain single-server path
// and the pNFS file-layout path with striped data servers.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "lfs/object_store.hpp"
#include "nfs/client.hpp"
#include "nfs/compound_reply.hpp"
#include "nfs/local_backend.hpp"
#include "nfs/object_backend.hpp"
#include "nfs/server.hpp"
#include "rpc/fabric.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"

namespace dpnfs::nfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

sim::NodeParams storage_node(const std::string& name) {
  return sim::NodeParams{
      .name = name,
      .nic = sim::NicParams{.bytes_per_sec = 117e6, .latency = sim::us(60)},
      .disk = sim::DiskParams{.bytes_per_sec = 60e6},
      .cpu = sim::CpuParams{.cores = 2}};
}

sim::NodeParams client_node(const std::string& name) {
  return sim::NodeParams{
      .name = name,
      .nic = sim::NicParams{.bytes_per_sec = 117e6, .latency = sim::us(60)},
      .disk = std::nullopt,
      .cpu = sim::CpuParams{.cores = 2}};
}

/// Single-server fixture (plain NFSv4: no layouts).
struct SingleServer {
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};
  sim::Node& server_node = net.add_node(storage_node("server"));
  sim::Node& cl_node = net.add_node(client_node("client"));
  lfs::ObjectStore store{server_node};
  LocalBackend backend{store, fabric.tracer(), fabric.tenants()};
  NfsServer server{fabric, server_node, rpc::kNfsPort, backend};
  std::unique_ptr<NfsClient> client;

  explicit SingleServer(ClientConfig cfg = {}) {
    cfg.pnfs_enabled = false;
    server.start();
    client = std::make_unique<NfsClient>(fabric, cl_node, server.address(),
                                         "tester@SIM", cfg);
  }

  void run(Task<void> t) {
    sim.spawn(std::move(t));
    sim.run();
  }
};

TEST(NfsEndToEnd, MountAndStatRoot) {
  SingleServer f;
  bool ok = false;
  f.run([](SingleServer& f, bool& ok) -> Task<void> {
    co_await f.client->mount();
    const Fattr root = co_await f.client->stat("/");
    EXPECT_EQ(root.type, FileType::kDirectory);
    ok = true;
  }(f, ok));
  EXPECT_TRUE(ok);
}

TEST(NfsEndToEnd, CreateWriteReadBack) {
  SingleServer f;
  f.run([](SingleServer& f) -> Task<void> {
    co_await f.client->mount();
    co_await f.client->mkdir("/data");
    auto file = co_await f.client->open("/data/hello.txt", /*create=*/true);
    co_await f.client->write(file, 0, Payload::from_string("hello nfs"));
    EXPECT_EQ(f.client->file_size(file), 9u);
    Payload p = co_await f.client->read(file, 0, 9);
    EXPECT_EQ(p, Payload::from_string("hello nfs"));
    co_await f.client->close(file);
  }(f));
  // The server must actually hold the data after close (close commits).
  EXPECT_EQ(f.store.dirty_bytes(), 0u);
}

TEST(NfsEndToEnd, DataSurvivesCacheDropReopen) {
  SingleServer f;
  f.run([](SingleServer& f) -> Task<void> {
    co_await f.client->mount();
    auto file = co_await f.client->open("/f", true);
    co_await f.client->write(file, 100, Payload::from_string("XYZ"));
    co_await f.client->close(file);

    auto again = co_await f.client->open("/f", false);
    EXPECT_EQ(f.client->file_size(again), 103u);
    Payload p = co_await f.client->read(again, 100, 3);
    EXPECT_EQ(p, Payload::from_string("XYZ"));
    // Hole before the data reads as zeros.
    Payload hole = co_await f.client->read(again, 0, 4);
    EXPECT_EQ(hole.size(), 4u);
    EXPECT_EQ(hole.data()[0], std::byte{0});
    co_await f.client->close(again);
  }(f));
}

TEST(NfsEndToEnd, NamespaceOperations) {
  SingleServer f;
  f.run([](SingleServer& f) -> Task<void> {
    co_await f.client->mount();
    co_await f.client->mkdir("/a");
    co_await f.client->mkdir("/a/b");
    auto file = co_await f.client->open("/a/b/f1", true);
    co_await f.client->close(file);

    auto entries = co_await f.client->readdir("/a/b");
    EXPECT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].name, "f1");

    co_await f.client->rename("/a/b/f1", "/a/f1");
    entries = co_await f.client->readdir("/a");
    EXPECT_EQ(entries.size(), 2u);  // b, f1

    co_await f.client->remove("/a/f1");
    bool noent = false;
    try {
      (void)co_await f.client->stat("/a/f1");
    } catch (const NfsError& e) {
      noent = (e.status() == Status::kNoEnt);
    }
    EXPECT_TRUE(noent);
  }(f));
}

TEST(NfsEndToEnd, OpenWithoutCreateFailsOnMissing) {
  SingleServer f;
  f.run([](SingleServer& f) -> Task<void> {
    co_await f.client->mount();
    bool noent = false;
    try {
      (void)co_await f.client->open("/missing", false);
    } catch (const NfsError& e) {
      noent = (e.status() == Status::kNoEnt);
    }
    EXPECT_TRUE(noent);
  }(f));
}

TEST(NfsEndToEnd, RemoveNonEmptyDirFails) {
  SingleServer f;
  f.run([](SingleServer& f) -> Task<void> {
    co_await f.client->mount();
    co_await f.client->mkdir("/d");
    auto file = co_await f.client->open("/d/x", true);
    co_await f.client->close(file);
    bool notempty = false;
    try {
      co_await f.client->remove("/d");
    } catch (const NfsError& e) {
      notempty = (e.status() == Status::kNotEmpty);
    }
    EXPECT_TRUE(notempty);
  }(f));
}

TEST(NfsEndToEnd, WriteBackCoalescesSmallWrites) {
  // 8 KiB application writes must reach the wire as wsize-sized WRITEs.
  SingleServer f;
  f.run([](SingleServer& f) -> Task<void> {
    co_await f.client->mount();
    auto file = co_await f.client->open("/big", true);
    const uint64_t total = 8_MiB;
    for (uint64_t off = 0; off < total; off += 8_KiB) {
      co_await f.client->write(file, off, Payload::virtual_bytes(8_KiB));
    }
    co_await f.client->close(file);
  }(f));
  // 8 MiB at wsize=2 MiB: exactly 4 WRITE rpcs (plus metadata rpcs).
  // With per-8KiB WRITEs it would be 1024.
  EXPECT_LT(f.client->stats().rpcs, 30u);
  EXPECT_EQ(f.client->stats().wire_write_bytes, 8_MiB);
}

TEST(NfsEndToEnd, UncachedModeWritesThrough) {
  ClientConfig cfg;
  cfg.data_cache = false;
  SingleServer f(cfg);
  f.run([](SingleServer& f) -> Task<void> {
    co_await f.client->mount();
    auto file = co_await f.client->open("/raw", true);
    for (int i = 0; i < 16; ++i) {
      co_await f.client->write(file, static_cast<uint64_t>(i) * 8_KiB,
                               Payload::virtual_bytes(8_KiB));
    }
    co_await f.client->close(file);
  }(f));
  // Every application write hits the wire individually.
  EXPECT_GE(f.client->stats().rpcs, 16u);
}

TEST(NfsEndToEnd, SequentialReadTriggersReadahead) {
  SingleServer f;
  f.run([](SingleServer& f) -> Task<void> {
    co_await f.client->mount();
    auto file = co_await f.client->open("/seq", true);
    co_await f.client->write(file, 0, Payload::virtual_bytes(32_MiB));
    co_await f.client->fsync(file);
    co_await f.client->close(file);
    // The write left the whole file cached; readahead only counts *real*
    // fetches, so start the read phase cold.
    f.client->drop_caches();

    auto rd = co_await f.client->open("/seq", false);
    for (uint64_t off = 0; off < 32_MiB; off += 8_KiB) {
      Payload p = co_await f.client->read(rd, off, 8_KiB);
      EXPECT_EQ(p.size(), 8_KiB);
    }
    co_await f.client->close(rd);
  }(f));
  EXPECT_GT(f.client->stats().readahead_fetches, 0u);
  // Cache hits dominate: 8 KiB reads served from 2 MiB fetches.
  EXPECT_GT(f.client->stats().cache_hit_bytes, 24_MiB);
}

TEST(NfsEndToEnd, FsyncMakesDataStable) {
  SingleServer f;
  sim::Time write_done = 0, fsync_done = 0;
  f.run([](SingleServer& f, sim::Time& wd, sim::Time& fd) -> Task<void> {
    co_await f.client->mount();
    auto file = co_await f.client->open("/stable", true);
    co_await f.client->write(file, 0, Payload::virtual_bytes(16_MiB));
    wd = f.sim.now();
    co_await f.client->fsync(file);
    fd = f.sim.now();
    EXPECT_EQ(f.store.dirty_bytes(), 0u);
    co_await f.client->close(file);
  }(f, write_done, fsync_done));
  EXPECT_GT(fsync_done, write_done);
}

TEST(NfsEndToEnd, RestartDropsUnflushedDataButKeepsNamespace) {
  // What NfsServer hands its backend on a detected restart: the store's
  // write-behind data was the dead daemon's memory, while the inode table
  // stands in for the journaled on-disk file system and survives.
  SingleServer f;
  bool checked = false;
  f.run([](SingleServer& f, bool& checked) -> Task<void> {
    FileHandle fh;
    Fattr attr;
    EXPECT_EQ(co_await f.backend.open(f.backend.root_fh(), "f", true, &fh,
                                      &attr),
              Status::kOk);
    StableHow committed = StableHow::kFileSync;
    uint64_t change = 0;
    EXPECT_EQ(co_await f.backend.write(fh, 0, Payload::virtual_bytes(4096),
                                       StableHow::kUnstable, &committed,
                                       &change),
              Status::kOk);
    EXPECT_EQ(f.store.dirty_bytes(), 4096u);
    f.backend.on_server_restart();
    EXPECT_EQ(f.store.dirty_bytes(), 0u);
    FileHandle found;
    EXPECT_EQ(co_await f.backend.lookup(f.backend.root_fh(), "f", &found),
              Status::kOk);
    EXPECT_EQ(found, fh);
    checked = true;
  }(f, checked));
  EXPECT_TRUE(checked);
}

// ---------------------------------------------------------------------------
// pNFS with striped data servers
// ---------------------------------------------------------------------------

/// Layout source that stripes every file round-robin across a fixed set of
/// data servers; per-device filehandles name stripe objects (fileid-keyed).
class TestLayoutSource final : public LayoutSource {
 public:
  TestLayoutSource(std::vector<DeviceEntry> devices, uint64_t stripe_unit,
                   LocalBackend* mds_backend)
      : devices_(std::move(devices)),
        stripe_unit_(stripe_unit),
        mds_backend_(mds_backend) {}

  Task<Status> get_device_list(std::vector<DeviceEntry>* out) override {
    *out = devices_;
    co_return Status::kOk;
  }

  Task<Status> layout_get(FileHandle fh, LayoutIoMode, FileLayout* out) override {
    out->aggregation = AggregationType::kRoundRobin;
    out->stripe_unit = stripe_unit_;
    for (const auto& d : devices_) {
      out->devices.push_back(d.device);
      // Stripe-object id: (fileid, device) -> unique object id.
      out->fhs.push_back(FileHandle{fh.id * 1000 + d.device.id});
    }
    co_return Status::kOk;
  }

  Task<Status> layout_commit(FileHandle fh, uint64_t new_size, bool changed,
                             uint64_t* post_change) override {
    *post_change = 0;
    if (changed) {
      committed_sizes_[fh.id] = new_size;
      co_await mds_backend_->set_size(fh, new_size);
    }
    co_return Status::kOk;
  }

  Task<Status> layout_return(FileHandle) override { co_return Status::kOk; }

  std::map<uint64_t, uint64_t> committed_sizes_;

 private:
  std::vector<DeviceEntry> devices_;
  uint64_t stripe_unit_;
  LocalBackend* mds_backend_;
};

struct PnfsCluster {
  static constexpr int kDataServers = 3;
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};

  sim::Node& mds_node = net.add_node(storage_node("mds"));
  lfs::ObjectStore mds_store{mds_node};
  LocalBackend mds_backend{mds_store, fabric.tracer(), fabric.tenants()};

  std::vector<std::unique_ptr<lfs::ObjectStore>> ds_stores;
  std::vector<std::unique_ptr<ObjectBackend>> ds_backends;
  std::vector<std::unique_ptr<NfsServer>> ds_servers;
  std::unique_ptr<TestLayoutSource> layouts;
  std::unique_ptr<NfsServer> mds;
  sim::Node& cl_node = net.add_node(client_node("client"));
  std::unique_ptr<NfsClient> client;

  PnfsCluster() {
    std::vector<DeviceEntry> devices;
    for (int i = 0; i < kDataServers; ++i) {
      auto& node = net.add_node(storage_node("ds" + std::to_string(i)));
      ds_stores.push_back(std::make_unique<lfs::ObjectStore>(node));
      ds_backends.push_back(std::make_unique<ObjectBackend>(
          *ds_stores.back(), fabric.tracer(), fabric.tenants()));
      ds_servers.push_back(NfsServer::data_server(fabric, node, rpc::kNfsPort,
                                                  *ds_backends.back()));
      ds_servers.back()->start();
      devices.push_back(DeviceEntry{DeviceId{static_cast<uint32_t>(i)},
                                    node.id(), rpc::kNfsPort});
    }
    layouts = std::make_unique<TestLayoutSource>(devices, 1_MiB, &mds_backend);
    mds = std::make_unique<NfsServer>(fabric, mds_node, rpc::kNfsPort,
                                      mds_backend, layouts.get());
    mds->start();
    client = std::make_unique<NfsClient>(fabric, cl_node, mds->address(),
                                         "tester@SIM");
  }

  void run(Task<void> t) {
    sim.spawn(std::move(t));
    sim.run();
  }
};

TEST(PnfsEndToEnd, LayoutGrantedAtOpen) {
  PnfsCluster f;
  f.run([](PnfsCluster& f) -> Task<void> {
    co_await f.client->mount();
    auto file = co_await f.client->open("/striped", true);
    EXPECT_TRUE(f.client->file_has_layout(file));
    co_await f.client->close(file);
  }(f));
}

TEST(PnfsEndToEnd, WritesLandStripedOnDataServers) {
  PnfsCluster f;
  f.run([](PnfsCluster& f) -> Task<void> {
    co_await f.client->mount();
    auto file = co_await f.client->open("/striped", true);
    co_await f.client->write(file, 0, Payload::virtual_bytes(6_MiB));
    co_await f.client->close(file);
  }(f));
  // 6 MiB over 3 data servers, 1 MiB stripes: 2 MiB per DS; the MDS holds
  // no file data at all.
  for (const auto& store : f.ds_stores) {
    uint64_t total = 0;
    for (uint64_t oid = 0; oid < 100000; ++oid) {
      if (store->exists(oid)) total += store->size(oid);
    }
    EXPECT_EQ(total, 2_MiB);
  }
  EXPECT_EQ(f.client->stats().wire_write_bytes, 6_MiB);
}

TEST(PnfsEndToEnd, StripedDataReadsBackCorrectly) {
  PnfsCluster f;
  f.run([](PnfsCluster& f) -> Task<void> {
    co_await f.client->mount();
    auto file = co_await f.client->open("/data", true);
    // Real content spanning several stripes (3 MiB pattern).
    std::vector<std::byte> pattern(3_MiB);
    for (size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((i * 131) & 0xFF);
    }
    co_await f.client->write(file, 0, Payload::inline_bytes(pattern));
    co_await f.client->close(file);

    auto rd = co_await f.client->open("/data", false);
    Payload p = co_await f.client->read(rd, 512 * 1024, 2_MiB);
    EXPECT_TRUE(p.is_inline());
    EXPECT_EQ(p.size(), 2_MiB);
    for (size_t i = 0; i < p.size(); ++i) {
      const size_t abs = 512 * 1024 + i;
      if (p.data()[i] != static_cast<std::byte>((abs * 131) & 0xFF)) {
        ADD_FAILURE() << "content mismatch at " << abs;
        break;
      }
    }
    co_await f.client->close(rd);
  }(f));
}

TEST(PnfsEndToEnd, LayoutCommitPropagatesSize) {
  PnfsCluster f;
  f.run([](PnfsCluster& f) -> Task<void> {
    co_await f.client->mount();
    auto file = co_await f.client->open("/sz", true);
    co_await f.client->write(file, 0, Payload::virtual_bytes(5_MiB));
    co_await f.client->fsync(file);
    co_await f.client->close(file);
  }(f));
  // The MDS learned the new size via LAYOUTCOMMIT (it saw no WRITEs).
  ASSERT_EQ(f.layouts->committed_sizes_.size(), 1u);
  EXPECT_EQ(f.layouts->committed_sizes_.begin()->second, 5_MiB);
}

TEST(PnfsEndToEnd, DataServerRejectsNamespaceOps) {
  PnfsCluster f;
  // One namespace op per raw COMPOUND, straight to a data server: PUTROOTFH
  // alone, every other op after a PUTFH (which a data server accepts).
  using Cases = std::vector<std::pair<OpCode, CompoundBuilder>>;
  Cases cases;
  cases.emplace_back(OpCode::kPutRootFh, CompoundBuilder{});
  cases.back().second.add(OpCode::kPutRootFh);
  const auto after_putfh = [&cases](OpCode op, const auto&... args) {
    CompoundBuilder b;
    b.add(OpCode::kPutFh, PutFhArgs{FileHandle{1}});
    b.add(op, args...);
    cases.emplace_back(op, std::move(b));
  };
  after_putfh(OpCode::kLookup, LookupArgs{"x"});
  after_putfh(OpCode::kGetattr);
  after_putfh(OpCode::kSetattr, SetattrArgs{true, 0});
  after_putfh(OpCode::kOpen, OpenArgs{"x", true});
  after_putfh(OpCode::kCreate, CreateArgs{"d"});
  after_putfh(OpCode::kRemove, RemoveArgs{"x"});
  after_putfh(OpCode::kRename, RenameArgs{"x", "y"});
  after_putfh(OpCode::kReaddir);
  after_putfh(OpCode::kLayoutGet, LayoutGetArgs{});

  size_t checked = 0;
  f.run([](PnfsCluster& f, Cases& cases, size_t& checked) -> Task<void> {
    rpc::RpcClient raw(f.fabric, f.cl_node, "tester@SIM");
    for (auto& [op, b] : cases) {
      CompoundReply r(co_await raw.call(f.ds_servers[0]->address(),
                                        rpc::Program::kNfs, 4,
                                        kProcCompound, std::move(b).finish()));
      if (op != OpCode::kPutRootFh) {
        EXPECT_EQ(r.try_next(OpCode::kPutFh), Status::kOk);
      }
      EXPECT_EQ(r.try_next(op), Status::kNotSupp) << opcode_name(op);
      EXPECT_FALSE(r.has_more());
      ++checked;
    }
  }(f, cases, checked));
  EXPECT_EQ(checked, 10u);
}

}  // namespace
}  // namespace dpnfs::nfs
