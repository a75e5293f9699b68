// Failure-injection tests: servers that error, vanished files, dead
// sessions, and the error paths through the full client stack.
#include <gtest/gtest.h>

#include <memory>

#include "core/deployment.hpp"
#include "lfs/object_store.hpp"
#include "nfs/client.hpp"
#include "nfs/local_backend.hpp"
#include "nfs/server.hpp"
#include "sim/network.hpp"
#include "support/faulty_backend.hpp"
#include "util/bytes.hpp"
#include "workload/ior.hpp"
#include "workload/runner.hpp"

namespace dpnfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;
using testsupport::FaultyBackend;

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
  nfs::LocalBackend inner{store, fabric.tracer(), fabric.tenants()};
  FaultyBackend backend{inner};
  nfs::NfsServer server{fabric, server_node, rpc::kNfsPort, backend};
  std::unique_ptr<nfs::NfsClient> client;

  Rig() {
    server.start();
    client = std::make_unique<nfs::NfsClient>(
        fabric, client_node, server.address(), "t@SIM",
        nfs::ClientConfig{.pnfs_enabled = false});
  }
  void run(Task<void> t) {
    sim.spawn(std::move(t));
    sim.run();
  }
};

TEST(FailureInjection, ReadErrorSurfacesAsNfsError) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    co_await r.client->write(f, 0, Payload::virtual_bytes(8_MiB));
    co_await r.client->fsync(f);
    r.client->drop_caches();
    r.backend.fail(FaultyBackend::Op::kRead, nfs::Status::kIo);
    bool threw = false;
    try {
      (void)co_await r.client->read(f, 0, 1_MiB);
    } catch (const nfs::NfsError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    EXPECT_GT(r.backend.injected(), 0u);
    // Recovery: clearing the fault makes reads work again.
    r.backend.clear(FaultyBackend::Op::kRead);
    Payload p = co_await r.client->read(f, 0, 1_MiB);
    EXPECT_EQ(p.size(), 1_MiB);
    co_await r.client->close(f);
  }(r));
}

TEST(FailureInjection, WriteErrorSurfacesOnFlush) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    r.backend.fail(FaultyBackend::Op::kWrite, nfs::Status::kNoSpc);
    // The cached write itself succeeds; the error appears at fsync.
    co_await r.client->write(f, 0, Payload::virtual_bytes(64_KiB));
    bool threw = false;
    try {
      co_await r.client->fsync(f);
    } catch (const nfs::NfsError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(r));
}

TEST(FailureInjection, CommitErrorSurfacesOnFsync) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    co_await r.client->write(f, 0, Payload::virtual_bytes(64_KiB));
    r.backend.fail(FaultyBackend::Op::kCommit, nfs::Status::kIo);
    bool threw = false;
    try {
      co_await r.client->fsync(f);
    } catch (const nfs::NfsError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(r));
}

TEST(FailureInjection, WorkloadRunnerPropagatesClientFailure) {
  // A workload that always throws must fail run_workload, not hang or abort.
  class Exploding final : public workload::Workload {
   public:
    std::string name() const override { return "exploding"; }
    Task<void> client_main(core::Deployment&, size_t) override {
      throw std::runtime_error("kaboom");
      co_return;
    }
  };
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  core::Deployment d(cfg);
  Exploding w;
  EXPECT_THROW((void)workload::run_workload(d, w), std::runtime_error);
}

TEST(FailureInjection, RemovedFileYieldsNoEntOnNextOpen) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  core::Deployment d(cfg);
  bool noent = false;
  d.simulation().spawn([](core::Deployment& d, bool& noent) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/victim", true);
    co_await f->write(0, Payload::virtual_bytes(1_MiB));
    co_await f->close();
    co_await d.client(1).remove("/victim");
    try {
      (void)co_await d.client(0).open("/victim", false);
    } catch (const std::exception&) {
      noent = true;
    }
  }(d, noent));
  d.simulation().run();
  EXPECT_TRUE(noent);
}

TEST(FailureInjection, StoppedServerDrainsWithoutServingNewCalls) {
  // After stop(), queued work is drained but the RPC channel is closed;
  // this must not crash or leak coroutines that the sanitizer of choice
  // would flag.
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    co_await r.client->write(f, 0, Payload::virtual_bytes(1_MiB));
    co_await r.client->close(f);
  }(r));
  r.server.stop();
  r.sim.run();  // drain
}

}  // namespace
}  // namespace dpnfs
