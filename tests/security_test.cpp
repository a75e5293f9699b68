// Access-transparency / security tests: one credential covers the control
// path (MDS) and the data path (data servers) because both speak NFSv4 —
// the property Direct-pNFS inherits and FS-specific storage protocols lose.
#include <gtest/gtest.h>

#include <memory>

#include "lfs/object_store.hpp"
#include "nfs/client.hpp"
#include "nfs/local_backend.hpp"
#include "nfs/server.hpp"
#include "sim/network.hpp"

namespace dpnfs::nfs {
namespace {

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
  std::unique_ptr<NfsServer> server;

  explicit Rig(const std::string& required_suffix) {
    ServerConfig cfg;
    cfg.required_principal_suffix = required_suffix;
    server = std::make_unique<NfsServer>(fabric, server_node, rpc::kNfsPort,
                                         backend, nullptr, cfg);
    server->start();
  }

  void run(Task<void> t) {
    sim.spawn(std::move(t));
    sim.run();
  }
};

TEST(Security, AuthorizedPrincipalWorks) {
  Rig r("@PHYSICS.EDU");
  r.run([](Rig& r) -> Task<void> {
    NfsClient alice(r.fabric, r.client_node, r.server->address(),
                    "alice@PHYSICS.EDU", ClientConfig{.pnfs_enabled = false});
    co_await alice.mount();
    auto f = co_await alice.open("/data", true);
    co_await alice.write(f, 0, Payload::from_string("restricted"));
    co_await alice.close(f);
  }(r));
}

TEST(Security, UnauthorizedPrincipalRejectedEverywhere) {
  Rig r("@PHYSICS.EDU");
  r.run([](Rig& r) -> Task<void> {
    NfsClient mallory(r.fabric, r.client_node, r.server->address(),
                      "mallory@EVIL.ORG", ClientConfig{.pnfs_enabled = false});
    bool denied = false;
    try {
      co_await mallory.mount();  // even EXCHANGE_ID is refused
    } catch (const NfsError& e) {
      denied = (e.status() == Status::kPerm);
    }
    EXPECT_TRUE(denied);
  }(r));
}

TEST(Security, SuffixMatchingIsExact) {
  Rig r("@PHYSICS.EDU");
  r.run([](Rig& r) -> Task<void> {
    // A principal that merely *contains* the suffix elsewhere must fail.
    NfsClient tricky(r.fabric, r.client_node, r.server->address(),
                     "x@PHYSICS.EDU.evil.org",
                     ClientConfig{.pnfs_enabled = false});
    bool denied = false;
    try {
      co_await tricky.mount();
    } catch (const NfsError& e) {
      denied = (e.status() == Status::kPerm);
    }
    EXPECT_TRUE(denied);
  }(r));
}

TEST(Security, OpenPolicyAdmitsAnyone) {
  Rig r("");  // no requirement
  r.run([](Rig& r) -> Task<void> {
    NfsClient anyone(r.fabric, r.client_node, r.server->address(),
                     "whoever@ANYWHERE", ClientConfig{.pnfs_enabled = false});
    co_await anyone.mount();
    const Fattr root = co_await anyone.stat("/");
    EXPECT_EQ(root.type, FileType::kDirectory);
  }(r));
}

}  // namespace
}  // namespace dpnfs::nfs
