// End-to-end failure recovery under scripted fault injection (part of the
// `faults` ctest label).  Scenarios: an NFS data-server daemon crashing
// mid-write (the client must finish via transport retries, same-DS slice
// retries, layout re-fetch, and MDS fallback — with byte-identical data),
// RPC deadlines that expire instead of hanging, retries appearing as child
// spans of one trace, whole-node crash + revive, a layout recall racing
// in-flight recovery, a lossy and slow storage-node uplink under a write
// and fsync, and disk faults surfacing as I/O errors.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "core/deployment.hpp"
#include "lfs/object_store.hpp"
#include "nfs/client.hpp"
#include "nfs/local_backend.hpp"
#include "nfs/server.hpp"
#include "rpc/fabric.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"
#include "util/obs.hpp"

namespace dpnfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

/// Deterministic content for [offset, offset+length): every byte is a
/// function of its absolute file offset, so reassembled reads are checkable
/// regardless of which path (DS or MDS) served them.
Payload pattern_payload(uint64_t offset, uint64_t length) {
  std::vector<std::byte> v(length);
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t o = offset + i;
    v[i] = static_cast<std::byte>((o * 131 + (o >> 12) * 7 + 13) & 0xFF);
  }
  return Payload::inline_bytes(std::move(v));
}

// ---------------------------------------------------------------------------
// DS daemon crash mid-write on Direct-pNFS -> MDS fallback, correct data
// ---------------------------------------------------------------------------

struct RecoveryOutcome {
  sim::Time finished = 0;
  nfs::ClientStats writer{};
  bool data_ok = false;
  bool export_has_recovery = false;
};

/// One storage node's NFS daemon (port 2049) crashes at kCrashAt — after the
/// first half of the file is written — while the PVFS I/O daemon on the same
/// node keeps serving.  The write must complete through the MDS and the file
/// must read back byte-identical (the MDS path reaches the same stripe
/// objects through the parallel FS).
RecoveryOutcome run_ds_crash_scenario() {
  constexpr sim::Time kCrashAt = sim::sec(1);
  constexpr uint64_t kHalf = 8_MiB;

  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  cfg.nfs_client.ds_timeout = sim::ms(20);
  cfg.nfs_client.ds_rpc_retries = 1;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::sec(60);
  // Storage nodes get ids 0..3; kill the NFS DS daemon on storage1 only.
  cfg.faults.crash_service(1, rpc::kNfsPort, kCrashAt);

  core::Deployment d(cfg);
  RecoveryOutcome out;
  d.simulation().spawn([](core::Deployment& d, RecoveryOutcome& out,
                          sim::Time crash_at, uint64_t half) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/f", true);
    co_await f->write(0, pattern_payload(0, half));
    co_await f->fsync();

    // Second half lands after the scripted crash.
    auto& sim = d.simulation();
    if (sim.now() <= crash_at) co_await sim.delay(crash_at + sim::ms(1) - sim.now());
    co_await f->write(half, pattern_payload(half, half));
    co_await f->fsync();
    co_await f->close();

    // Read back through the second client: its DS-bound READs recover too.
    auto g = co_await d.client(1).open_read("/f");
    Payload back = co_await g->read(0, 2 * half);
    Payload want = pattern_payload(0, half);
    want.append(pattern_payload(half, half));
    out.data_ok = back == want;
    co_await g->close();
    out.finished = sim.now();
  }(d, out, kCrashAt, kHalf));
  d.simulation().run();

  out.writer =
      dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native().stats();
  out.export_has_recovery =
      d.observer().metrics_json().find("client.recovery") != std::string::npos;
  return out;
}

TEST(FaultRecovery, DsCrashMidWriteRecoversViaMdsFallback) {
  const RecoveryOutcome out = run_ds_crash_scenario();
  EXPECT_TRUE(out.data_ok);
  EXPECT_GT(out.finished, sim::sec(1));
  EXPECT_GT(out.writer.recovery_retries, 0u);
  EXPECT_GT(out.writer.mds_fallbacks, 0u);
  EXPECT_GE(out.writer.breaker_trips, 1u);
  EXPECT_GT(out.writer.layout_refetches, 0u);
  EXPECT_TRUE(out.export_has_recovery);
}

TEST(FaultRecovery, DsCrashScenarioIsDeterministic) {
  const RecoveryOutcome a = run_ds_crash_scenario();
  const RecoveryOutcome b = run_ds_crash_scenario();
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.data_ok, b.data_ok);
  EXPECT_EQ(a.writer.recovery_retries, b.writer.recovery_retries);
  EXPECT_EQ(a.writer.mds_fallbacks, b.writer.mds_fallbacks);
  EXPECT_EQ(a.writer.breaker_trips, b.writer.breaker_trips);
  EXPECT_EQ(a.writer.layout_refetches, b.writer.layout_refetches);
}

// ---------------------------------------------------------------------------
// RPC-level deadlines, retries, and trace shape
// ---------------------------------------------------------------------------

struct RpcRig {
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};
  obs::MetricsRegistry& metrics = fabric.metrics();
  obs::Tracer& tracer = fabric.tracer();
  std::unique_ptr<sim::FaultInjector> injector;

  sim::Node& add_node(const std::string& name, bool with_disk = false) {
    return net.add_node(sim::NodeParams{
        .name = name,
        .nic = sim::NicParams{.bytes_per_sec = 100e6, .latency = sim::us(10)},
        .disk = with_disk ? std::optional<sim::DiskParams>(sim::DiskParams{})
                          : std::nullopt,
        .cpu = sim::CpuParams{.cores = 2}});
  }

  void inject(sim::FaultPlan plan) {
    injector = std::make_unique<sim::FaultInjector>(std::move(plan));
    net.set_fault_injector(injector.get());
  }
};

rpc::RpcService echo_handler() {
  return [](const rpc::CallContext&, rpc::XdrDecoder&,
            rpc::XdrEncoder& out) -> Task<void> {
    out.put_u32(42);
    co_return;
  };
}

TEST(FaultRecovery, DeadlineExpiryProducesTimedOutNotHang) {
  RpcRig r;
  auto& client_node = r.add_node("client");
  auto& server_node = r.add_node("server");
  rpc::RpcServer server(r.fabric, server_node, rpc::kNfsPort, 2,
                        echo_handler());
  server.start();
  // Daemon down forever: every attempt must expire at its deadline.
  r.inject(sim::FaultPlan{}.crash_service(server_node.id(), rpc::kNfsPort, 0));

  rpc::RpcClient client(r.fabric, client_node, "t@SIM");
  bool done = false;
  rpc::RpcClient::Reply reply;
  r.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to, bool& done,
                 rpc::RpcClient::Reply& reply) -> Task<void> {
    reply = co_await c.call(to, rpc::Program::kNfs, 4, 1, rpc::XdrEncoder{},
                            rpc::CallOptions{.timeout = sim::ms(10),
                                             .max_retries = 2,
                                             .backoff = sim::ms(5)});
    done = true;
  }(client, server.address(), done, reply));
  r.sim.run();

  ASSERT_TRUE(done);  // the simulation drained: no hung coroutine
  EXPECT_EQ(reply.transport, rpc::Status::kTimedOut);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(client.timeouts(), 3u);
  // 3 attempts x 10 ms + backoffs: bounded, far below the 2 s drop fallback.
  EXPECT_LT(r.sim.now(), sim::ms(200));
}

TEST(FaultRecovery, DroppedCallWithoutDeadlineUsesFabricDropTimeout) {
  RpcRig r;
  auto& client_node = r.add_node("client");
  auto& server_node = r.add_node("server");
  rpc::RpcServer server(r.fabric, server_node, rpc::kNfsPort, 2,
                        echo_handler());
  server.start();
  r.inject(sim::FaultPlan{}.crash_service(server_node.id(), rpc::kNfsPort, 0));

  rpc::RpcClient client(r.fabric, client_node, "t@SIM");
  bool done = false;
  rpc::RpcClient::Reply reply;
  r.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to, bool& done,
                 rpc::RpcClient::Reply& reply) -> Task<void> {
    reply = co_await c.call(to, rpc::Program::kNfs, 4, 1, rpc::XdrEncoder{});
    done = true;
  }(client, server.address(), done, reply));
  r.sim.run();

  ASSERT_TRUE(done);
  EXPECT_EQ(reply.transport, rpc::Status::kTimedOut);
  EXPECT_GE(r.sim.now(), r.fabric.drop_timeout());
}

TEST(FaultRecovery, RetriedCallsAreChildSpansOfOneTrace) {
  RpcRig r;
  auto& client_node = r.add_node("client");
  auto& server_node = r.add_node("server");
  rpc::RpcServer server(r.fabric, server_node, rpc::kNfsPort, 2,
                        echo_handler());
  server.start();
  // Down long enough to kill attempt 1, back up for the retry.
  r.inject(sim::FaultPlan{}.crash_service(server_node.id(), rpc::kNfsPort, 0,
                                          sim::ms(12)));

  rpc::RpcClient client(r.fabric, client_node, "t@SIM");
  rpc::RpcClient::Reply reply;
  r.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to,
                 rpc::RpcClient::Reply& reply) -> Task<void> {
    reply = co_await c.call(to, rpc::Program::kNfs, 4, 1, rpc::XdrEncoder{},
                            rpc::CallOptions{.timeout = sim::ms(10),
                                             .max_retries = 3,
                                             .backoff = sim::ms(4)});
  }(client, server.address(), reply));
  r.sim.run();

  EXPECT_TRUE(reply.ok());
  EXPECT_GE(client.retries(), 1u);
  EXPECT_EQ(r.tracer.traces_started(), 1u);

  std::vector<obs::Span> attempts;
  for (const obs::Span& s : r.tracer.spans()) {
    if (s.kind == obs::SpanKind::kClientCall) attempts.push_back(s);
  }
  ASSERT_GE(attempts.size(), 2u);
  // Attempt 1 anchors the trace; every retry is its child in the same trace.
  const obs::Span& anchor = attempts.front();
  EXPECT_EQ(anchor.parent_span_id, 0u);
  EXPECT_NE(anchor.name.find(" timeout"), std::string::npos);
  EXPECT_EQ(anchor.bytes_in, 0u);
  for (size_t i = 1; i < attempts.size(); ++i) {
    EXPECT_EQ(attempts[i].trace_id, anchor.trace_id);
    EXPECT_EQ(attempts[i].parent_span_id, anchor.span_id);
  }
  EXPECT_EQ(attempts.back().name.find(" timeout"), std::string::npos);
}

TEST(FaultRecovery, NodeCrashAndReviveRecoversWithRetries) {
  RpcRig r;
  auto& client_node = r.add_node("client");
  auto& server_node = r.add_node("server");
  rpc::RpcServer server(r.fabric, server_node, rpc::kNfsPort, 2,
                        echo_handler());
  server.start();
  // The whole machine is unreachable for 50 ms, then comes back.
  r.inject(sim::FaultPlan{}.crash_node(server_node.id(), 0, sim::ms(50)));

  rpc::RpcClient client(r.fabric, client_node, "t@SIM");
  rpc::RpcClient::Reply reply;
  r.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to,
                 rpc::RpcClient::Reply& reply) -> Task<void> {
    reply = co_await c.call(to, rpc::Program::kNfs, 4, 1, rpc::XdrEncoder{},
                            rpc::CallOptions{.timeout = sim::ms(20),
                                             .max_retries = 5,
                                             .backoff = sim::ms(10)});
  }(client, server.address(), reply));
  r.sim.run();

  EXPECT_TRUE(reply.ok());
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(r.sim.now(), sim::ms(50));  // only succeeded after the revive
}

// ---------------------------------------------------------------------------
// Layout recall racing in-flight recovery
// ---------------------------------------------------------------------------

TEST(FaultRecovery, LayoutRecallDuringRetryCompletes) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  cfg.nfs_client.ds_timeout = sim::ms(20);
  cfg.nfs_client.ds_rpc_retries = 1;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::sec(60);
  // storage1's DS daemon is down from the start; client 0's writes to it
  // spend a long time in the retry ladder.
  cfg.faults.crash_service(1, rpc::kNfsPort, 0, sim::sec(30));

  core::Deployment d(cfg);
  bool writer_done = false;
  bool truncator_done = false;
  sim::Latch fsync_started(d.simulation());
  d.simulation().spawn([](core::Deployment& d, bool& writer_done,
                          bool& truncator_done,
                          sim::Latch& fsync_started) -> Task<void> {
    co_await d.mount_all();
    sim::WaitGroup wg(d.simulation());
    wg.spawn([](core::Deployment& d, bool& done,
                sim::Latch& fsync_started) -> Task<void> {
      auto f = co_await d.client(0).open("/f", true);
      co_await f->write(0, pattern_payload(0, 8_MiB));
      fsync_started.set();
      co_await f->fsync();  // retries against dead storage1 -> MDS fallback
      co_await f->close();
      done = true;
    }(d, writer_done, fsync_started));
    wg.spawn([](core::Deployment& d, bool& done,
                sim::Latch& fsync_started) -> Task<void> {
      // Land the SETATTR (and the layout recall it triggers) while client 0
      // is inside the retry ladder: the first WRITE to the dead DS spends
      // >= 40 ms in transport timeouts before the first slice retry.
      co_await fsync_started.wait();
      co_await d.simulation().delay(sim::ms(25));
      auto& peer =
          dynamic_cast<core::NfsFileSystemClient&>(d.client(1)).native();
      co_await peer.truncate("/f", 1_MiB);
      done = true;
    }(d, truncator_done, fsync_started));
    co_await wg.wait();
  }(d, writer_done, truncator_done, fsync_started));
  d.simulation().run();

  EXPECT_TRUE(writer_done);
  EXPECT_TRUE(truncator_done);
  const auto& stats =
      dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native().stats();
  EXPECT_GT(stats.recovery_retries + stats.mds_fallbacks, 0u);
}

// ---------------------------------------------------------------------------
// Boot-instance boundaries: replies queued before a crash never surface
// ---------------------------------------------------------------------------

TEST(FaultRecovery, QueuedReplyDroppedAcrossServiceRestart) {
  RpcRig r;
  auto& client_node = r.add_node("client");
  auto& server_node = r.add_node("server");
  int runs = 0;
  // Each execution stamps its run number into the reply after a 30 ms think
  // time, so a reply computed by boot instance 1 but sent after the revive
  // is distinguishable from a fresh execution.
  rpc::RpcServer server(
      r.fabric, server_node, rpc::kNfsPort, 2,
      [&r, &runs](const rpc::CallContext&, rpc::XdrDecoder&,
                  rpc::XdrEncoder& out) -> Task<void> {
        const uint32_t run = static_cast<uint32_t>(++runs);
        co_await r.sim.delay(sim::ms(30));
        out.put_u32(run);
      });
  server.start();
  // The service dies at 10 ms — while execution #1 is in flight — and is
  // back at 20 ms.  The reply straddles the boot boundary and must be
  // dropped, not delivered late to the retrying client.
  r.inject(sim::FaultPlan{}.crash_service(server_node.id(), rpc::kNfsPort,
                                          sim::ms(10), sim::ms(20)));

  rpc::RpcClient client(r.fabric, client_node, "t@SIM");
  rpc::RpcClient::Reply reply;
  r.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to,
                 rpc::RpcClient::Reply& reply) -> Task<void> {
    reply = co_await c.call(to, rpc::Program::kNfs, 4, 1, rpc::XdrEncoder{},
                            rpc::CallOptions{.timeout = sim::ms(40),
                                             .max_retries = 2,
                                             .backoff = sim::ms(5)});
  }(client, server.address(), reply));
  r.sim.run();

  ASSERT_TRUE(reply.ok());
  auto body = reply.body();
  EXPECT_EQ(body.get_u32(), 2u);  // the answer came from the NEW instance
  EXPECT_EQ(runs, 2);             // old execution ran but its reply vanished
  EXPECT_GE(client.timeouts(), 1u);
  EXPECT_EQ(r.injector->boot_instance(server_node.id(), rpc::kNfsPort,
                                      r.sim.now()),
            2u);
}

// ---------------------------------------------------------------------------
// Write verifiers: clean restart between WRITE and COMMIT
// ---------------------------------------------------------------------------

/// Direct-pNFS rig for the verifier tests: 2 DSes, streaming unstable
/// write-back with background COMMITs disabled so data is guaranteed to sit
/// uncommitted in server memory across the scripted restart window.
core::ClusterConfig verifier_rig_config() {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 2;
  cfg.clients = 2;
  cfg.nfs_client.wb_commit_backlog = 0;  // fsync is the only COMMIT source
  return cfg;
}

TEST(FaultRecovery, CommitAfterCleanRestartMismatchesExactlyOnce) {
  core::ClusterConfig cfg = verifier_rig_config();
  // storage1's DS daemon restarts cleanly (no request in flight) in the gap
  // between the streamed WRITEs and the explicit fsync.
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(500), sim::ms(520));

  core::Deployment d(cfg);
  bool data_ok = false;
  d.simulation().spawn([](core::Deployment& d, bool& data_ok) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/f", true);
    // 4 MiB = one full 2 MiB stripe chunk per DS; both stream out as
    // UNSTABLE WRITEs immediately and then sit uncommitted.
    co_await f->write(0, pattern_payload(0, 4_MiB));
    co_await d.simulation().delay(sim::ms(600) - d.simulation().now());
    // First COMMIT to the revived DS returns the new boot verifier: the
    // client must detect the mismatch once and replay the lost extent.
    co_await f->fsync();
    // A second fsync must be a no-op: the replayed data was committed
    // under the new verifier.
    co_await f->fsync();
    co_await f->close();

    auto g = co_await d.client(1).open_read("/f");
    Payload back = co_await g->read(0, 4_MiB);
    data_ok = back == pattern_payload(0, 4_MiB);
    co_await g->close();
  }(d, data_ok));
  d.simulation().run();

  EXPECT_TRUE(data_ok);
  const auto& stats =
      dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native().stats();
  EXPECT_EQ(stats.verifier_mismatches, 1u);  // exactly once, not per retry
  EXPECT_GE(stats.replayed_extents, 1u);
  EXPECT_EQ(stats.replayed_bytes, 2_MiB);  // only the crashed DS's chunk
  EXPECT_EQ(stats.mds_fallbacks, 0u);      // replay, not proxy degradation
}

TEST(FaultRecovery, ReplayIsIdempotentAcrossRepeatedRestarts) {
  core::ClusterConfig cfg = verifier_rig_config();
  // The same DS restarts twice; the same byte range is replayed each time.
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(500), sim::ms(520));
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(1500), sim::ms(1520));

  core::Deployment d(cfg);
  bool round_ok[2] = {false, false};
  d.simulation().spawn([](core::Deployment& d, bool* round_ok) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/f", true);
    for (int round = 0; round < 2; ++round) {
      // Identical bytes at identical offsets each round: the second replay
      // re-sends extents the object already holds.
      co_await f->write(0, pattern_payload(0, 4_MiB));
      const sim::Time quiet = sim::ms(600 + 1000 * round);
      co_await d.simulation().delay(quiet - d.simulation().now());
      co_await f->fsync();
      auto g = co_await d.client(1).open_read("/f");
      Payload back = co_await g->read(0, 4_MiB);
      round_ok[round] = back == pattern_payload(0, 4_MiB);
      co_await g->close();
      d.client(1).drop_caches();
    }
    co_await f->close();
  }(d, round_ok));
  d.simulation().run();

  // Double replay of the same extents leaves the object byte-identical.
  EXPECT_TRUE(round_ok[0]);
  EXPECT_TRUE(round_ok[1]);
  const auto& stats =
      dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native().stats();
  EXPECT_EQ(stats.verifier_mismatches, 2u);
  EXPECT_EQ(stats.replayed_bytes, 4_MiB);  // 2 MiB lost per restart
}

// ---------------------------------------------------------------------------
// MDS restart: grace period, session recovery, one layout re-fetch per file
// ---------------------------------------------------------------------------

TEST(FaultRecovery, MdsRestartRefetchesLayoutOncePerOpenFile) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 2;
  cfg.clients = 1;
  cfg.nfs_client.mds_timeout = sim::ms(500);
  cfg.mds_grace_period = sim::ms(50);  // revived MDS answers GRACE first
  // The MDS service (not the co-located DS daemon) restarts at 500 ms.
  cfg.faults.crash_service(0, core::kMdsPort, sim::ms(500), sim::ms(520));

  core::Deployment d(cfg);
  uint64_t refetches_before = 0;
  uint64_t refetches_after_two = 0;
  bool data_ok = false;
  d.simulation().spawn([](core::Deployment& d, uint64_t& before,
                          uint64_t& after_two, bool& data_ok) -> Task<void> {
    co_await d.mount_all();
    auto& nc = dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native();
    auto a = co_await d.client(0).open("/a", true);
    auto b = co_await d.client(0).open("/b", true);
    co_await a->write(0, pattern_payload(0, 2_MiB));
    co_await a->fsync();
    co_await b->write(0, pattern_payload(1_GiB, 2_MiB));
    co_await b->fsync();
    before = nc.stats().layout_refetches;

    // Land the first post-revive op *inside* the 50 ms grace window: the
    // client must absorb NFS4ERR_GRACE retries, then re-establish the
    // session — which invalidates every held layout (the new boot instance
    // knows nothing of them).
    co_await d.simulation().delay(sim::ms(530) - d.simulation().now());
    co_await a->write(2_MiB, pattern_payload(2_MiB, 2_MiB));
    co_await a->fsync();  // LAYOUTCOMMIT hits the restarted MDS
    // Each open file re-fetches its layout exactly once, on its next I/O.
    co_await b->write(2_MiB, pattern_payload(1_GiB + 2_MiB, 2_MiB));
    co_await b->fsync();
    co_await a->write(4_MiB, pattern_payload(4_MiB, 2_MiB));
    co_await a->fsync();
    after_two = nc.stats().layout_refetches;

    // Further I/O on already-refreshed layouts must not re-fetch again.
    co_await a->write(6_MiB, pattern_payload(6_MiB, 2_MiB));
    co_await a->fsync();
    co_await b->write(4_MiB, pattern_payload(1_GiB + 4_MiB, 2_MiB));
    co_await b->fsync();
    co_await a->close();
    co_await b->close();

    auto ra = co_await d.client(0).open_read("/a");
    Payload back = co_await ra->read(0, 8_MiB);
    Payload want = pattern_payload(0, 8_MiB);
    data_ok = back == want;
    co_await ra->close();
  }(d, refetches_before, refetches_after_two, data_ok));
  d.simulation().run();

  const auto& stats =
      dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native().stats();
  EXPECT_TRUE(data_ok);
  // Exactly one LAYOUTGET per open file with a layout, no more.
  EXPECT_EQ(refetches_after_two - refetches_before, 2u);
  EXPECT_EQ(stats.layout_refetches, refetches_after_two);
  EXPECT_GE(stats.session_recoveries, 1u);
}

/// GETSIZE requests the PVFS storage daemons have served so far.
uint64_t getsize_served(const core::Deployment& d) {
  uint64_t n = 0;
  for (const obs::Span& s : d.tracer().retained_spans()) {
    n += s.kind == obs::SpanKind::kServerExec && s.name == "pvfs.io/4";
  }
  return n;
}

TEST(FaultRecovery, MdsAnswersSizesWithoutGatheringUntilItRestarts) {
  constexpr uint64_t kLen = 5_MiB + 1;
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 6;
  cfg.clients = 2;
  cfg.trace_span_capacity = 1u << 16;  // keep every span countable
  cfg.nfs_client.mds_timeout = sim::ms(500);
  cfg.faults.crash_service(0, core::kMdsPort, sim::sec(2), sim::ms(2020));

  core::Deployment d(cfg);
  uint64_t open_stat_close = ~0ull;
  uint64_t first_getattr = ~0ull;
  uint64_t second_getattr = ~0ull;
  uint64_t size_after_restart = 0;
  d.simulation().spawn([](core::Deployment& d, uint64_t len, uint64_t& osc,
                          uint64_t& first, uint64_t& second,
                          uint64_t& size_after) -> Task<void> {
    co_await d.mount_all();
    auto w = co_await d.client(0).open("/f", true);
    co_await w->write(0, pattern_payload(0, len));
    co_await w->fsync();  // LAYOUTCOMMIT tells the MDS the new size

    const uint64_t before = getsize_served(d);
    auto r = co_await d.client(1).open_read("/f");
    const uint64_t stat = co_await d.client(1).stat_size("/f");
    co_await r->close();
    osc = getsize_served(d) - before;
    EXPECT_EQ(r->size(), len);
    EXPECT_EQ(stat, len);

    auto g = co_await d.client(1).open_read("/f");
    EXPECT_TRUE(co_await g->read(0, len) == pattern_payload(0, len));
    co_await g->close();
    co_await w->close();
    EXPECT_LT(d.simulation().now(), sim::sec(2));

    // The restarted MDS lost the sizes it held: it gathers each file once.
    co_await d.simulation().delay(sim::ms(2100) - d.simulation().now());
    uint64_t mark = getsize_served(d);
    size_after = co_await d.client(1).stat_size("/f");
    first = getsize_served(d) - mark;
    mark = getsize_served(d);
    EXPECT_EQ(co_await d.client(1).stat_size("/f"), len);
    second = getsize_served(d) - mark;
  }(d, kLen, open_stat_close, first_getattr, second_getattr,
                            size_after_restart));
  d.simulation().run();

  EXPECT_EQ(d.tracer().spans_dropped(), 0u);
  // A per-call gather would cost 18: OPEN, GETATTR and CLOSE's GETATTR.
  EXPECT_EQ(open_stat_close, 0u);
  EXPECT_EQ(first_getattr, 6u);  // one gather across the six daemons
  EXPECT_EQ(second_getattr, 0u);
  EXPECT_EQ(size_after_restart, kLen);
}

// ---------------------------------------------------------------------------
// Link faults: a lossy, slow uplink under a write and fsync
// ---------------------------------------------------------------------------

struct LinkFaultOutcome {
  bool data_ok = false;
  sim::Time written = 0;  ///< when the writer's fsync returned
  uint64_t dropped = 0;
  uint64_t delayed = 0;
  uint64_t rpc_retries = 0;  ///< the writer's transport retries
  std::string flight;
  std::string metrics;
};

/// storage1's uplink (to every node) drops its first kDropFirst messages,
/// then 5% of the rest, and delays every message it delivers by 300 us,
/// until kLinkFaultEnd.  Inside that window client 0 writes 16 MiB in
/// 1 MiB calls and fsyncs on Direct-pNFS, with 128 KiB WRITEs so that
/// about forty replies cross the faulty link; after it, a fresh client
/// reads the file back.  Lost requests and replies surface as RPC timeouts
/// that the client retries.
constexpr uint32_t kDropFirst = 4;
constexpr sim::Time kLinkFaultEnd = sim::sec(4);

LinkFaultOutcome run_link_fault_scenario() {
  constexpr uint64_t kBytes = 16_MiB;
  constexpr uint64_t kBlock = 1_MiB;

  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  cfg.nfs_client.wsize = 128u << 10;
  // The restart-recovery posture `simulate` applies on Direct-pNFS.
  cfg.nfs_client.ds_timeout = sim::ms(250);
  cfg.nfs_client.ds_rpc_retries = 8;
  cfg.nfs_client.slice_retries = 4;
  cfg.nfs_client.breaker_threshold = 4;
  cfg.nfs_client.breaker_reset = sim::ms(500);
  cfg.nfs_client.mds_timeout = sim::ms(500);
  cfg.nfs_client.mds_fallback = false;
  cfg.mds_grace_period = sim::ms(200);
  cfg.pvfs_client.io_timeout = sim::ms(250);
  cfg.pvfs_client.io_retries = 10;
  cfg.pvfs_client.meta_timeout = sim::ms(500);
  cfg.pvfs_client.meta_retries = 6;
  // Storage nodes get ids 0..3.
  cfg.faults.add_link_fault({.src = 1,
                             .dst = std::nullopt,
                             .from = 0,
                             .until = kLinkFaultEnd,
                             .drop_first = kDropFirst,
                             .drop_probability = 0.05,
                             .extra_delay = sim::us(300)});

  core::Deployment d(cfg);
  LinkFaultOutcome out;
  d.simulation().spawn([](core::Deployment& d,
                          LinkFaultOutcome& out) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/f", true);
    for (uint64_t off = 0; off < kBytes; off += kBlock) {
      co_await f->write(off, pattern_payload(off, kBlock));
    }
    co_await f->fsync();
    out.written = d.simulation().now();
    co_await f->close();

    auto& sim = d.simulation();
    if (sim.now() < kLinkFaultEnd) {
      co_await sim.delay(kLinkFaultEnd - sim.now());
    }
    auto g = co_await d.client(1).open_read("/f");
    Payload back = co_await g->read(0, kBytes);
    out.data_ok = back == pattern_payload(0, kBytes);
    co_await g->close();
  }(d, out));
  d.simulation().run();

  out.dropped = d.fault_injector()->messages_dropped();
  out.delayed = d.fault_injector()->messages_delayed();
  out.rpc_retries =
      d.metrics().find_counter("client0", "client.recovery", "rpc_retries")
          ->value();
  out.flight = d.flight().to_json();
  out.metrics = d.observer().metrics_json();
  return out;
}

TEST(FaultRecovery, LossySlowUplinkWriteReadsBackExactly) {
  const LinkFaultOutcome a = run_link_fault_scenario();
  EXPECT_TRUE(a.data_ok);
  // The whole write and fsync ran under the fault.
  EXPECT_GT(a.written, 0);
  EXPECT_LT(a.written, kLinkFaultEnd);
  // Random drops came on top of the scripted ones, and the writer retried.
  EXPECT_GT(a.dropped, kDropFirst);
  EXPECT_GT(a.delayed, 0u);
  EXPECT_GT(a.rpc_retries, 0u);

  const LinkFaultOutcome b = run_link_fault_scenario();
  EXPECT_EQ(a.flight, b.flight);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.written, b.written);
  EXPECT_EQ(a.dropped, b.dropped);
}

// ---------------------------------------------------------------------------
// Disk faults
// ---------------------------------------------------------------------------

TEST(FaultRecovery, DiskFaultSurfacesAsIoErrorThenHeals) {
  RpcRig r;
  auto& server_node = r.add_node("server", /*with_disk=*/true);
  auto& client_node = r.add_node("client");
  lfs::ObjectStore store(server_node);
  nfs::LocalBackend backend(store, r.fabric.tracer(), r.fabric.tenants());
  nfs::NfsServer server(r.fabric, server_node, rpc::kNfsPort, backend);
  server.start();
  // Disk dead until t = 100 ms; commits in that window must fail cleanly.
  r.inject(sim::FaultPlan{}.fail_disk(server_node.id(), 0, sim::ms(100)));

  nfs::NfsClient client(r.fabric, client_node, server.address(), "t@SIM",
                        nfs::ClientConfig{.pnfs_enabled = false});
  bool failed_during_fault = false;
  bool healed = false;
  r.sim.spawn([](nfs::NfsClient& c, sim::Simulation& sim,
                 bool& failed_during_fault, bool& healed) -> Task<void> {
    co_await c.mount();
    auto f = co_await c.open("/f", true);
    co_await c.write(f, 0, Payload::virtual_bytes(64_KiB));
    try {
      co_await c.fsync(f);  // COMMIT -> flush -> DiskFailedError -> kIo
    } catch (const nfs::NfsError&) {
      failed_during_fault = true;
    }
    co_await sim.delay(sim::ms(150) - sim.now());
    co_await c.write(f, 64_KiB, Payload::virtual_bytes(64_KiB));
    co_await c.fsync(f);  // disk healed: must succeed
    healed = true;
    co_await c.close(f);
  }(client, r.sim, failed_during_fault, healed));
  r.sim.run();

  EXPECT_TRUE(failed_during_fault);
  EXPECT_TRUE(healed);
}

}  // namespace
}  // namespace dpnfs
