// Per-data-server write-back scheduler: pipeline independence under faults,
// elevator coalescing of queued extents, the one-COMMIT-per-DS fsync
// contract, scatter-gather payload marshalling, the client-cache
// correctness fixes that rode along (short-READ handling, files_ iteration
// across suspensions), and rsize-aligned readahead on cold reads.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/adapters.hpp"
#include "core/deployment.hpp"
#include "lfs/object_store.hpp"
#include "nfs/client.hpp"
#include "nfs/local_backend.hpp"
#include "nfs/server.hpp"
#include "rpc/fabric.hpp"
#include "rpc/xdr.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"

namespace dpnfs {
namespace {

using namespace dpnfs::util::literals;
using nfs::ClientConfig;
using nfs::NfsClient;
using rpc::Payload;
using sim::Task;

/// Deterministic content for [offset, offset+length): every byte is a
/// function of its absolute file offset and a seed, so reassembled reads
/// are checkable regardless of which WRITEs carried them.
Payload pattern(uint64_t seed, uint64_t offset, uint64_t length) {
  std::vector<std::byte> v(length);
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t o = offset + i;
    v[i] = static_cast<std::byte>((o * 131 + seed * 29 + (o >> 12) * 7) & 0xFF);
  }
  return Payload::inline_bytes(std::move(v));
}

nfs::NfsClient& native(core::Deployment& d, size_t i) {
  return dynamic_cast<core::NfsFileSystemClient&>(d.client(i)).native();
}

// ---------------------------------------------------------------------------
// Tentpole: a crashed DS never stalls write-back bound for healthy DSes
// ---------------------------------------------------------------------------

TEST(ClientSched, CrashedDsDoesNotBlockHealthyPipelines) {
  constexpr uint64_t kFile = 24_MiB;   // 2 MB stripes over 6 DSes
  constexpr uint64_t kDsShare = 4_MiB; // what the crashed DS would absorb

  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 6;
  cfg.clients = 1;
  cfg.nfs_client.wb_window_per_ds = 2;
  cfg.nfs_client.ds_timeout = sim::sec(3);
  cfg.nfs_client.ds_rpc_retries = 0;
  cfg.nfs_client.slice_retries = 0;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::sec(60);
  // Storage node 1's NFS daemon is dead from the start; its WRITEs dangle
  // until the 3 s deadline, then degrade to the MDS.
  cfg.faults.crash_service(1, rpc::kNfsPort, 0);

  core::Deployment d(cfg);
  uint64_t wire_at_probe = 0;
  sim::Time fsync_done = 0;
  bool data_ok = false;

  d.simulation().spawn([](core::Deployment& d, sim::Time& fsync_done,
                          bool& data_ok) -> Task<void> {
    co_await d.mount_all();
    auto& c = native(d, 0);
    auto f = co_await c.open("/f", true);
    co_await c.write(f, 0, pattern(1, 0, kFile));
    co_await c.fsync(f);
    fsync_done = d.simulation().now();
    co_await c.close(f);

    c.drop_caches();
    auto g = co_await c.open("/f", false);
    Payload back = co_await c.read(g, 0, kFile);
    data_ok = back == pattern(1, 0, kFile);
    co_await c.close(g);
  }(d, fsync_done, data_ok));

  // Probe mid-fault: by t=2s every healthy DS has drained, while the dead
  // DS's slices are still dangling inside their 3 s deadline.  The old
  // global write-back window serialized behind those danglers.
  d.simulation().spawn([](core::Deployment& d, uint64_t& out) -> Task<void> {
    co_await d.simulation().delay(sim::sec(2));
    out = native(d, 0).stats().wire_write_bytes;
  }(d, wire_at_probe));

  d.simulation().run();

  EXPECT_EQ(wire_at_probe, kFile - kDsShare);
  EXPECT_GT(fsync_done, sim::sec(3));  // waited out the dead DS's deadline
  const nfs::ClientStats st = native(d, 0).stats();
  EXPECT_GE(st.mds_fallbacks, 2u);     // both of DS1's stripes degraded
  EXPECT_GE(st.breaker_trips, 1u);
  EXPECT_TRUE(data_ok);
}

// ---------------------------------------------------------------------------
// Coalescing
// ---------------------------------------------------------------------------

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
  nfs::LocalBackend backend{store, fabric.tracer(), fabric.tenants()};
  nfs::NfsServer server{fabric, server_node, rpc::kNfsPort, backend};
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

TEST(ClientSched, AdjacentSmallDirtiesLeaveAsOneWsizeWrite) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    // 256 adjacent 8 KB application writes = exactly one wsize (2 MB) chunk.
    for (uint64_t i = 0; i < 256; ++i) {
      co_await r.client->write(f, i * 8_KiB, pattern(2, i * 8_KiB, 8_KiB));
    }
    co_await r.client->fsync(f);
    co_await r.client->close(f);

    const nfs::ClientStats st = r.client->stats();
    EXPECT_EQ(st.sched_writes, 1u);
    EXPECT_EQ(st.wire_write_bytes, 2_MiB);
  }(r));
}

TEST(ClientSched, QueuedExtentsCoalesceAndNewestDataWins) {
  ClientConfig cfg;
  cfg.wb_window_per_ds = 1;
  // Keep the application far faster than the wire so the first WRITE is
  // still in flight — pinning the single window slot — while later extents
  // pile up in the queue.
  cfg.cpu_ns_per_byte = 0.5;
  Rig r(cfg);
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);

    // Chunk A dispatches immediately and occupies the window.
    co_await r.client->write(f, 2_MiB, pattern(3, 2_MiB, 2_MiB));
    // Chunk B queues behind it.
    co_await r.client->write(f, 0, pattern(4, 0, 2_MiB));
    // Overwrite 8 KB inside queued-but-undispatched B: the queue must trim
    // the stale extent (newest data wins), leaving three adjacent pieces.
    co_await r.client->write(f, 1_MiB, pattern(5, 1_MiB, 8_KiB));
    co_await r.client->fsync(f);
    co_await r.client->close(f);

    // The elevator re-merged [0,1M) + the fresh 8 KB + [1M+8K,2M) into one
    // wsize WRITE: two merge events covering 1 MiB of riding bytes.
    const nfs::ClientStats st = r.client->stats();
    EXPECT_EQ(st.sched_writes, 2u);
    EXPECT_EQ(st.sched_coalesced_extents, 2u);
    EXPECT_EQ(st.sched_coalesced_bytes, 1_MiB);
    EXPECT_EQ(st.wire_write_bytes, 4_MiB);

    // The server saw the post-overwrite bytes, not the stale queued ones.
    r.client->drop_caches();
    auto g = co_await r.client->open("/f", false);
    Payload back = co_await r.client->read(g, 0, 4_MiB);
    Payload want = pattern(4, 0, 1_MiB);
    want.append(pattern(5, 1_MiB, 8_KiB));
    want.append(pattern(4, 1_MiB + 8_KiB, 1_MiB - 8_KiB));
    want.append(pattern(3, 2_MiB, 2_MiB));
    EXPECT_EQ(back, want);
    co_await r.client->close(g);
  }(r));
}

TEST(ClientSched, CoalescingCanBeDisabled) {
  ClientConfig cfg;
  cfg.wb_window_per_ds = 1;
  cfg.cpu_ns_per_byte = 0.5;
  cfg.coalesce_writes = false;
  Rig r(cfg);
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    co_await r.client->write(f, 2_MiB, pattern(3, 2_MiB, 2_MiB));
    co_await r.client->write(f, 0, pattern(4, 0, 2_MiB));
    co_await r.client->write(f, 1_MiB, pattern(5, 1_MiB, 8_KiB));
    co_await r.client->fsync(f);
    co_await r.client->close(f);

    // Same scenario as above, but every trimmed piece goes out on its own.
    const nfs::ClientStats st = r.client->stats();
    EXPECT_EQ(st.sched_coalesced_extents, 0u);
    EXPECT_EQ(st.sched_writes, 4u);
    EXPECT_EQ(st.wire_write_bytes, 4_MiB);
  }(r));
}

// ---------------------------------------------------------------------------
// Vectored (list) I/O: strided dirty extents fold into one WRITEV
// ---------------------------------------------------------------------------

TEST(ClientSched, StridedDirtiesDispatchAsOneVectoredWrite) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    // 16 strided 8 KB records, 16 KB apart: mutually non-adjacent dirty
    // extents the elevator cannot merge — only a vectored WRITE folds them.
    for (uint64_t i = 0; i < 16; ++i) {
      co_await r.client->write(f, i * 16_KiB, pattern(14, i * 16_KiB, 8_KiB));
    }
    const uint64_t rpcs_before = r.client->stats().rpcs;
    co_await r.client->fsync(f);

    const nfs::ClientStats st = r.client->stats();
    EXPECT_EQ(st.sched_writes, 1u);
    EXPECT_EQ(st.vectored_writes, 1u);
    EXPECT_EQ(st.vectored_regions, 16u);
    EXPECT_EQ(st.vectored_bytes, 128_KiB);
    EXPECT_EQ(st.wire_write_bytes, 128_KiB);
    EXPECT_EQ(st.sched_coalesced_extents, 0u);  // nothing was adjacent
    EXPECT_EQ(st.rpcs - rpcs_before, 2u);  // one WRITEV + one COMMIT
    co_await r.client->close(f);

    // Byte-exact server state: every record intact, the strided gaps zeros.
    r.client->drop_caches();
    auto g = co_await r.client->open("/f", false);
    Payload back = co_await r.client->read(g, 0, 248_KiB);
    Payload want;
    for (uint64_t i = 0; i < 16; ++i) {
      want.append(pattern(14, i * 16_KiB, 8_KiB));
      if (i != 15) {
        want.append(Payload::inline_bytes(
            std::vector<std::byte>(8_KiB, std::byte{0})));
      }
    }
    EXPECT_EQ(back, want);
    co_await r.client->close(g);
  }(r));
}

TEST(ClientSched, ListioCanBeDisabled) {
  ClientConfig cfg;
  cfg.listio_max_regions = 1;
  Rig r(cfg);
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    for (uint64_t i = 0; i < 16; ++i) {
      co_await r.client->write(f, i * 16_KiB, pattern(15, i * 16_KiB, 8_KiB));
    }
    const uint64_t rpcs_before = r.client->stats().rpcs;
    co_await r.client->fsync(f);

    // Same strided pattern as above, but every record is its own WRITE.
    const nfs::ClientStats st = r.client->stats();
    EXPECT_EQ(st.sched_writes, 16u);
    EXPECT_EQ(st.vectored_writes, 0u);
    EXPECT_EQ(st.wire_write_bytes, 128_KiB);
    EXPECT_EQ(st.rpcs - rpcs_before, 17u);  // 16 WRITEs + one COMMIT
    co_await r.client->close(f);
  }(r));
}

TEST(ClientSched, ReplayAfterRestartFoldsRegionListIntoOneWritev) {
  // 16 strided unstable WRITEs land on a DS which then crash-restarts
  // before COMMIT: the client must replay the whole region list — and the
  // replay flush folds it into one vectored WRITE.
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 2;
  cfg.clients = 2;
  cfg.nfs_client.wb_commit_backlog = 0;  // fsync is the only COMMIT source
  cfg.nfs_client.dirty_limit_bytes = 0;  // every write flushes immediately
  // storage1's DS daemon restarts cleanly between the WRITEs and the fsync.
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(500), sim::ms(520));

  core::Deployment d(cfg);
  bool data_ok = false;
  d.simulation().spawn([](core::Deployment& d, bool& data_ok) -> Task<void> {
    co_await d.mount_all();
    auto& c = native(d, 0);
    auto f = co_await c.open("/f", true);
    // 16 records in storage1's stripe [2 MiB, 4 MiB), 16 KiB apart; with a
    // zero dirty limit each goes out as its own single-range WRITE.
    for (uint64_t i = 0; i < 16; ++i) {
      const uint64_t off = 2_MiB + i * 16_KiB;
      co_await c.write(f, off, pattern(16, off, 8_KiB));
    }
    EXPECT_EQ(c.stats().sched_writes, 16u);
    EXPECT_EQ(c.stats().vectored_writes, 0u);
    co_await d.simulation().delay(sim::ms(600) - d.simulation().now());

    // fsync's COMMIT returns the new incarnation's verifier: the client
    // re-dirties all 16 retained extents, and the replay flush dispatches
    // them as one 16-region WRITEV under one fresh verifier.
    co_await c.fsync(f);
    const nfs::ClientStats st = c.stats();
    EXPECT_EQ(st.verifier_mismatches, 1u);
    EXPECT_EQ(st.replayed_extents, 16u);
    EXPECT_EQ(st.replayed_bytes, 128_KiB);
    EXPECT_EQ(st.vectored_writes, 1u);
    EXPECT_EQ(st.vectored_regions, 16u);
    EXPECT_EQ(st.mds_fallbacks, 0u);  // replay, not proxy degradation

    // A second fsync is a no-op: the replayed data was committed under the
    // new verifier.
    const uint64_t writes_after_replay = c.stats().sched_writes;
    co_await c.fsync(f);
    EXPECT_EQ(c.stats().sched_writes, writes_after_replay);
    co_await c.close(f);

    auto& rdr = native(d, 1);
    auto g = co_await rdr.open("/f", false);
    Payload want;
    for (uint64_t i = 0; i < 16; ++i) {
      want.append(pattern(16, 2_MiB + i * 16_KiB, 8_KiB));
      if (i != 15) {
        want.append(Payload::inline_bytes(
            std::vector<std::byte>(8_KiB, std::byte{0})));
      }
    }
    Payload back = co_await rdr.read(g, 2_MiB, 248_KiB);
    data_ok = back == want;
    co_await rdr.close(g);
  }(d, data_ok));
  d.simulation().run();
  EXPECT_TRUE(data_ok);
}

// ---------------------------------------------------------------------------
// COMMIT batching: one COMMIT per DS per fsync, however many extents flushed
// ---------------------------------------------------------------------------

TEST(ClientSched, OneCommitPerDsPerFsync) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 6;
  cfg.clients = 1;

  core::Deployment d(cfg);
  d.simulation().spawn([](core::Deployment& d) -> Task<void> {
    co_await d.mount_all();
    auto& c = native(d, 0);
    auto f = co_await c.open("/f", true);
    // Round 1 primes everything (layout, sessions to all six DSes).
    co_await c.write(f, 0, pattern(6, 0, 12_MiB));
    co_await c.fsync(f);

    // Round 2: two disjoint 8 KB extents inside each DS's stripe — twelve
    // dirty extents, two per DS.  Small enough that nothing flushes (or
    // triggers a backlog COMMIT) before fsync.
    for (uint64_t i = 0; i < 6; ++i) {
      co_await c.write(f, i * 2_MiB + 512_KiB,
                       pattern(7, i * 2_MiB + 512_KiB, 8_KiB));
      co_await c.write(f, i * 2_MiB + 1_MiB,
                       pattern(7, i * 2_MiB + 1_MiB, 8_KiB));
    }
    const uint64_t rpcs_before = c.stats().rpcs;
    const uint64_t writes_before = c.stats().sched_writes;
    const uint64_t vec_before = c.stats().vectored_writes;
    co_await c.fsync(f);

    // The two non-adjacent extents per DS fold into one vectored WRITE
    // each: 6 WRITEVs + 6 COMMITs (one per DS, not one per extent) +
    // 1 LAYOUTCOMMIT.
    EXPECT_EQ(c.stats().sched_writes - writes_before, 6u);
    EXPECT_EQ(c.stats().vectored_writes - vec_before, 6u);
    EXPECT_EQ(c.stats().vectored_regions, 12u);
    EXPECT_EQ(c.stats().rpcs - rpcs_before, 6u + 6u + 1u);
    co_await c.close(f);
  }(d));
  d.simulation().run();
}

// ---------------------------------------------------------------------------
// Scatter-gather payloads
// ---------------------------------------------------------------------------

TEST(ClientSched, ScatterGatherPayloadXdrRoundTrip) {
  // Splice three fragments; same bytes as one flat buffer.
  Payload sg = pattern(8, 0, 1000);
  sg.append(pattern(8, 1000, 500));
  sg.append(pattern(8, 1500, 9));
  EXPECT_GE(sg.fragment_count(), 3u);
  const Payload flat = pattern(8, 0, 1509);
  EXPECT_EQ(sg, flat);

  // Fragmentation is invisible on the wire: identical XDR bytes, and the
  // decoder reassembles the same content.
  rpc::XdrEncoder enc_sg;
  enc_sg.put_payload(sg);
  const auto wire_sg = std::move(enc_sg).take();
  rpc::XdrEncoder enc_flat;
  enc_flat.put_payload(flat);
  const auto wire_flat = std::move(enc_flat).take();
  EXPECT_EQ(wire_sg, wire_flat);

  rpc::XdrDecoder dec(wire_sg);
  const Payload back = dec.get_payload();
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back, flat);
}

// ---------------------------------------------------------------------------
// Satellite fixes: short READs and files_ iteration across suspensions
// ---------------------------------------------------------------------------

/// Forwards to an inner backend but caps every READ reply, forcing the
/// client's mid-object short-READ handling to re-issue for the tail.
class ChokedReadBackend : public nfs::Backend {
 public:
  ChokedReadBackend(nfs::Backend& inner, uint32_t cap)
      : inner_(inner), cap_(cap) {}

  uint64_t reads() const noexcept { return reads_; }

  nfs::FileHandle root_fh() const override { return inner_.root_fh(); }
  Task<nfs::Status> getattr(nfs::FileHandle fh, nfs::Fattr* out) override {
    return inner_.getattr(fh, out);
  }
  Task<nfs::Status> set_size(nfs::FileHandle fh, uint64_t size) override {
    return inner_.set_size(fh, size);
  }
  Task<nfs::Status> lookup(nfs::FileHandle dir, const std::string& name,
                           nfs::FileHandle* out) override {
    return inner_.lookup(dir, name, out);
  }
  Task<nfs::Status> mkdir(nfs::FileHandle dir, const std::string& name,
                          nfs::FileHandle* out) override {
    return inner_.mkdir(dir, name, out);
  }
  Task<nfs::Status> open(nfs::FileHandle dir, const std::string& name,
                         bool create, nfs::FileHandle* out,
                         nfs::Fattr* attr) override {
    return inner_.open(dir, name, create, out, attr);
  }
  Task<nfs::Status> remove(nfs::FileHandle dir,
                           const std::string& name) override {
    return inner_.remove(dir, name);
  }
  Task<nfs::Status> rename(nfs::FileHandle src_dir, const std::string& old_name,
                           nfs::FileHandle dst_dir,
                           const std::string& new_name) override {
    return inner_.rename(src_dir, old_name, dst_dir, new_name);
  }
  Task<nfs::Status> readdir(nfs::FileHandle dir,
                            std::vector<nfs::DirEntry>* out) override {
    return inner_.readdir(dir, out);
  }
  Task<nfs::Status> read(nfs::FileHandle fh, uint64_t offset, uint32_t count,
                         rpc::Payload* out, bool* eof,
                         obs::TraceContext trace) override {
    ++reads_;
    return inner_.read(fh, offset, std::min(count, cap_), out, eof, trace);
  }
  Task<nfs::Status> write(nfs::FileHandle fh, uint64_t offset,
                          const rpc::Payload& data, nfs::StableHow stable,
                          nfs::StableHow* committed, uint64_t* post_change,
                          obs::TraceContext trace) override {
    return inner_.write(fh, offset, data, stable, committed, post_change,
                        trace);
  }
  Task<nfs::Status> commit(nfs::FileHandle fh,
                           obs::TraceContext trace) override {
    return inner_.commit(fh, trace);
  }

 private:
  nfs::Backend& inner_;
  uint32_t cap_;
  uint64_t reads_ = 0;
};

TEST(ClientSched, MidObjectShortReadsAreReissuedNotZeroFilled) {
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
  nfs::LocalBackend local{store, fabric.tracer(), fabric.tenants()};
  ChokedReadBackend choked{local, 64 * 1024};  // short replies, no real EOF
  nfs::NfsServer server{fabric, server_node, rpc::kNfsPort, choked};
  server.start();
  ClientConfig cfg;
  cfg.pnfs_enabled = false;
  cfg.readahead_window = 0;
  NfsClient client(fabric, client_node, server.address(), "t@SIM", cfg);

  sim.spawn([](NfsClient& client, ChokedReadBackend& choked) -> Task<void> {
    co_await client.mount();
    auto f = co_await client.open("/f", true);
    co_await client.write(f, 0, pattern(9, 0, 256_KiB));
    co_await client.fsync(f);
    co_await client.close(f);
    client.drop_caches();

    auto g = co_await client.open("/f", false);
    const uint64_t reads_before = choked.reads();
    Payload back = co_await client.read(g, 0, 256_KiB);
    // Four 64 KB short replies reassembled — and every byte is real data,
    // not fabricated zeros.
    EXPECT_EQ(back, pattern(9, 0, 256_KiB));
    EXPECT_EQ(choked.reads() - reads_before, 4u);
    EXPECT_EQ(client.stats().wire_read_bytes, 256_KiB);
    co_await client.close(g);
  }(client, choked));
  sim.run();
}

TEST(ClientSched, HoleStripeReadsAsZerosAtObjectEof) {
  // Direct-pNFS: write stripes 0 and 2, leave stripe 1's object nonexistent.
  // Its DS answers with an empty EOF READ and the client must zero-fill the
  // slice — distinguishing object-EOF from a mid-object short reply.
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 3;
  cfg.clients = 2;

  core::Deployment d(cfg);
  d.simulation().spawn([](core::Deployment& d) -> Task<void> {
    co_await d.mount_all();
    auto& w = native(d, 0);
    auto f = co_await w.open("/holey", true);
    co_await w.write(f, 0, pattern(10, 0, 2_MiB));
    co_await w.write(f, 4_MiB, pattern(10, 4_MiB, 2_MiB));
    co_await w.fsync(f);
    co_await w.close(f);

    auto& rdr = native(d, 1);
    auto g = co_await rdr.open("/holey", false);
    Payload back = co_await rdr.read(g, 0, 6_MiB);
    Payload want = pattern(10, 0, 2_MiB);
    want.append(Payload::inline_bytes(
        std::vector<std::byte>(2_MiB, std::byte{0})));
    want.append(pattern(10, 4_MiB, 2_MiB));
    EXPECT_EQ(back, want);
    co_await rdr.close(g);
  }(d));
  d.simulation().run();
}

TEST(ClientSched, DropCachesDuringRecallFlushIsSafe) {
  // Regression: serve_callback used to hold a live files_ iterator across
  // the recall's co_awaited flush; a concurrent drop_caches erasing closed
  // files invalidated it.  Reproduce exactly that interleaving.
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.clients = 2;

  core::Deployment d(cfg);
  bool data_ok = false;
  d.simulation().spawn([](core::Deployment& d, bool& data_ok) -> Task<void> {
    co_await d.mount_all();
    auto& a = native(d, 0);
    auto& b = native(d, 1);

    // Cold cached files that drop_caches will erase mid-recall.
    for (int i = 0; i < 4; ++i) {
      const std::string path = "/cold" + std::to_string(i);
      auto h = co_await a.open(path, true);
      co_await a.write(h, 0, pattern(11, 0, 64_KiB));
      co_await a.close(h);
    }

    auto fa = co_await a.open("/shared", true);
    co_await a.write(fa, 0, pattern(12, 0, 2_MiB + 100_KiB));

    // While B's truncate drives the recall, yank A's clean closed files the
    // moment the recall's flush starts.
    d.simulation().spawn([](core::Deployment& d) -> Task<void> {
      auto& a = native(d, 0);
      while (a.layout_recalls_served() == 0) {
        co_await d.simulation().delay(sim::us(200));
      }
      a.drop_caches();
    }(d));

    co_await b.truncate("/shared", 8_MiB);  // grows the file: recall, no loss
    EXPECT_EQ(a.layout_recalls_served(), 1u);

    co_await a.close(fa);
    auto g = co_await b.open("/shared", false);
    Payload back = co_await b.read(g, 0, 2_MiB + 100_KiB);
    data_ok = back == pattern(12, 0, 2_MiB + 100_KiB);
    co_await b.close(g);
  }(d, data_ok));
  d.simulation().run();
  EXPECT_TRUE(data_ok);
}

// ---------------------------------------------------------------------------
// Readahead clamps at EOF and counts only real fetches
// ---------------------------------------------------------------------------

TEST(ClientSched, ReadaheadClampsAtEofAndCountsOnlyRealFetches) {
  Rig r;
  r.run([](Rig& r) -> Task<void> {
    co_await r.client->mount();
    auto f = co_await r.client->open("/f", true);
    co_await r.client->write(f, 0, pattern(13, 0, 192_KiB));
    co_await r.client->fsync(f);
    co_await r.client->close(f);
    r.client->drop_caches();

    auto g = co_await r.client->open("/f", false);
    for (uint64_t off = 0; off < 192_KiB; off += 8_KiB) {
      Payload p = co_await r.client->read(g, off, 8_KiB);
      EXPECT_EQ(p, pattern(13, off, 8_KiB));
    }
    // The window (4 x rsize = 8 MB) dwarfs the file: readahead must clamp
    // at EOF — the wire carries exactly the file, no guaranteed-empty READs.
    EXPECT_EQ(r.client->stats().wire_read_bytes, 192_KiB);
    EXPECT_EQ(r.client->stats().readahead_fetches, 1u);

    // A second, fully cached pass fetches nothing and counts nothing.
    for (uint64_t off = 0; off < 192_KiB; off += 8_KiB) {
      (void)co_await r.client->read(g, off, 8_KiB);
    }
    EXPECT_EQ(r.client->stats().wire_read_bytes, 192_KiB);
    EXPECT_EQ(r.client->stats().readahead_fetches, 1u);
    co_await r.client->close(g);
  }(r));
}

// ---------------------------------------------------------------------------
// Readahead windows end on rsize boundaries: one READ per stripe unit
// ---------------------------------------------------------------------------

constexpr uint64_t kColdFile = 24_MiB;  // 12 stripe units of 2 MB over 6 DSes

core::ClusterConfig cold_read_config(uint32_t clients) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 6;
  cfg.clients = clients;
  return cfg;
}

/// Writes `path` with pattern(seed), fsyncs, closes, and drops the client's
/// cache so the read-back starts cold.
Task<void> write_cold(NfsClient& c, std::string path, uint64_t seed) {
  auto f = co_await c.open(path, true);
  co_await c.write(f, 0, pattern(seed, 0, kColdFile));
  co_await c.fsync(f);
  co_await c.close(f);
  c.drop_caches();
}

TEST(ClientSched, ColdSequentialReadSendsOneReadPerStripe) {
  core::Deployment d(cold_read_config(1));
  uint64_t reads = 0;
  bool data_ok = true;
  d.simulation().spawn([](core::Deployment& d, uint64_t& reads,
                          bool& data_ok) -> Task<void> {
    co_await d.mount_all();
    auto& c = native(d, 0);
    co_await write_cold(c, "/cold", 14);
    d.drop_all_server_caches();

    auto g = co_await c.open("/cold", false);
    const uint64_t before = c.stats().rpcs;
    for (uint64_t off = 0; off < kColdFile; off += 8_KiB) {
      Payload p = co_await c.read(g, off, 8_KiB);
      data_ok = data_ok && p == pattern(14, off, 8_KiB);
    }
    reads = c.stats().rpcs - before;
    co_await c.close(g);
  }(d, reads, data_ok));
  d.simulation().run();

  EXPECT_TRUE(data_ok);
  // The first 8 KB is a demand READ.  Every READ after it ends on a 2 MB
  // boundary, so each covers one whole stripe unit on one DS; a window
  // ending 8 KB past a boundary would split every stripe into two READs.
  EXPECT_EQ(reads, 1 + kColdFile / 2_MiB);
  EXPECT_EQ(native(d, 0).stats().wire_read_bytes, kColdFile);
}

TEST(ClientSched, ConcurrentColdReadsReadEachDiskByteOnce) {
  constexpr uint32_t kClients = 8;
  core::Deployment d(cold_read_config(kClients));
  uint64_t disk_read = 0;
  uint32_t files_ok = 0;
  d.simulation().spawn([](core::Deployment& d, uint64_t& disk_read,
                          uint32_t& files_ok) -> Task<void> {
    co_await d.mount_all();
    for (uint32_t i = 0; i < kClients; ++i) {
      co_await write_cold(native(d, i), "/f" + std::to_string(i), 20 + i);
    }
    d.drop_all_server_caches();
    const uint64_t before = d.disk_read_bytes();

    // Every client streams its own file back at once, so their DS reads
    // queue behind each other on the six disks.
    sim::WaitGroup wg(d.simulation());
    for (uint32_t i = 0; i < kClients; ++i) {
      wg.spawn([](NfsClient& c, uint32_t i, uint32_t& files_ok) -> Task<void> {
        auto g = co_await c.open("/f" + std::to_string(i), false);
        bool ok = true;
        for (uint64_t off = 0; off < kColdFile; off += 8_KiB) {
          Payload p = co_await c.read(g, off, 8_KiB);
          ok = ok && p == pattern(20 + i, off, 8_KiB);
        }
        co_await c.close(g);
        if (ok) ++files_ok;
      }(native(d, i), i, files_ok));
    }
    co_await wg.wait();
    disk_read = d.disk_read_bytes() - before;
  }(d, disk_read, files_ok));
  d.simulation().run();

  EXPECT_EQ(files_ok, kClients);
  // Every READ after the first ends on a 2 MB boundary, so no two READs in
  // flight share a 1 MiB store block and each block leaves the disk once.
  // A window ending 8 KB past a stripe boundary would send an
  // 8 KB READ that pulls in the next stripe's first block; the READ for the
  // rest of that stripe, arriving while that block read still queues,
  // misses and reads it again.
  EXPECT_EQ(disk_read, kClients * kColdFile);
}

}  // namespace
}  // namespace dpnfs
