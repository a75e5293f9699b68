// NFS protocol-level tests: COMPOUND evaluation rules, sessions, stateids,
// layout/device XDR round trips, and raw-wire interactions that bypass the
// friendly client API.
#include <gtest/gtest.h>

#include <memory>

#include "lfs/object_store.hpp"
#include "nfs/compound_reply.hpp"
#include "nfs/local_backend.hpp"
#include "nfs/server.hpp"
#include "rpc/fabric.hpp"
#include "sim/network.hpp"

namespace dpnfs::nfs {
namespace {

using rpc::Payload;
using sim::Task;

struct Wire {
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
  rpc::RpcClient rpc{fabric, client_node, "raw@SIM"};

  Wire() { server.start(); }

  /// Sends a raw COMPOUND and returns the parsed reply.
  Task<std::unique_ptr<CompoundReply>> compound(CompoundBuilder b) {
    auto raw = co_await rpc.call(server.address(), rpc::Program::kNfs, 4, 1,
                                 std::move(b).finish());
    co_return std::make_unique<CompoundReply>(std::move(raw));
  }

  void run(Task<void> t) {
    sim.spawn(std::move(t));
    sim.run();
  }
};

TEST(Compound, StopsAtFirstFailure) {
  Wire w;
  w.run([](Wire& w) -> Task<void> {
    CompoundBuilder b;
    b.add(OpCode::kPutRootFh);
    b.add(OpCode::kLookup, LookupArgs{"missing"});  // fails: NOENT
    b.add(OpCode::kGetFh);                          // must not execute
    auto r = co_await w.compound(std::move(b));
    EXPECT_EQ(r->result_count(), 2u);  // PUTROOTFH + failed LOOKUP only
    EXPECT_EQ(r->try_next(OpCode::kPutRootFh), Status::kOk);
    EXPECT_EQ(r->try_next(OpCode::kLookup), Status::kNoEnt);
    EXPECT_FALSE(r->has_more());
  }(w));
}

TEST(Compound, SequenceWithUnknownSessionFails) {
  Wire w;
  w.run([](Wire& w) -> Task<void> {
    CompoundBuilder b;
    b.add(OpCode::kSequence, SequenceArgs{SessionId{424242}, 0});
    b.add(OpCode::kPutRootFh);
    auto r = co_await w.compound(std::move(b));
    EXPECT_EQ(r->try_next(OpCode::kSequence), Status::kBadSession);
    EXPECT_FALSE(r->has_more());
  }(w));
}

TEST(Compound, OpsOnStaleFilehandle) {
  Wire w;
  w.run([](Wire& w) -> Task<void> {
    CompoundBuilder b;
    b.add(OpCode::kPutFh, PutFhArgs{FileHandle{987654}});
    b.add(OpCode::kGetattr);
    auto r = co_await w.compound(std::move(b));
    EXPECT_EQ(r->try_next(OpCode::kPutFh), Status::kOk);  // PUTFH is lazy
    EXPECT_EQ(r->try_next(OpCode::kGetattr), Status::kStale);
  }(w));
}

TEST(Compound, ReadWithBogusStateidRejected) {
  Wire w;
  w.run([](Wire& w) -> Task<void> {
    // Create a file first.
    CompoundBuilder c;
    c.add(OpCode::kPutRootFh);
    c.add(OpCode::kOpen, OpenArgs{"f", true});
    c.add(OpCode::kGetFh);
    auto r1 = co_await w.compound(std::move(c));
    r1->expect(OpCode::kPutRootFh);
    (void)r1->expect<OpenRes>(OpCode::kOpen);
    const FileHandle fh = r1->expect<GetFhRes>(OpCode::kGetFh).fh;

    CompoundBuilder b;
    b.add(OpCode::kPutFh, PutFhArgs{fh});
    b.add(OpCode::kRead, ReadArgs{Stateid{555555}, 0, 100});
    auto r2 = co_await w.compound(std::move(b));
    EXPECT_EQ(r2->try_next(OpCode::kPutFh), Status::kOk);
    EXPECT_EQ(r2->try_next(OpCode::kRead), Status::kBadStateid);
  }(w));
}

TEST(Compound, AnonymousAndDsStateidsAccepted) {
  Wire w;
  w.run([](Wire& w) -> Task<void> {
    CompoundBuilder c;
    c.add(OpCode::kPutRootFh);
    c.add(OpCode::kOpen, OpenArgs{"f", true});
    c.add(OpCode::kGetFh);
    auto r1 = co_await w.compound(std::move(c));
    r1->expect(OpCode::kPutRootFh);
    (void)r1->expect<OpenRes>(OpCode::kOpen);
    const FileHandle fh = r1->expect<GetFhRes>(OpCode::kGetFh).fh;

    for (const Stateid sid : {kAnonymousStateid, kDataServerStateid}) {
      CompoundBuilder b;
      b.add(OpCode::kPutFh, PutFhArgs{fh});
      b.add(OpCode::kWrite,
            WriteArgs{sid, 0, StableHow::kFileSync, Payload::from_string("x")});
      auto r = co_await w.compound(std::move(b));
      EXPECT_EQ(r->try_next(OpCode::kPutFh), Status::kOk);
      EXPECT_EQ(r->try_next(OpCode::kWrite), Status::kOk);
    }
  }(w));
}

TEST(Compound, CloseInvalidatesStateid) {
  Wire w;
  w.run([](Wire& w) -> Task<void> {
    CompoundBuilder c;
    c.add(OpCode::kPutRootFh);
    c.add(OpCode::kOpen, OpenArgs{"f", true});
    c.add(OpCode::kGetFh);
    auto r1 = co_await w.compound(std::move(c));
    r1->expect(OpCode::kPutRootFh);
    const Stateid sid = r1->expect<OpenRes>(OpCode::kOpen).stateid;
    const FileHandle fh = r1->expect<GetFhRes>(OpCode::kGetFh).fh;

    CompoundBuilder b;
    b.add(OpCode::kPutFh, PutFhArgs{fh});
    b.add(OpCode::kClose, CloseArgs{sid});
    auto r2 = co_await w.compound(std::move(b));
    EXPECT_EQ(r2->try_next(OpCode::kPutFh), Status::kOk);
    EXPECT_EQ(r2->try_next(OpCode::kClose), Status::kOk);

    // Double close: the stateid is gone.
    CompoundBuilder b2;
    b2.add(OpCode::kPutFh, PutFhArgs{fh});
    b2.add(OpCode::kClose, CloseArgs{sid});
    auto r3 = co_await w.compound(std::move(b2));
    EXPECT_EQ(r3->try_next(OpCode::kPutFh), Status::kOk);
    EXPECT_EQ(r3->try_next(OpCode::kClose), Status::kBadStateid);

    // Using the closed stateid for WRITE also fails.
    CompoundBuilder b3;
    b3.add(OpCode::kPutFh, PutFhArgs{fh});
    b3.add(OpCode::kWrite,
           WriteArgs{sid, 0, StableHow::kUnstable, Payload::from_string("x")});
    auto r4 = co_await w.compound(std::move(b3));
    EXPECT_EQ(r4->try_next(OpCode::kPutFh), Status::kOk);
    EXPECT_EQ(r4->try_next(OpCode::kWrite), Status::kBadStateid);
  }(w));
}

TEST(Compound, SaveRestoreFhForRename) {
  Wire w;
  w.run([](Wire& w) -> Task<void> {
    // Build /src/f and /dst, then RENAME via SAVEFH.
    CompoundBuilder setup;
    setup.add(OpCode::kPutRootFh);
    setup.add(OpCode::kCreate, CreateArgs{"src"});
    setup.add(OpCode::kOpen, OpenArgs{"f", true});
    auto r0 = co_await w.compound(std::move(setup));
    r0->expect(OpCode::kPutRootFh);
    r0->expect(OpCode::kCreate);
    (void)r0->expect<OpenRes>(OpCode::kOpen);

    CompoundBuilder mk;
    mk.add(OpCode::kPutRootFh);
    mk.add(OpCode::kCreate, CreateArgs{"dst"});
    auto r1 = co_await w.compound(std::move(mk));
    r1->expect(OpCode::kPutRootFh);
    r1->expect(OpCode::kCreate);

    CompoundBuilder mv;
    mv.add(OpCode::kPutRootFh);
    mv.add(OpCode::kLookup, LookupArgs{"src"});
    mv.add(OpCode::kSaveFh);
    mv.add(OpCode::kPutRootFh);
    mv.add(OpCode::kLookup, LookupArgs{"dst"});
    mv.add(OpCode::kRename, RenameArgs{"f", "g"});
    auto r2 = co_await w.compound(std::move(mv));
    for (OpCode op : {OpCode::kPutRootFh, OpCode::kLookup, OpCode::kSaveFh,
                      OpCode::kPutRootFh, OpCode::kLookup}) {
      EXPECT_EQ(r2->try_next(op), Status::kOk);
    }
    EXPECT_EQ(r2->try_next(OpCode::kRename), Status::kOk);

    // Verify the move.
    CompoundBuilder check;
    check.add(OpCode::kPutRootFh);
    check.add(OpCode::kLookup, LookupArgs{"dst"});
    check.add(OpCode::kLookup, LookupArgs{"g"});
    auto r3 = co_await w.compound(std::move(check));
    EXPECT_EQ(r3->try_next(OpCode::kPutRootFh), Status::kOk);
    EXPECT_EQ(r3->try_next(OpCode::kLookup), Status::kOk);
    EXPECT_EQ(r3->try_next(OpCode::kLookup), Status::kOk);
  }(w));
}

TEST(Compound, TooManyOpsRejectedAtRpcLayer) {
  Wire w;
  w.run([](Wire& w) -> Task<void> {
    CompoundBuilder b;
    for (int i = 0; i < 100; ++i) b.add(OpCode::kPutRootFh);
    auto raw = co_await w.rpc.call(w.server.address(), rpc::Program::kNfs, 4, 1,
                                   std::move(b).finish());
    // The server throws XdrError("compound too long") -> GARBAGE_ARGS.
    EXPECT_EQ(raw.status, rpc::ReplyStatus::kGarbageArgs);
  }(w));
}

// ---------------------------------------------------------------------------
// XDR round trips for pNFS types
// ---------------------------------------------------------------------------

TEST(LayoutXdr, FileLayoutRoundTrip) {
  FileLayout l;
  l.aggregation = AggregationType::kVariableStripe;
  l.stripe_unit = 777;
  l.devices = {DeviceId{3}, DeviceId{1}, DeviceId{2}};
  l.fhs = {FileHandle{10}, FileHandle{20}, FileHandle{30}};
  l.params = {2, 64, 5, 1024, 1};
  rpc::XdrEncoder enc;
  l.encode(enc);
  auto buf = std::move(enc).take();
  rpc::XdrDecoder dec(buf);
  const FileLayout g = FileLayout::decode(dec);
  EXPECT_EQ(g.aggregation, l.aggregation);
  EXPECT_EQ(g.stripe_unit, l.stripe_unit);
  EXPECT_EQ(g.devices, l.devices);
  EXPECT_EQ(g.fhs.size(), 3u);
  EXPECT_EQ(g.fhs[2], FileHandle{30});
  EXPECT_EQ(g.params, l.params);
  EXPECT_TRUE(dec.done());
}

TEST(LayoutXdr, BadAggregationRejected) {
  rpc::XdrEncoder enc;
  enc.put_u32(99);  // invalid aggregation id
  enc.put_u64(4096);
  enc.put_u32(0);
  enc.put_u32(0);
  enc.put_u32(0);
  auto buf = std::move(enc).take();
  rpc::XdrDecoder dec(buf);
  EXPECT_THROW(FileLayout::decode(dec), rpc::XdrError);
}

TEST(LayoutXdr, DeviceEntryRoundTrip) {
  DeviceEntry e{DeviceId{9}, 1234, 2049};
  rpc::XdrEncoder enc;
  e.encode(enc);
  auto buf = std::move(enc).take();
  rpc::XdrDecoder dec(buf);
  const DeviceEntry g = DeviceEntry::decode(dec);
  EXPECT_EQ(g.device, DeviceId{9});
  EXPECT_EQ(g.node_id, 1234u);
  EXPECT_EQ(g.port, 2049);
}

TEST(LayoutXdr, FattrRejectsBadType) {
  rpc::XdrEncoder enc;
  enc.put_u32(7);  // not a file type
  enc.put_u64(0);
  enc.put_u64(0);
  enc.put_u64(0);
  enc.put_i64(0);
  auto buf = std::move(enc).take();
  rpc::XdrDecoder dec(buf);
  EXPECT_THROW(Fattr::decode(dec), rpc::XdrError);
}

}  // namespace
}  // namespace dpnfs::nfs
