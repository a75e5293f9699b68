// Golden wire-format tests: exact byte sequences for representative
// messages.  These freeze the on-the-wire protocol — any codec change that
// alters serialization (and would silently break mixed-version clusters in
// a real deployment) fails here first.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lfs/object_store.hpp"
#include "nfs/ops.hpp"
#include "pvfs/client.hpp"
#include "pvfs/storage_server.hpp"
#include "rpc/message.hpp"
#include "sim/network.hpp"

namespace dpnfs {
namespace {

std::string hex(const std::vector<std::byte>& buf) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(buf.size() * 2);
  for (std::byte b : buf) {
    out.push_back(digits[static_cast<uint8_t>(b) >> 4]);
    out.push_back(digits[static_cast<uint8_t>(b) & 0xF]);
  }
  return out;
}

// Every NFSv4.1 operation the simulator speaks, with its number and name
// from the RFC 5661 §16.2 operation table (RFC 8881 §18 keeps them).
struct RfcOp {
  nfs::OpCode op;
  uint32_t number;
  const char* name;
};
constexpr RfcOp kRfcOps[] = {
    {nfs::OpCode::kClose, 4, "CLOSE"},
    {nfs::OpCode::kCommit, 5, "COMMIT"},
    {nfs::OpCode::kCreate, 6, "CREATE"},
    {nfs::OpCode::kGetattr, 9, "GETATTR"},
    {nfs::OpCode::kGetFh, 10, "GETFH"},
    {nfs::OpCode::kLookup, 15, "LOOKUP"},
    {nfs::OpCode::kOpen, 18, "OPEN"},
    {nfs::OpCode::kPutFh, 22, "PUTFH"},
    {nfs::OpCode::kPutRootFh, 24, "PUTROOTFH"},
    {nfs::OpCode::kRead, 25, "READ"},
    {nfs::OpCode::kReaddir, 26, "READDIR"},
    {nfs::OpCode::kRemove, 28, "REMOVE"},
    {nfs::OpCode::kRename, 29, "RENAME"},
    {nfs::OpCode::kRestoreFh, 31, "RESTOREFH"},
    {nfs::OpCode::kSaveFh, 32, "SAVEFH"},
    {nfs::OpCode::kSetattr, 34, "SETATTR"},
    {nfs::OpCode::kWrite, 38, "WRITE"},
    {nfs::OpCode::kExchangeId, 42, "EXCHANGE_ID"},
    {nfs::OpCode::kCreateSession, 43, "CREATE_SESSION"},
    {nfs::OpCode::kGetDeviceInfo, 47, "GETDEVICEINFO"},
    {nfs::OpCode::kGetDeviceList, 48, "GETDEVICELIST"},
    {nfs::OpCode::kLayoutCommit, 49, "LAYOUTCOMMIT"},
    {nfs::OpCode::kLayoutGet, 50, "LAYOUTGET"},
    {nfs::OpCode::kLayoutReturn, 51, "LAYOUTRETURN"},
    {nfs::OpCode::kSequence, 53, "SEQUENCE"},
};

TEST(WireGolden, OpCodesMatchTheRfcTable) {
  for (const RfcOp& r : kRfcOps) {
    EXPECT_EQ(static_cast<uint32_t>(r.op), r.number) << r.name;
    EXPECT_STREQ(nfs::opcode_name(r.op), r.name);
  }
}

TEST(WireGolden, VendorOpCodesAvoidEveryRfcNumber) {
  // RFC 5661 assigns 3-58, RFC 7862 59-71 and RFC 8276 72-75; 10044 is
  // OP_ILLEGAL.  The list-I/O vendor operations take none of them.
  EXPECT_EQ(static_cast<uint32_t>(nfs::OpCode::kReadv), 0x8000u);
  EXPECT_EQ(static_cast<uint32_t>(nfs::OpCode::kWritev), 0x8001u);
  for (nfs::OpCode op : {nfs::OpCode::kReadv, nfs::OpCode::kWritev}) {
    const uint32_t n = static_cast<uint32_t>(op);
    EXPECT_TRUE(n < 3 || n > 75) << nfs::opcode_name(op);
    EXPECT_NE(n, 10044u) << nfs::opcode_name(op);
  }
}

TEST(WireGolden, CallHeader) {
  rpc::XdrEncoder enc;
  rpc::CallHeader{0x2A, 100003, 4, 1, 7, 9, 0, "ab"}.encode(enc);
  // xid | prog | vers | proc | trace | span | flags | strlen | "ab" + 2 pad
  EXPECT_EQ(hex(std::move(enc).take()),
            "0000002a"           // xid 42
            "000186a3"           // program 100003
            "00000004"           // version 4
            "00000001"           // procedure COMPOUND
            "0000000000000007"   // trace id 7
            "0000000000000009"   // span id 9
            "00000000"           // flags (unsampled)
            "00000002"           // principal length
            "61620000");         // "ab" + XDR padding
}

TEST(WireGolden, CallHeaderSampledBit) {
  rpc::XdrEncoder enc;
  rpc::CallHeader{0x2A, 100003, 4, 1, 7, 9, rpc::kFlagSampled, "ab"}
      .encode(enc);
  // The head-sampling verdict is bit 0 of the flags word: this is how a
  // trace's "keep span detail" decision crosses the wire to other nodes.
  EXPECT_EQ(hex(std::move(enc).take()),
            "0000002a"           // xid 42
            "000186a3"           // program 100003
            "00000004"           // version 4
            "00000001"           // procedure COMPOUND
            "0000000000000007"   // trace id 7
            "0000000000000009"   // span id 9
            "00000001"           // flags: kFlagSampled
            "00000002"           // principal length
            "61620000");         // "ab" + XDR padding
}

TEST(WireGolden, CallHeaderTenantBit) {
  rpc::XdrEncoder enc;
  rpc::CallHeader h{0x2A, 100003, 4, 1, 7, 9, rpc::kFlagSampled, "ab"};
  h.tenant_id = 0x11;
  h.encode(enc);
  // A nonzero tenant sets bit 1 of the flags word and appends the tenant u32
  // between flags and principal; zero-tenant headers (the two pins above)
  // stay byte-identical to the legacy layout.
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "0000002a"           // xid 42
            "000186a3"           // program 100003
            "00000004"           // version 4
            "00000001"           // procedure COMPOUND
            "0000000000000007"   // trace id 7
            "0000000000000009"   // span id 9
            "00000003"           // flags: kFlagSampled | kFlagHasTenant
            "00000011"           // tenant id 17
            "00000002"           // principal length
            "61620000");         // "ab" + XDR padding
  rpc::XdrDecoder dec(wire);
  const rpc::CallHeader back = rpc::CallHeader::decode(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back.tenant_id, 0x11u);
  EXPECT_EQ(back.principal, "ab");
  EXPECT_NE(back.flags & rpc::kFlagSampled, 0u);
}

TEST(WireGolden, SequencePutFhReadCompound) {
  nfs::CompoundBuilder b;
  b.add(nfs::OpCode::kSequence, nfs::SequenceArgs{nfs::SessionId{1}, 0});
  b.add(nfs::OpCode::kPutFh, nfs::PutFhArgs{nfs::FileHandle{0xBEEF}});
  b.add(nfs::OpCode::kRead, nfs::ReadArgs{nfs::Stateid{7}, 0x1000, 0x2000});
  rpc::XdrEncoder enc = std::move(b).finish();
  EXPECT_EQ(hex(std::move(enc).take()),
            "00000003"          // 3 ops
            "00000035"          // SEQUENCE (53)
            "0000000000000001"  // session id 1
            "00000000"          // slot 0
            "00000016"          // PUTFH (22)
            "000000000000beef"  // filehandle
            "00000019"          // READ (25)
            "0000000000000007"  // stateid 7
            "0000000000001000"  // offset
            "00002000");        // count
}

TEST(WireGolden, SequencePutFhReadvCompound) {
  // Two or more regions switch the op to READV (0x8000, a vendor number no
  // RFC assigns); the 1-element case stays byte-identical to the classic
  // READ pin above.
  nfs::ReadArgs readv{nfs::Stateid{7}, {{0x1000, 0x800}, {0x5000, 0x800}}};
  EXPECT_EQ(readv.opcode(), nfs::OpCode::kReadv);
  nfs::CompoundBuilder b;
  b.add(nfs::OpCode::kSequence, nfs::SequenceArgs{nfs::SessionId{1}, 0});
  b.add(nfs::OpCode::kPutFh, nfs::PutFhArgs{nfs::FileHandle{0xBEEF}});
  b.add(readv.opcode(), readv);
  rpc::XdrEncoder enc = std::move(b).finish();
  EXPECT_EQ(hex(std::move(enc).take()),
            "00000003"          // 3 ops
            "00000035"          // SEQUENCE (53)
            "0000000000000001"  // session id 1
            "00000000"          // slot 0
            "00000016"          // PUTFH (22)
            "000000000000beef"  // filehandle
            "00008000"          // READV (0x8000)
            "0000000000000007"  // stateid 7
            "00000002"          // 2 regions
            "0000000000001000"  // region 0 offset
            "00000800"          // region 0 count
            "0000000000005000"  // region 1 offset
            "00000800");        // region 1 count
}

TEST(WireGolden, WritevArgsRoundTrip) {
  std::vector<std::byte> bytes(12);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i);
  }
  nfs::WriteArgs w{nfs::Stateid{7},
                   {{0x1000, 8}, {0x3000, 4}},
                   nfs::StableHow::kUnstable,
                   rpc::Payload::inline_bytes(std::move(bytes))};
  EXPECT_EQ(w.opcode(), nfs::OpCode::kWritev);
  rpc::XdrEncoder enc;
  w.encode(enc);
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "0000000000000007"  // stateid 7
            "00000000"          // stable = UNSTABLE4 (covers every region)
            "00000002"          // 2 regions
            "0000000000001000"  // region 0 offset
            "00000008"          // region 0 count
            "0000000000003000"  // region 1 offset
            "00000004"          // region 1 count
            "00000001"          // payload: inline discriminant
            "0000000c"          // 12 bytes — regions' data concatenated
            "000102030405060708090a0b");
  rpc::XdrDecoder dec(wire);
  const nfs::WriteArgs back = nfs::WriteArgs::decode_vectored(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back.regions.size(), 2u);
  EXPECT_EQ(back.regions[0].offset, 0x1000u);
  EXPECT_EQ(back.regions[0].count, 8u);
  EXPECT_EQ(back.regions[1].offset, 0x3000u);
  EXPECT_EQ(back.regions[1].count, 4u);
  EXPECT_EQ(back.total_count(), back.data.size());
}

TEST(WireGolden, SingleRangeWriteArgsKeepLegacyLayout) {
  // The 1-element vectored WriteArgs must emit the pre-LISTIO layout
  // byte-for-byte (offset before stable_how, no region list): old and new
  // nodes interoperate on single-range WRITEs.
  nfs::WriteArgs w{nfs::Stateid{7}, 0x1000, nfs::StableHow::kFileSync,
                   rpc::Payload::from_string("hi")};
  EXPECT_EQ(w.opcode(), nfs::OpCode::kWrite);
  rpc::XdrEncoder enc;
  w.encode(enc);
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "0000000000000007"  // stateid 7
            "0000000000001000"  // offset
            "00000002"          // stable = FILE_SYNC4
            "00000001"          // payload: inline discriminant
            "00000002"          // length 2
            "68690000");        // "hi" + padding
  rpc::XdrDecoder dec(wire);
  const nfs::WriteArgs back = nfs::WriteArgs::decode(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back.regions.size(), 1u);
  EXPECT_EQ(back.regions[0].offset, 0x1000u);
  EXPECT_EQ(back.regions[0].count, 2u);
}

TEST(WireGolden, ReadvResEncoding) {
  std::vector<std::byte> bytes(8);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i);
  }
  nfs::ReadvRes res;
  res.eof = true;
  res.lengths = {5, 3};
  res.data = rpc::Payload::inline_bytes(std::move(bytes));
  rpc::XdrEncoder enc;
  res.encode(enc);
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "00000001"    // eof (any region hit it)
            "00000002"    // 2 per-region lengths
            "00000005"    // region 0 delivered 5 bytes
            "00000003"    // region 1 delivered 3 bytes
            "00000001"    // payload: inline discriminant
            "00000008"    // one scatter-gather body, 8 bytes
            "0001020304050607");
  rpc::XdrDecoder dec(wire);
  const nfs::ReadvRes back = nfs::ReadvRes::decode(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_TRUE(back.eof);
  EXPECT_EQ(back.lengths, (std::vector<uint32_t>{5, 3}));
  EXPECT_EQ(back.data.size(), 8u);
}

TEST(WireGolden, FileLayout) {
  nfs::FileLayout l;
  l.aggregation = nfs::AggregationType::kRoundRobin;
  l.stripe_unit = 0x200000;
  l.devices = {nfs::DeviceId{0}, nfs::DeviceId{1}};
  l.fhs = {nfs::FileHandle{10}, nfs::FileHandle{11}};
  rpc::XdrEncoder enc;
  l.encode(enc);
  EXPECT_EQ(hex(std::move(enc).take()),
            "00000001"          // round-robin
            "0000000000200000"  // 2 MiB stripe unit
            "00000002"          // 2 devices
            "00000000"          // device 0
            "00000001"          // device 1
            "00000002"          // 2 filehandles
            "000000000000000a"  // fh 10
            "000000000000000b"  // fh 11
            "00000000");        // 0 params
}

TEST(WireGolden, ErasureCodedFileLayout) {
  // EC(2+1): the k/m split rides the existing params list — no new wire
  // fields, so pre-redundancy decoders still parse the layout body.
  nfs::FileLayout l;
  l.aggregation = nfs::AggregationType::kErasureCoded;
  l.stripe_unit = 0x10000;
  l.devices = {nfs::DeviceId{0}, nfs::DeviceId{1}, nfs::DeviceId{2}};
  l.fhs = {nfs::FileHandle{7}, nfs::FileHandle{8}, nfs::FileHandle{9}};
  l.params = {2, 1};  // k data + m parity fragments
  rpc::XdrEncoder enc;
  l.encode(enc);
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "00000006"          // erasure-coded
            "0000000000010000"  // 64 KiB stripe unit
            "00000003"          // 3 devices (k + m)
            "00000000"          // device 0 (data)
            "00000001"          // device 1 (data)
            "00000002"          // device 2 (parity)
            "00000003"          // 3 filehandles
            "0000000000000007"  // fh 7
            "0000000000000008"  // fh 8
            "0000000000000009"  // fh 9
            "00000002"          // 2 params
            "0000000000000002"  // k = 2
            "0000000000000001"); // m = 1
  rpc::XdrDecoder dec(wire);
  const nfs::FileLayout back = nfs::FileLayout::decode(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back.aggregation, nfs::AggregationType::kErasureCoded);
  EXPECT_EQ(back.params, (std::vector<uint64_t>{2, 1}));
}

TEST(WireGolden, WriteResAndCommitResCarryBootVerifier) {
  rpc::XdrEncoder enc;
  nfs::WriteRes{0x2000, nfs::StableHow::kUnstable, 5, 0x1122334455667788ull}
      .encode(enc);
  nfs::CommitRes{0xCAFEF00DD15EA5E5ull}.encode(enc);
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "0000000000002000"    // count
            "00000000"            // committed = UNSTABLE4
            "0000000000000005"    // post-op change attribute
            "1122334455667788"    // WRITE verifier (boot-instance cookie)
            "cafef00dd15ea5e5");  // COMMIT verifier
  // Round-trip: a restarted server's fresh verifier must survive the codec
  // bit-exactly — replay detection compares these 64 bits for equality.
  rpc::XdrDecoder dec(wire);
  const nfs::WriteRes w = nfs::WriteRes::decode(dec);
  const nfs::CommitRes c = nfs::CommitRes::decode(dec);
  EXPECT_EQ(w.verifier, 0x1122334455667788ull);
  EXPECT_EQ(c.verifier, 0xCAFEF00DD15EA5E5ull);
  EXPECT_NE(w.verifier, c.verifier);  // mismatch == restart intervened
}

TEST(WireGolden, InlineVsVirtualPayload) {
  rpc::XdrEncoder enc;
  enc.put_payload(rpc::Payload::from_string("hi"));
  enc.put_payload(rpc::Payload::virtual_bytes(0x100000));
  EXPECT_EQ(hex(std::move(enc).take()),
            "00000001"          // inline discriminant
            "00000002"          // length 2
            "68690000"          // "hi" + padding
            "00000000"          // virtual discriminant
            "0000000000100000");  // 1 MiB virtual length
}

TEST(WireGolden, OpenArgsAndRes) {
  rpc::XdrEncoder enc;
  nfs::OpenArgs{"f", true, nfs::ShareAccess::kRead}.encode(enc);
  nfs::OpenRes{nfs::Stateid{3},
               nfs::Fattr{nfs::FileType::kRegular, 9, 100, 2, 0},
               nfs::DelegationType::kRead}
      .encode(enc);
  EXPECT_EQ(hex(std::move(enc).take()),
            "00000001" "66000000"  // name "f"
            "00000001"             // create = true
            "00000001"             // share = read
            "0000000000000003"     // stateid
            "00000001"             // type regular
            "0000000000000009"     // fileid
            "0000000000000064"     // size 100
            "0000000000000002"     // change 2
            "0000000000000000"     // mtime
            "00000001");           // read delegation
}

// ---------------------------------------------------------------------------
// PVFS storage-daemon protocol: the data procedures' argument bytes as a
// PvfsClient sends them, and a real daemon's reply bytes to the same
// requests.
// ---------------------------------------------------------------------------

std::vector<std::byte> unhex(std::string_view s) {
  std::vector<std::byte> out;
  for (size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(static_cast<std::byte>(
        std::stoi(std::string(s.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// The rest of `dec` as hex.
std::string rest_hex(rpc::XdrDecoder& dec) {
  return hex(dec.get_opaque_fixed(dec.remaining()));
}

using pvfs::IoProc;
using PvfsRequest = std::pair<IoProc, std::string>;  // procedure, args hex

// Dfiles 0x42 and 0x43 of a 4-byte-stripe file, both on daemon 0.
constexpr std::string_view kReadOne =   // kRead 0x42 [0, 4)
    "0000000000000042"  // object id
    "0000000000000000"  // offset
    "0000000000000004"; // length
constexpr std::string_view kReadvTwo =  // kReadv 0x42 [0, 4) [4, 8)
    "0000000000000042"  // object id
    "00000002"          // 2 regions
    "0000000000000000" "0000000000000004"   // region 0: offset, length
    "0000000000000004" "0000000000000004";  // region 1: offset, length
constexpr std::string_view kWriteInline =  // kWrite 0x42 "abcd" at 0
    "0000000000000042"  // object id
    "0000000000000000"  // offset (the length is the payload's)
    "00000001"          // payload: inline discriminant
    "00000004"          // length 4
    "61626364";         // "abcd"
constexpr std::string_view kWritevInline =  // kWritev 0x42 "abcd" "ijkl"
    "0000000000000042"  // object id
    "00000002"          // 2 regions
    "0000000000000000" "0000000000000004"  // region 0: offset, length
    "0000000000000004" "0000000000000004"  // region 1: offset, length
    "00000001"          // payload: inline discriminant
    "00000008"          // 8 bytes: the regions' data concatenated
    "61626364696a6b6c";
constexpr std::string_view kWriteVirtual =  // kWrite 0x42, 4 virtual bytes
    "0000000000000042"  // object id
    "0000000000000000"  // offset
    "00000000"          // payload: virtual discriminant
    "0000000000000004"; // 4 bytes, not materialized
constexpr std::string_view kWritevVirtual =  // kWritev 0x42, 8 virtual bytes
    "0000000000000042"  // object id
    "00000002"          // 2 regions
    "0000000000000000" "0000000000000004"  // region 0: offset, length
    "0000000000000004" "0000000000000004"  // region 1: offset, length
    "00000000"          // payload: virtual discriminant
    "0000000000000008"; // 8 bytes, not materialized
constexpr std::string_view kObject42 = "0000000000000042";  // kCommit, kGetSize
constexpr std::string_view kTruncate42 =  // kTruncate 0x42 to 4 bytes
    "0000000000000042"   // object id
    "0000000000000004";  // dfile size

/// A stand-in storage daemon that records every request's procedure and
/// argument bytes and answers with the smallest successful reply, so a
/// real PvfsClient can be driven through each data procedure.
sim::Task<void> capture_request(std::vector<PvfsRequest>& requests,
                                const rpc::CallContext& ctx,
                                rpc::XdrDecoder& args,
                                rpc::XdrEncoder& results) {
  const auto proc = static_cast<IoProc>(ctx.header.proc);
  const std::vector<std::byte> raw = args.get_opaque_fixed(args.remaining());
  requests.emplace_back(proc, hex(raw));
  results.put_u32(0);  // PVFS_OK
  switch (proc) {
    case IoProc::kRead:
      results.put_payload(rpc::Payload{});
      break;
    case IoProc::kReadv: {
      rpc::XdrDecoder dec(raw);
      (void)dec.get_u64();
      for (uint32_t n = dec.get_u32(); n > 0; --n) {
        results.put_payload(rpc::Payload{});
      }
      break;
    }
    case IoProc::kWrite:
    case IoProc::kWritev:
    case IoProc::kCommit:
      results.put_u64(0x5EED);  // one boot verifier throughout
      break;
    case IoProc::kGetSize:
      results.put_u64(0);
      break;
    default:
      break;
  }
  co_return;
}

struct PvfsWireRig {
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};
  sim::Node& daemon_node = net.add_node(sim::NodeParams{
      .name = "io0", .nic = {}, .disk = sim::DiskParams{}, .cpu = {}});
  sim::Node& client_node = net.add_node(sim::NodeParams{
      .name = "client", .nic = {}, .disk = std::nullopt, .cpu = {}});
};

TEST(WireGolden, PvfsClientDataRequests) {
  PvfsWireRig rig;
  std::vector<PvfsRequest> requests;
  rpc::RpcServer daemon(
      rig.fabric, rig.daemon_node, rpc::kPvfsIoPort, 1,
      [&requests](const rpc::CallContext& ctx, rpc::XdrDecoder& args,
                  rpc::XdrEncoder& results) {
        return capture_request(requests, ctx, args, results);
      });
  daemon.start();
  pvfs::PvfsClient client(rig.fabric, rig.client_node, daemon.address(),
                          {daemon.address()}, "tester@SIM");
  auto file = std::make_shared<pvfs::PvfsFile>();
  file->meta.handle = 1;
  file->meta.stripe_unit = 4;
  file->meta.dfiles = {pvfs::DfileRef{0, 0x42}, pvfs::DfileRef{0, 0x43}};
  file->size = 16;
  rig.sim.spawn([](pvfs::PvfsClient& c,
                   pvfs::PvfsFilePtr f) -> sim::Task<void> {
    (void)co_await c.read(f, 0, 4);
    (void)co_await c.read(f, 0, 16);
    co_await c.write(f, 0, rpc::Payload::from_string("abcd"));
    co_await c.write(f, 0, rpc::Payload::from_string("abcdefghijklmnop"));
    co_await c.write(f, 0, rpc::Payload::virtual_bytes(4));
    co_await c.write(f, 0, rpc::Payload::virtual_bytes(16));
    co_await c.fsync(f);
    (void)co_await c.fetch_size(f);
    co_await c.truncate(f, 6);
  }(client, file));
  rig.sim.run();

  const auto on_43 = [](std::string_view on_42) {
    std::string s(on_42);
    s[15] = '3';  // object id 0x42 -> 0x43
    return s;
  };
  const std::vector<PvfsRequest> expected = {
      // A single region travels in the classic kRead/kWrite layout; two
      // or more as a kReadv/kWritev region list.
      {IoProc::kRead, std::string(kReadOne)},
      {IoProc::kReadv, std::string(kReadvTwo)},
      {IoProc::kReadv, on_43(kReadvTwo)},
      {IoProc::kWrite, std::string(kWriteInline)},
      {IoProc::kWritev, std::string(kWritevInline)},
      {IoProc::kWritev, "0000000000000043"
                        "00000002"
                        "0000000000000000" "0000000000000004"
                        "0000000000000004" "0000000000000004"
                        "00000001"
                        "00000008"
                        "656667686d6e6f70"},  // "efgh" "mnop"
      {IoProc::kWrite, std::string(kWriteVirtual)},
      {IoProc::kWritev, std::string(kWritevVirtual)},
      {IoProc::kWritev, on_43(kWritevVirtual)},
      {IoProc::kCommit, std::string(kObject42)},
      {IoProc::kCommit, on_43(kObject42)},
      {IoProc::kGetSize, std::string(kObject42)},
      {IoProc::kGetSize, on_43(kObject42)},
      // Size 6 over two 4-byte-stripe dfiles: 4 bytes on 0x42, 2 on 0x43.
      {IoProc::kTruncate, std::string(kTruncate42)},
      {IoProc::kTruncate, "0000000000000043"
                          "0000000000000002"},
  };
  ASSERT_EQ(requests.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(requests[i].first, expected[i].first) << "request " << i;
    EXPECT_EQ(requests[i].second, expected[i].second) << "request " << i;
  }
}

TEST(WireGolden, PvfsStorageDaemonReplies) {
  // The golden requests above, sent to a real daemon: its reply bytes
  // after the RPC header.  A list reply is a status then one payload per
  // region (kReadv) or one verifier for every region (kWritev).
  PvfsWireRig rig;
  lfs::ObjectStore store(rig.daemon_node);
  pvfs::PvfsStorageServer daemon(rig.fabric, rig.daemon_node,
                                 rpc::kPvfsIoPort, store);
  daemon.start();
  rpc::RpcClient rpc(rig.fabric, rig.client_node, "tester@SIM");
  std::vector<std::string> replies;
  const std::vector<std::pair<IoProc, std::string>> requests = {
      {IoProc::kWritev, std::string(kWritevInline)},
      {IoProc::kRead, std::string(kReadOne)},
      {IoProc::kReadv, std::string(kReadvTwo)},
      {IoProc::kWrite, std::string(kWriteInline)},
      {IoProc::kGetSize, std::string(kObject42)},
      {IoProc::kCommit, std::string(kObject42)},
      {IoProc::kTruncate, std::string(kTruncate42)},
      {IoProc::kReadv, std::string(kReadvTwo)},     // region 1 now past EOF
      {IoProc::kRead, "0000000000000043"            // no such object
                      "0000000000000000"
                      "0000000000000004"},
      {IoProc::kWrite, std::string(kWriteVirtual)},
      {IoProc::kWritev, std::string(kWritevVirtual)},
      {IoProc::kReadv, "0000000000000042"           // empty region list
                       "00000000"},
  };
  rig.sim.spawn([](rpc::RpcClient& rpc, rpc::RpcAddress to,
                   const std::vector<std::pair<IoProc, std::string>>& reqs,
                   std::vector<std::string>& out) -> sim::Task<void> {
    for (const auto& [proc, args_hex] : reqs) {
      rpc::XdrEncoder args;
      args.put_opaque_fixed(unhex(args_hex));
      auto reply = co_await rpc.call(to, rpc::Program::kPvfsIo, 2,
                                     static_cast<uint32_t>(proc),
                                     std::move(args));
      EXPECT_TRUE(reply.ok());
      auto body = reply.body();
      out.push_back(rest_hex(body));
    }
  }(rpc, daemon.address(), requests, replies));
  rig.sim.run();

  // No fault injector: the verifier is the node/port-derived constant.
  const std::string verifier = "9e3779b97f4a7112";
  const std::vector<std::string> expected = {
      "00000000" + verifier,                  // kWritev: status, verifier
      "00000000"                              // kRead: status
      "00000001" "00000004" "61626364",       //   inline "abcd"
      "00000000"                              // kReadv: status
      "00000001" "00000004" "61626364"        //   region 0 "abcd"
      "00000001" "00000004" "696a6b6c",       //   region 1 "ijkl"
      "00000000" + verifier,                  // kWrite: status, verifier
      "00000000" "0000000000000008",          // kGetSize: 8 bytes
      "00000000" + verifier,                  // kCommit: status, verifier
      "00000000",                             // kTruncate
      "00000000"                              // kReadv after truncate:
      "00000001" "00000004" "61626364"        //   region 0 "abcd"
      "00000001" "00000000",                  //   region 1 empty
      "00000000"                              // kRead of a missing object:
      "00000000" "0000000000000000",          //   an empty virtual payload
      "00000000" + verifier,                  // kWrite (virtual)
      "00000000" + verifier,                  // kWritev (virtual)
      "00000016",                             // PVFS_EINVAL, nothing else
  };
  EXPECT_EQ(replies, expected);
}

}  // namespace
}  // namespace dpnfs
