// NFSv4.1 COMPOUND operation arguments and results.
//
// A COMPOUND request is a sequence of operations executed against an
// implicit "current filehandle" (and a saved filehandle for RENAME).  The
// server evaluates ops in order and stops at the first failure, exactly as
// RFC 5661 prescribes.  Each op's argument/result struct carries its own
// XDR codec; CompoundBuilder/CompoundReader (client side) and the server's
// dispatcher share these.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nfs/layout.hpp"
#include "nfs/types.hpp"
#include "rpc/message.hpp"
#include "rpc/payload.hpp"
#include "rpc/xdr.hpp"

namespace dpnfs::nfs {

// ---------------------------------------------------------------------------
// Session management
// ---------------------------------------------------------------------------

struct ExchangeIdArgs {
  std::string client_owner;

  void encode(rpc::XdrEncoder& enc) const { enc.put_string(client_owner); }
  static ExchangeIdArgs decode(rpc::XdrDecoder& dec) {
    return ExchangeIdArgs{dec.get_string()};
  }
};

struct ExchangeIdRes {
  uint64_t client_id = 0;

  void encode(rpc::XdrEncoder& enc) const { enc.put_u64(client_id); }
  static ExchangeIdRes decode(rpc::XdrDecoder& dec) {
    return ExchangeIdRes{dec.get_u64()};
  }
};

/// Slots a client asks for in CREATE_SESSION, and the most a server
/// grants (it caps the request: the count is wire input).
inline constexpr uint32_t kSessionSlots = 64;

struct CreateSessionArgs {
  uint64_t client_id = 0;
  uint32_t requested_slots = 0;
  /// Backchannel port on the caller's node (0 = no backchannel).  Stands in
  /// for NFSv4.1's fore/back channel binding.
  uint32_t callback_port = 0;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u64(client_id);
    enc.put_u32(requested_slots);
    enc.put_u32(callback_port);
  }
  static CreateSessionArgs decode(rpc::XdrDecoder& dec) {
    CreateSessionArgs a;
    a.client_id = dec.get_u64();
    a.requested_slots = dec.get_u32();
    a.callback_port = dec.get_u32();
    return a;
  }
};

struct CreateSessionRes {
  SessionId session;
  uint32_t max_slots = 0;

  void encode(rpc::XdrEncoder& enc) const {
    session.encode(enc);
    enc.put_u32(max_slots);
  }
  static CreateSessionRes decode(rpc::XdrDecoder& dec) {
    CreateSessionRes r;
    r.session = SessionId::decode(dec);
    r.max_slots = dec.get_u32();
    return r;
  }
};

struct SequenceArgs {
  SessionId session;
  uint32_t slot = 0;

  void encode(rpc::XdrEncoder& enc) const {
    session.encode(enc);
    enc.put_u32(slot);
  }
  static SequenceArgs decode(rpc::XdrDecoder& dec) {
    SequenceArgs a;
    a.session = SessionId::decode(dec);
    a.slot = dec.get_u32();
    return a;
  }
};

// ---------------------------------------------------------------------------
// Filehandle navigation
// ---------------------------------------------------------------------------

struct PutFhArgs {
  FileHandle fh;

  void encode(rpc::XdrEncoder& enc) const { fh.encode(enc); }
  static PutFhArgs decode(rpc::XdrDecoder& dec) {
    return PutFhArgs{FileHandle::decode(dec)};
  }
};

struct GetFhRes {
  FileHandle fh;

  void encode(rpc::XdrEncoder& enc) const { fh.encode(enc); }
  static GetFhRes decode(rpc::XdrDecoder& dec) {
    return GetFhRes{FileHandle::decode(dec)};
  }
};

struct LookupArgs {
  std::string name;

  void encode(rpc::XdrEncoder& enc) const { enc.put_string(name); }
  static LookupArgs decode(rpc::XdrDecoder& dec) {
    return LookupArgs{dec.get_string()};
  }
};

// ---------------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------------

struct CreateArgs {
  std::string name;  ///< directory to create under the current fh

  void encode(rpc::XdrEncoder& enc) const { enc.put_string(name); }
  static CreateArgs decode(rpc::XdrDecoder& dec) {
    return CreateArgs{dec.get_string()};
  }
};

/// OPEN share access (RFC 5661 §18.16 flavour).
enum class ShareAccess : uint32_t { kRead = 1, kWrite = 2, kBoth = 3 };

/// Delegation granted with an OPEN.
enum class DelegationType : uint32_t { kNone = 0, kRead = 1 };

struct OpenArgs {
  std::string name;
  bool create = false;
  ShareAccess share = ShareAccess::kBoth;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_string(name);
    enc.put_bool(create);
    enc.put_u32(static_cast<uint32_t>(share));
  }
  static OpenArgs decode(rpc::XdrDecoder& dec) {
    OpenArgs a;
    a.name = dec.get_string();
    a.create = dec.get_bool();
    const uint32_t s = dec.get_u32();
    if (s < 1 || s > 3) throw rpc::XdrError("bad share access");
    a.share = static_cast<ShareAccess>(s);
    return a;
  }
};

struct OpenRes {
  Stateid stateid;
  Fattr attr;
  DelegationType delegation = DelegationType::kNone;

  void encode(rpc::XdrEncoder& enc) const {
    stateid.encode(enc);
    attr.encode(enc);
    enc.put_u32(static_cast<uint32_t>(delegation));
  }
  static OpenRes decode(rpc::XdrDecoder& dec) {
    OpenRes r;
    r.stateid = Stateid::decode(dec);
    r.attr = Fattr::decode(dec);
    const uint32_t d = dec.get_u32();
    if (d > 1) throw rpc::XdrError("bad delegation type");
    r.delegation = static_cast<DelegationType>(d);
    return r;
  }
};

struct CloseArgs {
  Stateid stateid;

  void encode(rpc::XdrEncoder& enc) const { stateid.encode(enc); }
  static CloseArgs decode(rpc::XdrDecoder& dec) {
    return CloseArgs{Stateid::decode(dec)};
  }
};

struct RemoveArgs {
  std::string name;

  void encode(rpc::XdrEncoder& enc) const { enc.put_string(name); }
  static RemoveArgs decode(rpc::XdrDecoder& dec) {
    return RemoveArgs{dec.get_string()};
  }
};

struct RenameArgs {
  std::string old_name;  ///< in the saved fh directory
  std::string new_name;  ///< in the current fh directory

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_string(old_name);
    enc.put_string(new_name);
  }
  static RenameArgs decode(rpc::XdrDecoder& dec) {
    RenameArgs a;
    a.old_name = dec.get_string();
    a.new_name = dec.get_string();
    return a;
  }
};

struct DirEntry {
  std::string name;
  uint64_t fileid = 0;
  FileType type = FileType::kRegular;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_string(name);
    enc.put_u64(fileid);
    enc.put_u32(static_cast<uint32_t>(type));
  }
  static DirEntry decode(rpc::XdrDecoder& dec) {
    DirEntry e;
    e.name = dec.get_string();
    e.fileid = dec.get_u64();
    const uint32_t t = dec.get_u32();
    if (t != 1 && t != 2) throw rpc::XdrError("bad dirent type");
    e.type = static_cast<FileType>(t);
    return e;
  }
};

struct ReaddirRes {
  std::vector<DirEntry> entries;

  void encode(rpc::XdrEncoder& enc) const { enc.put_array(entries); }
  static ReaddirRes decode(rpc::XdrDecoder& dec) {
    return ReaddirRes{dec.get_array<DirEntry>()};
  }
};

struct GetattrRes {
  Fattr attr;

  void encode(rpc::XdrEncoder& enc) const { attr.encode(enc); }
  static GetattrRes decode(rpc::XdrDecoder& dec) {
    return GetattrRes{Fattr::decode(dec)};
  }
};

struct SetattrArgs {
  bool set_size = false;
  uint64_t size = 0;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_bool(set_size);
    enc.put_u64(size);
  }
  static SetattrArgs decode(rpc::XdrDecoder& dec) {
    SetattrArgs a;
    a.set_size = dec.get_bool();
    a.size = dec.get_u64();
    return a;
  }
};

// ---------------------------------------------------------------------------
// Data operations
// ---------------------------------------------------------------------------

/// One (offset, count) region of a vectored READ/WRITE.  A vectored
/// operation carries a sorted list of these; the data bytes travel as one
/// scatter-gather payload holding the regions' contents concatenated in
/// list order.
struct IoRegion {
  uint64_t offset = 0;
  uint32_t count = 0;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u64(offset);
    enc.put_u32(count);
  }
  static IoRegion decode(rpc::XdrDecoder& dec) {
    IoRegion r;
    r.offset = dec.get_u64();
    r.count = dec.get_u32();
    return r;
  }
};

/// READ / READV arguments.  The request API is vectored: `regions` holds
/// one or more ranges and the classic single-range READ is the 1-element
/// case.  On the wire a 1-element request still travels as OpCode::kRead
/// with the original (golden-pinned) encoding; 2+ regions travel as
/// OpCode::kReadv — `opcode()` picks, so call sites write
/// `b.add(a.opcode(), a)` and stay wire-compatible for singles.
struct ReadArgs {
  Stateid stateid;
  std::vector<IoRegion> regions;

  ReadArgs() = default;
  ReadArgs(Stateid sid, uint64_t offset, uint32_t count)
      : stateid(sid), regions{{offset, count}} {}
  ReadArgs(Stateid sid, std::vector<IoRegion> r)
      : stateid(sid), regions(std::move(r)) {}

  OpCode opcode() const {
    return regions.size() > 1 ? OpCode::kReadv : OpCode::kRead;
  }
  uint64_t total_count() const {
    uint64_t n = 0;
    for (const IoRegion& r : regions) n += r.count;
    return n;
  }

  void encode(rpc::XdrEncoder& enc) const {
    stateid.encode(enc);
    if (regions.size() > 1) {
      enc.put_array(regions);
    } else {
      enc.put_u64(regions.empty() ? 0 : regions[0].offset);
      enc.put_u32(regions.empty() ? 0 : regions[0].count);
    }
  }
  /// Decoder for the single-range kRead encoding.
  static ReadArgs decode(rpc::XdrDecoder& dec) {
    ReadArgs a;
    a.stateid = Stateid::decode(dec);
    const uint64_t offset = dec.get_u64();
    a.regions = {{offset, dec.get_u32()}};
    return a;
  }
  /// Decoder for the multi-range kReadv encoding.
  static ReadArgs decode_vectored(rpc::XdrDecoder& dec) {
    ReadArgs a;
    a.stateid = Stateid::decode(dec);
    a.regions = dec.get_array<IoRegion>();
    if (a.regions.empty()) throw rpc::XdrError("empty READV region list");
    return a;
  }
};

struct ReadRes {
  bool eof = false;
  rpc::Payload data;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_bool(eof);
    enc.put_payload(data);
  }
  static ReadRes decode(rpc::XdrDecoder& dec) {
    ReadRes r;
    r.eof = dec.get_bool();
    r.data = dec.get_payload();
    return r;
  }
};

/// READV result: per-region byte counts plus one concatenated payload.  A
/// region read short (past EOF) contributes fewer bytes than requested;
/// `eof` is set when any region touched end-of-file.
struct ReadvRes {
  bool eof = false;
  std::vector<uint32_t> lengths;
  rpc::Payload data;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_bool(eof);
    enc.put_u32(static_cast<uint32_t>(lengths.size()));
    for (uint32_t n : lengths) enc.put_u32(n);
    enc.put_payload(data);
  }
  static ReadvRes decode(rpc::XdrDecoder& dec) {
    ReadvRes r;
    r.eof = dec.get_bool();
    const uint32_t n = dec.get_u32();
    if (n > (1u << 20)) throw rpc::XdrError("READV length list too long");
    r.lengths.reserve(n);
    for (uint32_t i = 0; i < n; ++i) r.lengths.push_back(dec.get_u32());
    r.data = dec.get_payload();
    return r;
  }
};

/// WRITE / WRITEV arguments, vectored the same way as ReadArgs: `data`
/// holds the regions' bytes concatenated in list order, one stable_how and
/// (in the reply) one verifier cover every region.
struct WriteArgs {
  Stateid stateid;
  StableHow stable = StableHow::kUnstable;
  std::vector<IoRegion> regions;
  rpc::Payload data;

  WriteArgs() = default;
  WriteArgs(Stateid sid, uint64_t offset, StableHow s, rpc::Payload d)
      : stateid(sid),
        stable(s),
        regions{{offset, static_cast<uint32_t>(d.size())}},
        data(std::move(d)) {}
  WriteArgs(Stateid sid, std::vector<IoRegion> r, StableHow s, rpc::Payload d)
      : stateid(sid), stable(s), regions(std::move(r)), data(std::move(d)) {}

  OpCode opcode() const {
    return regions.size() > 1 ? OpCode::kWritev : OpCode::kWrite;
  }
  uint64_t total_count() const {
    uint64_t n = 0;
    for (const IoRegion& r : regions) n += r.count;
    return n;
  }

  void encode(rpc::XdrEncoder& enc) const {
    stateid.encode(enc);
    if (regions.size() > 1) {
      enc.put_u32(static_cast<uint32_t>(stable));
      enc.put_array(regions);
      enc.put_payload(data);
    } else {
      enc.put_u64(regions.empty() ? 0 : regions[0].offset);
      enc.put_u32(static_cast<uint32_t>(stable));
      enc.put_payload(data);
    }
  }
  /// Decoder for the single-range kWrite encoding.
  static WriteArgs decode(rpc::XdrDecoder& dec) {
    WriteArgs a;
    a.stateid = Stateid::decode(dec);
    const uint64_t offset = dec.get_u64();
    const uint32_t s = dec.get_u32();
    if (s > 2) throw rpc::XdrError("bad stable_how");
    a.stable = static_cast<StableHow>(s);
    a.data = dec.get_payload();
    a.regions = {{offset, static_cast<uint32_t>(a.data.size())}};
    return a;
  }
  /// Decoder for the multi-range kWritev encoding.
  static WriteArgs decode_vectored(rpc::XdrDecoder& dec) {
    WriteArgs a;
    a.stateid = Stateid::decode(dec);
    const uint32_t s = dec.get_u32();
    if (s > 2) throw rpc::XdrError("bad stable_how");
    a.stable = static_cast<StableHow>(s);
    a.regions = dec.get_array<IoRegion>();
    a.data = dec.get_payload();
    if (a.regions.empty()) throw rpc::XdrError("empty WRITEV region list");
    if (a.total_count() != a.data.size()) {
      throw rpc::XdrError("WRITEV payload does not match region list");
    }
    return a;
  }
};

struct WriteRes {
  uint64_t count = 0;
  StableHow committed = StableHow::kUnstable;
  /// Post-operation change attribute (keeps the writer's cached attributes
  /// coherent with its own I/O; 0 when the backend does not track one).
  uint64_t post_change = 0;
  /// Write verifier (RFC 5661 §18.32): the server's boot-instance cookie.
  /// A client holding UNSTABLE data must re-send it if a later COMMIT
  /// returns a different verifier — the server restarted in between and its
  /// volatile write cache is gone.
  uint64_t verifier = 0;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u64(count);
    enc.put_u32(static_cast<uint32_t>(committed));
    enc.put_u64(post_change);
    enc.put_u64(verifier);
  }
  static WriteRes decode(rpc::XdrDecoder& dec) {
    WriteRes r;
    r.count = dec.get_u64();
    const uint32_t s = dec.get_u32();
    if (s > 2) throw rpc::XdrError("bad stable_how");
    r.committed = static_cast<StableHow>(s);
    r.post_change = dec.get_u64();
    r.verifier = dec.get_u64();
    return r;
  }
};

struct CommitArgs {
  uint64_t offset = 0;
  uint64_t count = 0;  ///< 0 == whole file

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u64(offset);
    enc.put_u64(count);
  }
  static CommitArgs decode(rpc::XdrDecoder& dec) {
    CommitArgs a;
    a.offset = dec.get_u64();
    a.count = dec.get_u64();
    return a;
  }
};

struct CommitRes {
  /// Write verifier of the incarnation that executed the COMMIT.  Equal to
  /// the verifier of every WRITE it covers iff no restart intervened.
  uint64_t verifier = 0;

  void encode(rpc::XdrEncoder& enc) const { enc.put_u64(verifier); }
  static CommitRes decode(rpc::XdrDecoder& dec) {
    return CommitRes{dec.get_u64()};
  }
};

// ---------------------------------------------------------------------------
// pNFS operations
// ---------------------------------------------------------------------------

struct GetDeviceListRes {
  std::vector<DeviceEntry> devices;

  void encode(rpc::XdrEncoder& enc) const { enc.put_array(devices); }
  static GetDeviceListRes decode(rpc::XdrDecoder& dec) {
    return GetDeviceListRes{dec.get_array<DeviceEntry>()};
  }
};

enum class LayoutIoMode : uint32_t { kRead = 1, kReadWrite = 2 };

struct LayoutGetArgs {
  LayoutIoMode iomode = LayoutIoMode::kReadWrite;
  uint64_t offset = 0;
  uint64_t length = ~0ull;  ///< whole file by default

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u32(static_cast<uint32_t>(iomode));
    enc.put_u64(offset);
    enc.put_u64(length);
  }
  static LayoutGetArgs decode(rpc::XdrDecoder& dec) {
    LayoutGetArgs a;
    const uint32_t m = dec.get_u32();
    if (m != 1 && m != 2) throw rpc::XdrError("bad iomode");
    a.iomode = static_cast<LayoutIoMode>(m);
    a.offset = dec.get_u64();
    a.length = dec.get_u64();
    return a;
  }
};

struct LayoutGetRes {
  FileLayout layout;

  void encode(rpc::XdrEncoder& enc) const { layout.encode(enc); }
  static LayoutGetRes decode(rpc::XdrDecoder& dec) {
    return LayoutGetRes{FileLayout::decode(dec)};
  }
};

struct LayoutCommitArgs {
  uint64_t new_size = 0;
  bool size_changed = false;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u64(new_size);
    enc.put_bool(size_changed);
  }
  static LayoutCommitArgs decode(rpc::XdrDecoder& dec) {
    LayoutCommitArgs a;
    a.new_size = dec.get_u64();
    a.size_changed = dec.get_bool();
    return a;
  }
};

struct LayoutCommitRes {
  /// Post-commit change attribute (0 when untracked).
  uint64_t post_change = 0;

  void encode(rpc::XdrEncoder& enc) const { enc.put_u64(post_change); }
  static LayoutCommitRes decode(rpc::XdrDecoder& dec) {
    return LayoutCommitRes{dec.get_u64()};
  }
};

struct LayoutReturnArgs {
  uint64_t offset = 0;
  uint64_t length = ~0ull;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u64(offset);
    enc.put_u64(length);
  }
  static LayoutReturnArgs decode(rpc::XdrDecoder& dec) {
    LayoutReturnArgs a;
    a.offset = dec.get_u64();
    a.length = dec.get_u64();
    return a;
  }
};

// ---------------------------------------------------------------------------
// Callback (backchannel) operations
// ---------------------------------------------------------------------------

/// RPC procedure numbers on the NFS program.
inline constexpr uint32_t kProcCompound = 1;
inline constexpr uint32_t kProcCbLayoutRecall = 2;
inline constexpr uint32_t kProcCbRecallDelegation = 3;
static_assert(kProcCbRecallDelegation ==
                  rpc::program_proc_count(rpc::Program::kNfs),
              "RPC span names cover procs 1..program_proc_count");

struct CbLayoutRecallArgs {
  FileHandle fh;

  void encode(rpc::XdrEncoder& enc) const { fh.encode(enc); }
  static CbLayoutRecallArgs decode(rpc::XdrDecoder& dec) {
    return CbLayoutRecallArgs{FileHandle::decode(dec)};
  }
};

struct CbRecallDelegationArgs {
  FileHandle fh;

  void encode(rpc::XdrEncoder& enc) const { fh.encode(enc); }
  static CbRecallDelegationArgs decode(rpc::XdrDecoder& dec) {
    return CbRecallDelegationArgs{FileHandle::decode(dec)};
  }
};

// ---------------------------------------------------------------------------
// COMPOUND framing helpers
// ---------------------------------------------------------------------------

/// Client-side COMPOUND assembly: ops are appended in execution order.
class CompoundBuilder {
 public:
  CompoundBuilder() { enc_.put_u32(0); /* op count, back-patched */ }

  /// Op with no arguments (PUTROOTFH, GETFH, SAVEFH, RESTOREFH, READDIR...).
  void add(OpCode op) {
    ++count_;
    enc_.put_u32(static_cast<uint32_t>(op));
  }

  template <typename Args>
  void add(OpCode op, const Args& args) {
    ++count_;
    enc_.put_u32(static_cast<uint32_t>(op));
    args.encode(enc_);
  }

  uint32_t op_count() const noexcept { return count_; }

  /// Finalizes into an encoder suitable for RpcClient::call.
  rpc::XdrEncoder finish() && {
    enc_.patch_u32(0, count_);
    return std::move(enc_);
  }

 private:
  uint32_t count_ = 0;
  rpc::XdrEncoder enc_;
};

/// Per-op result header inside a COMPOUND reply.
struct OpResultHeader {
  OpCode op;
  Status status;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u32(static_cast<uint32_t>(op));
    enc.put_u32(static_cast<uint32_t>(status));
  }
  static OpResultHeader decode(rpc::XdrDecoder& dec) {
    OpResultHeader h;
    h.op = static_cast<OpCode>(dec.get_u32());
    h.status = static_cast<Status>(dec.get_u32());
    return h;
  }
};

}  // namespace dpnfs::nfs
