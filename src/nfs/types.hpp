// NFSv4 / NFSv4.1 protocol types.
//
// Status codes and operation numbers use the real protocol values (RFC 3530 /
// RFC 5661) so traces read like the genuine article.  Attributes are a fixed
// struct rather than the full NFSv4 bitmap machinery — the reproduction needs
// size/type/change semantics, not per-attribute negotiation.
#pragma once

#include <cstdint>
#include <string>

#include "rpc/xdr.hpp"

namespace dpnfs::nfs {

/// NFSv4.1 status codes (subset; values per RFC 5661).
enum class Status : uint32_t {
  kOk = 0,
  kPerm = 1,
  kNoEnt = 2,
  kIo = 5,
  kAccess = 13,
  kExist = 17,
  kNotDir = 20,
  kIsDir = 21,
  kInval = 22,
  kNoSpc = 28,
  kNotEmpty = 66,
  kStale = 70,
  kBadHandle = 10001,
  kNotSupp = 10004,
  kDelay = 10008,
  kGrace = 10013,
  kBadSession = 10052,
  kBadStateid = 10025,
  kLayoutUnavailable = 10059,
  kUnknownLayoutType = 10062,
  // Client-side pseudo-status, never on the wire: the RPC transport gave up
  // (deadline expired / lost message / crashed daemon) before any reply.
  kTimedOut = 0xF000,
};

const char* status_name(Status s);

/// Thrown by client-side wrappers when a server returns a non-OK status.
class NfsError : public std::runtime_error {
 public:
  explicit NfsError(Status status, const std::string& context)
      : std::runtime_error(context + ": " + status_name(status)),
        status_(status) {}
  Status status() const noexcept { return status_; }

 private:
  Status status_;
};

/// Opaque-to-the-client file handle.  In this reproduction a handle is a
/// 64-bit id in the issuing server's space; pNFS data-server handles name
/// stripe objects directly (the layout translator's doing).
struct FileHandle {
  uint64_t id = 0;

  bool operator==(const FileHandle&) const = default;
  auto operator<=>(const FileHandle&) const = default;

  void encode(rpc::XdrEncoder& enc) const { enc.put_u64(id); }
  static FileHandle decode(rpc::XdrDecoder& dec) { return FileHandle{dec.get_u64()}; }
};

/// Open/lock state identifier (simplified: one 64-bit token).
struct Stateid {
  uint64_t id = 0;

  bool operator==(const Stateid&) const = default;

  void encode(rpc::XdrEncoder& enc) const { enc.put_u64(id); }
  static Stateid decode(rpc::XdrDecoder& dec) { return Stateid{dec.get_u64()}; }
};

/// Special stateids (RFC 5661 §8.2.3 style).  pNFS data-server access in the
/// prototype uses a reserved stateid, as the paper describes.
inline constexpr Stateid kAnonymousStateid{0};
inline constexpr Stateid kDataServerStateid{0xD5D5D5D5D5D5D5D5ull};

enum class FileType : uint32_t { kRegular = 1, kDirectory = 2 };

/// Fixed attribute bundle (stands in for the NFSv4 attribute bitmap).
struct Fattr {
  FileType type = FileType::kRegular;
  uint64_t fileid = 0;
  uint64_t size = 0;
  uint64_t change = 0;    ///< change attribute (cache validation)
  int64_t mtime_ns = 0;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u32(static_cast<uint32_t>(type));
    enc.put_u64(fileid);
    enc.put_u64(size);
    enc.put_u64(change);
    enc.put_i64(mtime_ns);
  }
  static Fattr decode(rpc::XdrDecoder& dec) {
    Fattr a;
    const uint32_t t = dec.get_u32();
    if (t != 1 && t != 2) throw rpc::XdrError("bad file type");
    a.type = static_cast<FileType>(t);
    a.fileid = dec.get_u64();
    a.size = dec.get_u64();
    a.change = dec.get_u64();
    a.mtime_ns = dec.get_i64();
    return a;
  }
};

/// WRITE stability levels (RFC 5661 §18.32).
enum class StableHow : uint32_t {
  kUnstable = 0,
  kDataSync = 1,
  kFileSync = 2,
};

/// NFSv4.1 operation numbers (RFC 5661 §16.2; real values), plus two
/// vendor operations.
enum class OpCode : uint32_t {
  kClose = 4,
  kCommit = 5,
  kCreate = 6,
  kGetattr = 9,
  kGetFh = 10,
  kLookup = 15,
  kOpen = 18,
  kPutFh = 22,
  kPutRootFh = 24,
  kRead = 25,
  kReaddir = 26,
  kRemove = 28,
  kRename = 29,
  kRestoreFh = 31,
  kSaveFh = 32,
  kSetattr = 34,
  kWrite = 38,
  kExchangeId = 42,
  kCreateSession = 43,
  kGetDeviceInfo = 47,
  kGetDeviceList = 48,
  kLayoutCommit = 49,
  kLayoutGet = 50,
  kLayoutReturn = 51,
  kSequence = 53,
  // Vectored (list) I/O extensions: one operation carrying many
  // (offset, length) regions backed by a single scatter-gather payload.
  // No NFSv4.x RFC defines them.  The RFCs assign 3-58 (RFC 5661), 59-71
  // (RFC 7862, e.g. 64 LAYOUTERROR, 70 WRITE_SAME, 71 CLONE), 72-75
  // (RFC 8276) and 10044 (OP_ILLEGAL), so these sit far above all of them.
  kReadv = 0x8000,
  kWritev = 0x8001,
};

const char* opcode_name(OpCode op);

/// Session identifier granted by CREATE_SESSION.
struct SessionId {
  uint64_t id = 0;

  bool operator==(const SessionId&) const = default;

  void encode(rpc::XdrEncoder& enc) const { enc.put_u64(id); }
  static SessionId decode(rpc::XdrDecoder& dec) { return SessionId{dec.get_u64()}; }
};

}  // namespace dpnfs::nfs
