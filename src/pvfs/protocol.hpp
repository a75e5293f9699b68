// PVFS2-like parallel file system wire protocol.
//
// Faithful to the architecture the paper exports: a metadata server owning
// the namespace and distribution metadata, and storage daemons owning dfile
// (data file) objects.  Like PVFS2, file *size* is not stored at the
// metadata server — clients gather dfile sizes from the storage nodes and
// reconstruct the logical size (the metadata-decentralization property
// §6.4.3 contrasts with NFSv4's central server).  Native clients gather on
// every open and stat; a pNFS server re-exporting the file system gathers
// only on first resolve and after its restart (core/pvfs_backend.hpp).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "rpc/xdr.hpp"

namespace dpnfs::pvfs {

enum class PvfsStatus : uint32_t {
  kOk = 0,
  kNoEnt = 2,
  kIo = 5,
  kExist = 17,
  kNotDir = 20,
  kIsDir = 21,
  kInval = 22,
  kNotEmpty = 39,
};

const char* pvfs_status_name(PvfsStatus s);

class PvfsError : public std::runtime_error {
 public:
  PvfsError(PvfsStatus status, const std::string& context)
      : std::runtime_error(context + ": " + pvfs_status_name(status)),
        status_(status) {}
  PvfsStatus status() const noexcept { return status_; }

 private:
  PvfsStatus status_;
};

/// Metadata-server procedures.
enum class MetaProc : uint32_t {
  kMkdir = 1,
  kCreate = 2,
  kLookup = 3,
  kRemove = 4,
  kRename = 5,
  kReaddir = 6,
};

/// Storage-daemon (I/O) procedures.  Every reply starts with a PvfsStatus.
///
/// Reads and writes are list I/O ("Noncontiguous I/O through PVFS"): a
/// request carries (offset, length) regions of one object, and the
/// single-range operation is the 1-element list.  ReadArgs/WriteArgs below
/// are their one codec: a 1-element list travels as the classic
/// kRead/kWrite, a longer one as kReadv/kWritev.  A read reply carries one
/// payload per region (the daemon reads the covering span in one disk
/// pass), a write reply one boot verifier covering every region.
///
/// Write and kCommit replies carry the daemon's 8-byte boot verifier after
/// the status: equal write/commit verifiers guarantee no daemon restart
/// intervened, so unstable data reached the journal (mirrors the NFS
/// COMMIT verifier, RFC 5661 §18.32).  On a mismatch the client replays
/// its retained unstable pieces (docs/failures.md, "Restart semantics").
enum class IoProc : uint32_t {
  kRead = 1,
  kWrite = 2,
  kCommit = 3,
  kGetSize = 4,
  kRemove = 5,
  kTruncate = 6,
  kCreate = 7,
  kReadv = 8,
  kWritev = 9,
};

/// One (offset, length) region of an object.
struct IoRegion {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// kRead / kReadv arguments.  One region travels as kRead (oid u64 |
/// offset u64 | length u64, the golden-pinned pre-list layout), any other
/// count as kReadv (oid u64 | count u32 | (offset u64, length u64)*);
/// `proc()` picks.
struct ReadArgs {
  uint64_t object_id = 0;
  std::vector<IoRegion> regions;

  IoProc proc() const {
    return regions.size() == 1 ? IoProc::kRead : IoProc::kReadv;
  }
  uint64_t total_length() const;
  void encode(rpc::XdrEncoder& enc) const;
  /// Parses the layout `proc` names.  Throws PvfsError(kInval) on an empty
  /// or oversized region list.
  static ReadArgs decode(IoProc proc, rpc::XdrDecoder& dec);
};

/// kWrite / kWritev arguments: `data` holds the regions' bytes concatenated
/// in list order.  One region travels as kWrite (oid u64 | offset u64 |
/// payload, the length being the payload's), any other count as kWritev
/// (oid u64 | count u32 | (offset u64, length u64)* | payload).
struct WriteArgs {
  uint64_t object_id = 0;
  std::vector<IoRegion> regions;
  rpc::Payload data;

  IoProc proc() const {
    return regions.size() == 1 ? IoProc::kWrite : IoProc::kWritev;
  }
  void encode(rpc::XdrEncoder& enc) const;
  /// Parses the layout `proc` names.  Throws PvfsError(kInval) on an empty
  /// or oversized region list, or a payload whose length is not the
  /// regions' total.
  static WriteArgs decode(IoProc proc, rpc::XdrDecoder& dec);
};

/// kCommit, kGetSize, kRemove and kCreate arguments: oid u64.
struct ObjectArgs {
  uint64_t object_id = 0;

  void encode(rpc::XdrEncoder& enc) const { enc.put_u64(object_id); }
  static ObjectArgs decode(rpc::XdrDecoder& dec) {
    ObjectArgs a;
    a.object_id = dec.get_u64();
    return a;
  }
};

/// kTruncate arguments: oid u64 | new dfile size u64.
struct TruncateArgs {
  uint64_t object_id = 0;
  uint64_t size = 0;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u64(object_id);
    enc.put_u64(size);
  }
  static TruncateArgs decode(rpc::XdrDecoder& dec) {
    TruncateArgs a;
    a.object_id = dec.get_u64();
    a.size = dec.get_u64();
    return a;
  }
};

/// A storage request body holding `args`.
template <typename Args>
rpc::XdrEncoder encode_args(const Args& args) {
  rpc::XdrEncoder enc;
  enc.put(args);
  return enc;
}

/// One data file (dfile): the portion of a file stored on one storage node.
struct DfileRef {
  uint32_t server_index = 0;  ///< index into the file system's storage list
  uint64_t object_id = 0;     ///< object in that node's store

  bool operator==(const DfileRef&) const = default;

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u32(server_index);
    enc.put_u64(object_id);
  }
  static DfileRef decode(rpc::XdrDecoder& dec) {
    DfileRef d;
    d.server_index = dec.get_u32();
    d.object_id = dec.get_u64();
    return d;
  }
};

/// How a file's bytes are distributed across its dfiles.
enum class DistKind : uint32_t {
  kStripe = 0,   ///< dense round-robin over all dfiles (PVFS2 simple stripe)
  kMirror = 1,   ///< every dfile holds a full copy (RAID-1)
  kErasure = 2,  ///< RS k+m: first ec_k dfiles data, last ec_m parity
};

/// Distribution + dfile metadata for one regular file.
struct FileMeta {
  uint64_t handle = 0;
  uint64_t stripe_unit = 0;
  DistKind kind = DistKind::kStripe;
  uint32_t ec_k = 0;  ///< kErasure only
  uint32_t ec_m = 0;  ///< kErasure only
  std::vector<DfileRef> dfiles;

  /// Number of dfiles carrying file bytes (excludes erasure parity).
  uint32_t data_dfiles() const noexcept {
    return kind == DistKind::kErasure
               ? ec_k
               : static_cast<uint32_t>(dfiles.size());
  }

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u64(handle);
    enc.put_u64(stripe_unit);
    enc.put_array(dfiles);
    enc.put_u32(static_cast<uint32_t>(kind));
    enc.put_u32(ec_k);
    enc.put_u32(ec_m);
  }
  static FileMeta decode(rpc::XdrDecoder& dec) {
    FileMeta m;
    m.handle = dec.get_u64();
    m.stripe_unit = dec.get_u64();
    m.dfiles = dec.get_array<DfileRef>();
    const uint32_t kind = dec.get_u32();
    if (kind > 2) throw rpc::XdrError("bad distribution kind");
    m.kind = static_cast<DistKind>(kind);
    m.ec_k = dec.get_u32();
    m.ec_m = dec.get_u32();
    if (m.kind == DistKind::kErasure &&
        (m.ec_k == 0 || m.ec_m == 0 ||
         m.dfiles.size() != static_cast<size_t>(m.ec_k) + m.ec_m)) {
      throw rpc::XdrError("bad erasure distribution");
    }
    return m;
  }
};

/// Maps a logical byte range onto dfiles.
struct StripeExtent {
  uint32_t dfile_index = 0;
  uint64_t dfile_offset = 0;
  uint64_t file_offset = 0;
  uint64_t length = 0;
};

/// Read mapping: kStripe is dense round-robin over all dfiles; kMirror picks
/// one replica per stripe (rotating, to spread readers); kErasure is dense
/// round-robin over the first ec_k (data) dfiles.
std::vector<StripeExtent> map_stripes(const FileMeta& meta, uint64_t offset,
                                      uint64_t length);

/// Write mapping: differs from map_stripes only for kMirror, where every
/// dfile gets a full copy of the range.  (kErasure parity maintenance is a
/// client-stack concern — see docs/failures.md; the native PVFS write path
/// updates data dfiles only.)
std::vector<StripeExtent> map_stripes_write(const FileMeta& meta,
                                            uint64_t offset, uint64_t length);

/// Logical file size implied by per-dfile sizes under the distribution.
/// A dfile whose size is unknown (daemon unreachable) may be reported as 0;
/// redundant distributions then under-estimate at most the final stripe.
uint64_t logical_size(const FileMeta& meta,
                      const std::vector<uint64_t>& dfile_sizes);

/// Exact size dfile `index` must have when the file's logical size is
/// `size` (truncate targets, rebuild verification).
uint64_t dfile_size_for(const FileMeta& meta, uint32_t index, uint64_t size);

}  // namespace dpnfs::pvfs
