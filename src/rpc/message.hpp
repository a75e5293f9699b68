// ONC-RPC style message framing (simplified RFC 5531).
//
// Calls carry (xid, program, version, procedure, principal); replies carry
// (xid, status).  The principal string stands in for RPCSEC_GSS credentials:
// it crosses the wire with every call and servers evaluate it, preserving
// the paper's "NFSv4.1 security on the control and data paths" property
// without a Kerberos substrate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/xdr.hpp"
#include "util/pool.hpp"

namespace dpnfs::rpc {

/// Program numbers for the protocols in this reproduction.
enum class Program : uint32_t {
  kNfs = 100003,        ///< NFSv4 / NFSv4.1 (incl. pNFS ops)
  kPvfsMeta = 400100,   ///< PVFS2-like metadata protocol
  kPvfsIo = 400101,     ///< PVFS2-like storage/IO protocol
  kPvfsMgmt = 400102,   ///< PVFS2-like management protocol
};

/// The highest procedure number a program defines (its procedures run
/// 1..N).  nfs/ops.hpp and pvfs/protocol.hpp pin their numbering to it.
constexpr uint32_t program_proc_count(Program prog) {
  switch (prog) {
    case Program::kNfs: return 3;
    case Program::kPvfsMeta: return 6;
    case Program::kPvfsIo: return 9;
    case Program::kPvfsMgmt: return 0;
  }
  return 0;
}

/// CallHeader::flags bit: the caller's trace carries a head-sampling "keep
/// span detail" verdict.  Servers copy it into the child spans they open so
/// a trace is sampled (or not) end-to-end, never per-hop.
inline constexpr uint32_t kFlagSampled = 0x1;

/// CallHeader::flags bit: an optional `tenant_id` u32 follows the flags
/// word.  Set by the encoder iff `tenant_id != 0`, so legacy (untenanted)
/// traffic stays byte-identical to the pre-tenant wire layout.
inline constexpr uint32_t kFlagHasTenant = 0x2;

struct CallHeader {
  uint32_t xid = 0;
  uint32_t prog = 0;
  uint32_t vers = 0;
  uint32_t proc = 0;
  // Trace propagation (obs layer): the caller's trace id and span id, so a
  // server can parent its own span under the RPC that reached it.  Zero
  // means untraced.  Carried on the wire like everything else — tracing a
  // distributed path has a (small, visible) byte cost.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint32_t flags = 0;  ///< kFlagSampled and future trace bits
  std::string principal;
  /// Tenant/workload identity the caller acts for (0: none).  Flag-gated
  /// on the wire: encoded (and kFlagHasTenant raised) only when nonzero,
  /// so tenant-free traffic keeps the legacy byte layout exactly.
  uint32_t tenant_id = 0;

  void encode(XdrEncoder& enc) const {
    enc.put_u32(xid);
    enc.put_u32(prog);
    enc.put_u32(vers);
    enc.put_u32(proc);
    enc.put_u64(trace_id);
    enc.put_u64(span_id);
    enc.put_u32(tenant_id != 0 ? (flags | kFlagHasTenant)
                               : (flags & ~kFlagHasTenant));
    if (tenant_id != 0) enc.put_u32(tenant_id);
    enc.put_string(principal);
  }
  static CallHeader decode(XdrDecoder& dec) {
    CallHeader h;
    h.xid = dec.get_u32();
    h.prog = dec.get_u32();
    h.vers = dec.get_u32();
    h.proc = dec.get_u32();
    h.trace_id = dec.get_u64();
    h.span_id = dec.get_u64();
    h.flags = dec.get_u32();
    if ((h.flags & kFlagHasTenant) != 0) h.tenant_id = dec.get_u32();
    h.principal = dec.get_string();
    return h;
  }
};

enum class ReplyStatus : uint32_t {
  kAccepted = 0,
  kProgUnavail = 1,
  kProcUnavail = 2,
  kGarbageArgs = 3,
  kSystemErr = 4,
  kAuthError = 5,
};

struct ReplyHeader {
  uint32_t xid = 0;
  ReplyStatus status = ReplyStatus::kAccepted;

  void encode(XdrEncoder& enc) const {
    enc.put_u32(xid);
    enc.put_u32(static_cast<uint32_t>(status));
  }
  static ReplyHeader decode(XdrDecoder& dec) {
    ReplyHeader h;
    h.xid = dec.get_u32();
    const uint32_t s = dec.get_u32();
    if (s > static_cast<uint32_t>(ReplyStatus::kAuthError)) {
      throw XdrError("bad reply status");
    }
    h.status = static_cast<ReplyStatus>(s);
    return h;
  }
};

/// A framed message: materialized header/metadata bytes plus the total
/// on-the-wire size (which includes virtual bulk-data bytes).
struct WireBuffer {
  std::vector<std::byte> bytes;
  uint64_t wire_size = 0;

  WireBuffer() = default;
  WireBuffer(std::vector<std::byte> b, uint64_t ws)
      : bytes(std::move(b)), wire_size(ws) {}
  WireBuffer(WireBuffer&&) = default;
  WireBuffer& operator=(WireBuffer&&) = default;
  WireBuffer(const WireBuffer&) = default;
  WireBuffer& operator=(const WireBuffer&) = default;
  // Framing buffers churn once per message; retire them into the pool.
  ~WireBuffer() { util::BufferPool::give(std::move(bytes)); }
};

}  // namespace dpnfs::rpc
