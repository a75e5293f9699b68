#include "pvfs/protocol.hpp"

#include <algorithm>

namespace dpnfs::pvfs {

const char* pvfs_status_name(PvfsStatus s) {
  switch (s) {
    case PvfsStatus::kOk: return "PVFS_OK";
    case PvfsStatus::kNoEnt: return "PVFS_ENOENT";
    case PvfsStatus::kIo: return "PVFS_EIO";
    case PvfsStatus::kExist: return "PVFS_EEXIST";
    case PvfsStatus::kNotDir: return "PVFS_ENOTDIR";
    case PvfsStatus::kIsDir: return "PVFS_EISDIR";
    case PvfsStatus::kInval: return "PVFS_EINVAL";
    case PvfsStatus::kNotEmpty: return "PVFS_ENOTEMPTY";
  }
  return "PVFS_E?";
}

namespace {

/// Most regions one list request may carry.
constexpr uint32_t kMaxRegions = 1u << 20;

uint64_t total_length(const std::vector<IoRegion>& regions) {
  uint64_t n = 0;
  for (const IoRegion& r : regions) n += r.length;
  return n;
}

/// The list layout's regions: count u32 | (offset u64, length u64)*.
void put_regions(rpc::XdrEncoder& enc, const std::vector<IoRegion>& regions) {
  enc.put_u32(static_cast<uint32_t>(regions.size()));
  for (const IoRegion& r : regions) {
    enc.put_u64(r.offset);
    enc.put_u64(r.length);
  }
}

std::vector<IoRegion> get_regions(rpc::XdrDecoder& dec) {
  const uint32_t n = dec.get_u32();
  if (n == 0 || n > kMaxRegions) {
    throw PvfsError(PvfsStatus::kInval, "region list");
  }
  std::vector<IoRegion> regions;
  regions.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t offset = dec.get_u64();
    regions.push_back({offset, dec.get_u64()});
  }
  return regions;
}

/// Dense round-robin mapping over the first `n` dfiles.
std::vector<StripeExtent> map_dense(const FileMeta& meta, uint64_t n,
                                    uint64_t offset, uint64_t length) {
  std::vector<StripeExtent> out;
  const uint64_t su = meta.stripe_unit;
  uint64_t pos = offset;
  const uint64_t end = offset + length;
  while (pos < end) {
    const uint64_t stripe = pos / su;
    const uint64_t in_stripe = pos % su;
    const uint64_t take = std::min(su - in_stripe, end - pos);
    StripeExtent ext;
    ext.dfile_index = static_cast<uint32_t>(stripe % n);
    ext.dfile_offset = (stripe / n) * su + in_stripe;
    ext.file_offset = pos;
    ext.length = take;
    if (!out.empty() && out.back().dfile_index == ext.dfile_index &&
        out.back().dfile_offset + out.back().length == ext.dfile_offset) {
      out.back().length += take;
    } else {
      out.push_back(ext);
    }
    pos += take;
  }
  return out;
}

void check_distribution(const FileMeta& meta, const char* who) {
  if (meta.dfiles.empty() || meta.stripe_unit == 0 ||
      (meta.kind == DistKind::kErasure &&
       meta.dfiles.size() != static_cast<size_t>(meta.ec_k) + meta.ec_m)) {
    throw PvfsError(PvfsStatus::kInval,
                    std::string(who) + ": bad distribution");
  }
}

}  // namespace

uint64_t ReadArgs::total_length() const {
  return pvfs::total_length(regions);
}

void ReadArgs::encode(rpc::XdrEncoder& enc) const {
  enc.put_u64(object_id);
  if (proc() == IoProc::kReadv) {
    put_regions(enc, regions);
    return;
  }
  enc.put_u64(regions[0].offset);
  enc.put_u64(regions[0].length);
}

ReadArgs ReadArgs::decode(IoProc proc, rpc::XdrDecoder& dec) {
  ReadArgs a;
  a.object_id = dec.get_u64();
  if (proc == IoProc::kReadv) {
    a.regions = get_regions(dec);
    return a;
  }
  const uint64_t offset = dec.get_u64();
  a.regions = {{offset, dec.get_u64()}};
  return a;
}

void WriteArgs::encode(rpc::XdrEncoder& enc) const {
  enc.put_u64(object_id);
  if (proc() == IoProc::kWritev) {
    put_regions(enc, regions);
  } else {
    enc.put_u64(regions[0].offset);
  }
  enc.put_payload(data);
}

WriteArgs WriteArgs::decode(IoProc proc, rpc::XdrDecoder& dec) {
  WriteArgs a;
  a.object_id = dec.get_u64();
  if (proc == IoProc::kWritev) {
    a.regions = get_regions(dec);
    a.data = dec.get_payload();
    if (pvfs::total_length(a.regions) != a.data.size()) {
      throw PvfsError(PvfsStatus::kInval, "list write payload length");
    }
    return a;
  }
  const uint64_t offset = dec.get_u64();
  a.data = dec.get_payload();
  a.regions = {{offset, a.data.size()}};
  return a;
}

std::vector<StripeExtent> map_stripes(const FileMeta& meta, uint64_t offset,
                                      uint64_t length) {
  check_distribution(meta, "map_stripes");
  if (meta.kind == DistKind::kMirror) {
    // Full copies: pick one replica per stripe, rotating to spread readers.
    std::vector<StripeExtent> out;
    const uint64_t su = meta.stripe_unit;
    const uint64_t n = meta.dfiles.size();
    uint64_t pos = offset;
    const uint64_t end = offset + length;
    while (pos < end) {
      const uint64_t stripe = pos / su;
      const uint64_t take = std::min(su - pos % su, end - pos);
      StripeExtent ext;
      ext.dfile_index = static_cast<uint32_t>(stripe % n);
      ext.dfile_offset = pos;  // replica offset == file offset
      ext.file_offset = pos;
      ext.length = take;
      if (!out.empty() && out.back().dfile_index == ext.dfile_index &&
          out.back().dfile_offset + out.back().length == ext.dfile_offset) {
        out.back().length += take;
      } else {
        out.push_back(ext);
      }
      pos += take;
    }
    return out;
  }
  return map_dense(meta, meta.data_dfiles(), offset, length);
}

std::vector<StripeExtent> map_stripes_write(const FileMeta& meta,
                                            uint64_t offset, uint64_t length) {
  check_distribution(meta, "map_stripes_write");
  if (meta.kind != DistKind::kMirror) return map_stripes(meta, offset, length);
  std::vector<StripeExtent> out;
  for (uint32_t d = 0; d < meta.dfiles.size(); ++d) {
    StripeExtent ext;
    ext.dfile_index = d;
    ext.dfile_offset = offset;
    ext.file_offset = offset;
    ext.length = length;
    out.push_back(ext);
  }
  return out;
}

uint64_t logical_size(const FileMeta& meta,
                      const std::vector<uint64_t>& dfile_sizes) {
  const uint64_t su = meta.stripe_unit;
  if (meta.kind == DistKind::kMirror) {
    uint64_t logical = 0;
    for (uint64_t s : dfile_sizes) logical = std::max(logical, s);
    return logical;
  }
  const uint64_t n = meta.data_dfiles();
  uint64_t logical = 0;
  for (uint64_t i = 0; i < dfile_sizes.size() && i < n; ++i) {
    const uint64_t s = dfile_sizes[i];
    if (s == 0) continue;
    const uint64_t last = s - 1;                       // last byte in dfile i
    const uint64_t dev_stripe = last / su;             // stripe within dfile
    const uint64_t global_stripe = dev_stripe * n + i; // stripe in the file
    logical = std::max(logical, global_stripe * su + (last % su) + 1);
  }
  return logical;
}

uint64_t dfile_size_for(const FileMeta& meta, uint32_t index, uint64_t size) {
  check_distribution(meta, "dfile_size_for");
  const uint64_t su = meta.stripe_unit;
  if (meta.kind == DistKind::kMirror) return size;
  const uint64_t n = meta.data_dfiles();
  if (meta.kind == DistKind::kErasure && index >= n) {
    // Parity dfiles hold one whole stripe-unit block per stripe group.
    const uint64_t gb = n * su;
    return ((size + gb - 1) / gb) * su;
  }
  // Dense round-robin: full stripes assigned to `index`, plus the partial
  // tail stripe when it lands there.
  const uint64_t full = size / su;
  const uint64_t rem = size % su;
  uint64_t blocks = full / n + (index < full % n ? 1 : 0);
  uint64_t s = blocks * su;
  if (rem > 0 && full % n == index) s += rem;
  return s;
}

}  // namespace dpnfs::pvfs
