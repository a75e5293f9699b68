// Bulk-data representation for the simulated data path.
//
// A Payload is a run of file bytes.  Tests and small-I/O paths carry the
// bytes inline, so end-to-end data integrity is checked through every layer
// (client cache -> XDR -> wire -> server -> object store and back).  Large
// benchmarks use *virtual* payloads: the byte count is preserved (and billed
// to NICs and disks) but no buffer is allocated.
//
// Inline payloads are scatter-gather: content is an ordered list of
// *fragment views* — shared-ownership references into immutable backing
// buffers.  `append(Payload&&)` splices fragments, and `slice()` builds
// sub-views, without copying a byte; the same backing buffer can be
// referenced by many payloads at different offsets (a striped WRITE slices
// one application buffer into per-DS payloads for free).  Fragmentation is
// invisible on the wire (XDR emits one contiguous opaque) and to
// comparisons.  The only copy on the whole path is `data()` gathering a
// multi-fragment payload into one pooled buffer on first use; the
// thread-local `copy_stats()` counters let tests pin exactly how many bytes
// that costs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "util/pool.hpp"

namespace dpnfs::rpc {

/// Copy accounting for Payload (thread-local): how often and how many bytes
/// `data()` had to gather.  Zero-copy regressions are pinned against these.
struct PayloadCopyStats {
  uint64_t gathers = 0;
  uint64_t gathered_bytes = 0;
};

class Payload {
 public:
  /// A view into an immutable, shared backing buffer.
  struct Fragment {
    std::shared_ptr<const std::vector<std::byte>> buf;
    uint64_t off = 0;
    uint64_t len = 0;

    std::span<const std::byte> view() const noexcept {
      return {buf->data() + off, static_cast<size_t>(len)};
    }
  };

  using CopyStats = PayloadCopyStats;
  static CopyStats copy_stats() noexcept { return copy_stats_; }
  static void reset_copy_stats() noexcept { copy_stats_ = CopyStats{}; }

  Payload() = default;

  /// Virtual payload: `bytes` of unmaterialized data.
  static Payload virtual_bytes(uint64_t bytes) {
    Payload p;
    p.size_ = bytes;
    return p;
  }

  /// Inline payload holding real content.  The buffer becomes immutable and
  /// shared; on release it is recycled through the byte-buffer pool.
  static Payload inline_bytes(std::vector<std::byte> data) {
    Payload p;
    p.size_ = data.size();
    if (!data.empty()) {
      const uint64_t len = data.size();
      p.frags_.push_back(Fragment{share(std::move(data)), 0, len});
    }
    p.inline_ = true;
    return p;
  }

  static Payload from_string(std::string_view s) {
    std::vector<std::byte> v(s.size());
    for (size_t i = 0; i < s.size(); ++i) v[i] = static_cast<std::byte>(s[i]);
    return inline_bytes(std::move(v));
  }

  uint64_t size() const noexcept { return size_; }
  bool is_inline() const noexcept { return inline_; }

  /// Contiguous view of the content.  A multi-fragment payload is gathered
  /// into one pooled buffer on first use (the one place fragmentation costs
  /// a copy); single-fragment and virtual payloads are zero-copy.
  std::span<const std::byte> data() const {
    if (frags_.empty()) return {};
    if (frags_.size() > 1) gather();
    return frags_.front().view();
  }

  /// The scatter-gather fragment list (empty for virtual payloads).
  const std::vector<Fragment>& fragments() const noexcept { return frags_; }
  size_t fragment_count() const noexcept { return frags_.size(); }

  /// Sub-range [offset, offset+len).  Inline payloads slice by building
  /// views into the same backing buffers — no bytes move.  Virtual payloads
  /// slice virtually.
  Payload slice(uint64_t offset, uint64_t len) const {
    if (offset > size_ || offset + len > size_) {
      throw std::out_of_range("Payload::slice out of range");
    }
    if (!inline_) return virtual_bytes(len);
    Payload out;
    out.inline_ = true;
    out.size_ = len;
    uint64_t pos = 0;  // running offset of the current fragment
    for (const auto& f : frags_) {
      const uint64_t lo = std::max(offset, pos);
      const uint64_t hi = std::min(offset + len, pos + f.len);
      if (lo < hi) {
        out.frags_.push_back(
            Fragment{f.buf, f.off + (lo - pos), hi - lo});
      }
      pos += f.len;
      if (pos >= offset + len) break;
    }
    return out;
  }

  /// Concatenates `other` after this payload by splicing its fragments in —
  /// no byte copy.  Mixing inline and virtual degrades to virtual (content
  /// cannot be trusted past a virtual gap).  Appending to an empty payload
  /// adopts `other` wholesale.
  void append(Payload&& other) {
    if (size_ == 0) {
      *this = std::move(other);
      return;
    }
    if (other.size_ == 0) return;
    if (inline_ && other.inline_) {
      for (auto& f : other.frags_) frags_.push_back(std::move(f));
      size_ += other.size_;
      return;
    }
    size_ += other.size_;
    inline_ = false;
    frags_.clear();
  }

  /// Copying form for callers that must keep `other` intact.  Fragments are
  /// views, so this copies refcounts, not bytes.
  void append(const Payload& other) { append(Payload(other)); }

  /// Content equality; fragmentation boundaries are irrelevant.
  bool operator==(const Payload& other) const noexcept {
    if (size_ != other.size_ || inline_ != other.inline_) return false;
    if (!inline_) return true;
    // Walk both fragment lists with cursors; no gather needed.
    size_t ai = 0, bi = 0, ao = 0, bo = 0;
    uint64_t left = size_;
    while (left > 0) {
      while (ai < frags_.size() && ao == frags_[ai].len) ++ai, ao = 0;
      while (bi < other.frags_.size() && bo == other.frags_[bi].len)
        ++bi, bo = 0;
      const size_t n = static_cast<size_t>(
          std::min({frags_[ai].len - ao, other.frags_[bi].len - bo,
                    static_cast<uint64_t>(left)}));
      if (std::memcmp(frags_[ai].view().data() + ao,
                      other.frags_[bi].view().data() + bo, n) != 0) {
        return false;
      }
      ao += n;
      bo += n;
      left -= n;
    }
    return true;
  }

 private:
  /// Wraps a buffer for shared immutable use; the deleter retires the
  /// storage through the BufferPool so payload churn recycles allocations.
  static std::shared_ptr<const std::vector<std::byte>> share(
      std::vector<std::byte> v) {
    auto* owned = new std::vector<std::byte>(std::move(v));
    return std::shared_ptr<const std::vector<std::byte>>(
        owned, [](const std::vector<std::byte>* p) {
          auto* mut = const_cast<std::vector<std::byte>*>(p);
          util::BufferPool::give(std::move(*mut));
          delete mut;
        });
  }

  void gather() const {
    std::vector<std::byte> flat = util::BufferPool::take(size_);
    for (const auto& f : frags_) {
      const auto v = f.view();
      flat.insert(flat.end(), v.begin(), v.end());
    }
    ++copy_stats_.gathers;
    copy_stats_.gathered_bytes += flat.size();
    const uint64_t len = flat.size();
    frags_.clear();
    frags_.push_back(Fragment{share(std::move(flat)), 0, len});
  }

  static inline thread_local CopyStats copy_stats_;

  uint64_t size_ = 0;
  bool inline_ = false;
  /// Fragment views in order; mutable so `data()` can gather lazily.
  mutable std::vector<Fragment> frags_;
};

/// Pads a short read with `missing` zero bytes: real ones after inline
/// content or none at all (a hole read on its own), a virtual run after
/// virtual content.
inline void zero_fill(Payload& p, uint64_t missing) {
  if (p.size() == 0 || p.is_inline()) {
    p.append(Payload::inline_bytes(
        std::vector<std::byte>(missing, std::byte{0})));
  } else {
    p.append(Payload::virtual_bytes(missing));
  }
}

}  // namespace dpnfs::rpc
