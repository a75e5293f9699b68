#include "util/range_buffer.hpp"

#include <algorithm>

namespace dpnfs::util {

using rpc::Payload;

void RangeBuffer::erase_real(uint64_t start, uint64_t end) {
  auto it = extents_.lower_bound(start);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    const uint64_t ext_end = prev->first + prev->second.size();
    if (ext_end > start) {
      std::vector<std::byte> tail;
      if (ext_end > end) {
        tail.assign(prev->second.begin() + static_cast<ptrdiff_t>(end - prev->first),
                    prev->second.end());
      }
      prev->second.resize(start - prev->first);
      if (prev->second.empty()) extents_.erase(prev);
      if (!tail.empty()) extents_.emplace(end, std::move(tail));
      it = extents_.lower_bound(start);
    }
  }
  while (it != extents_.end() && it->first < end) {
    const uint64_t ext_end = it->first + it->second.size();
    if (ext_end <= end) {
      it = extents_.erase(it);
    } else {
      std::vector<std::byte> tail(
          it->second.begin() + static_cast<ptrdiff_t>(end - it->first),
          it->second.end());
      extents_.erase(it);
      extents_.emplace(end, std::move(tail));
      break;
    }
  }
}

void RangeBuffer::store(uint64_t offset, const Payload& data) {
  if (data.size() == 0) return;
  const uint64_t end = offset + data.size();
  erase_real(offset, end);
  if (data.is_inline()) {
    virtual_ranges_.subtract(offset, end);
    // Scatter-gather payloads land as one extent per fragment (adjacent in
    // the map); load() reassembles across extent boundaries anyway.
    uint64_t pos = offset;
    for (const auto& frag : data.fragments()) {
      const auto v = frag.view();
      if (v.empty()) continue;
      // The cache mutates its extents in place (tail splits, truncation),
      // so it owns a copy rather than a view of the shared fragment.
      extents_.emplace(pos, std::vector<std::byte>(v.begin(), v.end()));
      pos += v.size();
    }
  } else {
    virtual_ranges_.add(offset, end);
  }
}

Payload RangeBuffer::load(uint64_t offset, uint64_t length) const {
  if (length == 0) return Payload{};
  const uint64_t end = offset + length;
  if (virtual_ranges_.intersects(offset, end)) {
    return Payload::virtual_bytes(length);
  }
  std::vector<std::byte> out(length, std::byte{0});
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) --it;
  for (; it != extents_.end() && it->first < end; ++it) {
    const uint64_t ext_start = it->first;
    const uint64_t ext_end = ext_start + it->second.size();
    const uint64_t lo = std::max(offset, ext_start);
    const uint64_t hi = std::min(end, ext_end);
    if (lo >= hi) continue;
    std::copy(it->second.begin() + static_cast<ptrdiff_t>(lo - ext_start),
              it->second.begin() + static_cast<ptrdiff_t>(hi - ext_start),
              out.begin() + static_cast<ptrdiff_t>(lo - offset));
  }
  return Payload::inline_bytes(std::move(out));
}

void RangeBuffer::drop(uint64_t start, uint64_t end) {
  erase_real(start, end);
  virtual_ranges_.subtract(start, end);
}

}  // namespace dpnfs::util
