#include "util/bytes.hpp"

#include "util/format.hpp"

namespace dpnfs::util {

std::string format_bytes(uint64_t bytes) {
  if (bytes >= kGiB) {
    return sformat("%.1f GiB", static_cast<double>(bytes) / static_cast<double>(kGiB));
  }
  if (bytes >= kMiB) {
    return sformat("%.1f MiB", static_cast<double>(bytes) / static_cast<double>(kMiB));
  }
  if (bytes >= kKiB) {
    return sformat("%.1f KiB", static_cast<double>(bytes) / static_cast<double>(kKiB));
  }
  return sformat("%llu B", static_cast<unsigned long long>(bytes));
}

}  // namespace dpnfs::util
