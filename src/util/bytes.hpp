// Byte-size literals and formatting shared across the code base.
#pragma once

#include <cstdint>
#include <string>

namespace dpnfs::util {

inline constexpr uint64_t kKiB = 1024;
inline constexpr uint64_t kMiB = 1024 * kKiB;
inline constexpr uint64_t kGiB = 1024 * kMiB;

/// "2.0 MiB", "512 B", "1.5 GiB" — human-readable size for logs and tables.
std::string format_bytes(uint64_t bytes);

/// Decimal megabytes per second from bytes and seconds (paper convention).
constexpr double to_mbps(double bytes, double seconds) {
  return seconds > 0.0 ? bytes / 1e6 / seconds : 0.0;
}

namespace literals {
constexpr uint64_t operator""_KiB(unsigned long long v) { return v * kKiB; }
constexpr uint64_t operator""_MiB(unsigned long long v) { return v * kMiB; }
constexpr uint64_t operator""_GiB(unsigned long long v) { return v * kGiB; }
}  // namespace literals

}  // namespace dpnfs::util
