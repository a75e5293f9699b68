#include "util/format.hpp"

#include <cmath>
#include <cstdio>
#include <vector>

namespace dpnfs::util {

std::string vsformat(const char* fmt, va_list args) {
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (needed <= 0) return {};
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}

std::string sformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = vsformat(fmt, args);
  va_end(args);
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::abs(v) < 1e15) return sformat("%.0f", v);
  return sformat("%.17g", v);
}

}  // namespace dpnfs::util
