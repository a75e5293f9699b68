// printf-style std::string formatting (libstdc++ 12 ships no <format>).
#pragma once

#include <cstdarg>
#include <string>

namespace dpnfs::util {

/// vsnprintf into a std::string.
std::string vsformat(const char* fmt, va_list args);

/// snprintf into a std::string.
[[gnu::format(printf, 1, 2)]] std::string sformat(const char* fmt, ...);

/// `v` as a JSON number: an integer below 1e15 without a fraction, any
/// other finite value in %.17g (which round-trips doubles), and a
/// non-finite value as 0.
std::string json_number(double v);

}  // namespace dpnfs::util
