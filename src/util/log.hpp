// Lightweight leveled logger for the Direct-pNFS reproduction.
//
// The simulator is single-threaded by design (a discrete-event loop), so the
// logger keeps no locks.  Protocol modules tag each line with a component
// name and the current simulated time, which makes protocol traces readable
// ("[12.00345s] nfs.client ...").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/format.hpp"

namespace dpnfs::util {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Returns the global log threshold.  Messages below it are discarded.
/// The DPNFS_LOG environment variable ("trace", "debug", "info", "warn",
/// "error", "off") sets it; the default is "warn".
LogLevel log_threshold() noexcept;

/// Optional tap for WARN+ lines (the flight recorder routes them into its
/// event ring).  The sink receives every kWarn/kError line *regardless of
/// the print threshold* — dumps carry the log tail even when stderr output
/// is silenced — but never lines below kWarn.
using LogSink = std::function<void(LogLevel, std::string_view component,
                                   int64_t sim_time_ns,
                                   std::string_view message)>;

/// Installs the WARN+ sink and returns the previous one (restore it when
/// the owner goes away).  An empty function disables the tap.
LogSink set_log_sink(LogSink sink);

/// Emits one formatted log line.  `sim_time_ns` may be negative when no
/// simulation clock is available (the timestamp is then omitted).
void log_line(LogLevel level, std::string_view component, int64_t sim_time_ns,
              std::string_view message);

/// Formats and emits if `level` passes the threshold.
[[gnu::format(printf, 4, 5)]] void logf(LogLevel level,
                                        std::string_view component,
                                        int64_t sim_time_ns, const char* fmt,
                                        ...);

}  // namespace dpnfs::util
