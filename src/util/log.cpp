#include "util/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dpnfs::util {
namespace {

LogLevel parse_env_level() {
  const char* env = std::getenv("DPNFS_LOG");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "trace") == 0) return LogLevel::kTrace;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
  return LogLevel::kWarn;
}

LogLevel& threshold_ref() {
  static LogLevel level = parse_env_level();
  return level;
}

LogSink& sink_ref() {
  static LogSink sink;
  return sink;
}

constexpr const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

}  // namespace

LogLevel log_threshold() noexcept { return threshold_ref(); }

LogSink set_log_sink(LogSink sink) {
  LogSink previous = std::move(sink_ref());
  sink_ref() = std::move(sink);
  return previous;
}

void log_line(LogLevel level, std::string_view component, int64_t sim_time_ns,
              std::string_view message) {
  if (level >= LogLevel::kWarn && level < LogLevel::kOff && sink_ref()) {
    sink_ref()(level, component, sim_time_ns, message);
  }
  if (level < log_threshold()) return;
  if (sim_time_ns >= 0) {
    std::fprintf(stderr, "%s [%12.6fs] %.*s: %.*s\n", level_name(level),
                 static_cast<double>(sim_time_ns) * 1e-9,
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(message.size()), message.data());
  } else {
    std::fprintf(stderr, "%s %.*s: %.*s\n", level_name(level),
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(message.size()), message.data());
  }
}

void logf(LogLevel level, std::string_view component, int64_t sim_time_ns,
          const char* fmt, ...) {
  // Format when either the stderr threshold passes *or* a WARN+ sink wants
  // the line (flight recording is independent of the print threshold).
  const bool sink_wants =
      level >= LogLevel::kWarn && level < LogLevel::kOff && sink_ref();
  if (level < log_threshold() && !sink_wants) return;
  va_list args;
  va_start(args, fmt);
  const std::string msg = vsformat(fmt, args);
  va_end(args);
  log_line(level, component, sim_time_ns, msg);
}

}  // namespace dpnfs::util
