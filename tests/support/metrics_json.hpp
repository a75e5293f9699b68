// Test support: reads one number out of a metrics document
// (core::RunObserver::metrics_json) without a JSON library.  Shared by
// obs_metrics_test.cpp and obs_sampling_test.cpp.
#pragma once

#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>

namespace dpnfs::testsupport {

/// The number at `path` in the document's "nodes" section, which nests
/// node -> component -> counters / gauges / histograms / digests:
/// {"storage0", "node", "gauges", "disk_write_bytes"}, or
/// {"storage0", "rpc", "digests", "service_us", "count"}.  Each key is
/// looked up after the one before it, the last one inside the object that
/// holds it.  NaN when a key is missing.
inline double node_metric(const std::string& json,
                          std::initializer_list<std::string_view> path) {
  size_t at = json.find("\"nodes\":");
  size_t i = 0;
  for (const std::string_view name : path) {
    const bool last = ++i == path.size();
    const std::string key =
        "\"" + std::string(name) + (last ? "\": " : "\": {");
    const size_t end = last ? json.find('}', at) : std::string::npos;
    at = json.find(key, at);
    if (at == std::string::npos || at > end) return std::nan("");
    at += key.size();
  }
  return std::strtod(json.c_str() + at, nullptr);
}

}  // namespace dpnfs::testsupport
