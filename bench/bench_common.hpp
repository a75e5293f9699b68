// Shared harness for the figure-reproduction benches.
//
// Every bench binary prints the corresponding paper figure as a table:
// one row per client count, one column per architecture — the same series
// the paper plots.  `--quick` shrinks data sizes and the client sweep for
// smoke runs; the default reproduces the paper's parameters.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "util/obs.hpp"
#include "workload/runner.hpp"

namespace dpnfs::bench {

inline bool flag_present(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// The value of `--key=value` or `--key value`.
inline const char* arg_value(int argc, char** argv, const char* key,
                             const char* fallback) {
  const size_t klen = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, klen) != 0) continue;
    if (argv[i][klen] == '=') return argv[i] + klen + 1;
    if (argv[i][klen] == '\0' && i + 1 < argc) return argv[i + 1];
  }
  return fallback;
}

/// The paper's testbed (§6.1): gigabit Ethernet with jumbo frames, six
/// storage nodes (one doubling as metadata manager), 2 MB stripes, 8 nfsd
/// threads, 2 MB rsize/wsize.  See DESIGN.md §5 for the calibration notes.
inline core::ClusterConfig paper_config(core::Architecture arch,
                                        uint32_t clients) {
  core::ClusterConfig cfg;
  cfg.architecture = arch;
  cfg.storage_nodes = 6;
  cfg.clients = clients;
  return cfg;
}

/// Same cluster on 100 Mbps Ethernet (Figure 6c).
inline core::ClusterConfig paper_config_100mbps(core::Architecture arch,
                                                uint32_t clients) {
  core::ClusterConfig cfg = paper_config(arch, clients);
  cfg.nic.bytes_per_sec = 11.5e6;
  return cfg;
}

struct Series {
  std::string label;
  std::vector<double> values;
};

inline void print_table(const std::string& title, const std::string& x_label,
                        const std::vector<uint32_t>& xs,
                        const std::vector<Series>& series,
                        const std::string& unit) {
  std::printf("\n%s  [%s]\n", title.c_str(), unit.c_str());
  std::printf("%-12s", x_label.c_str());
  for (const auto& s : series) std::printf("%14s", s.label.c_str());
  std::printf("\n");
  for (size_t row = 0; row < xs.size(); ++row) {
    std::printf("%-12u", xs[row]);
    for (const auto& s : series) {
      if (row < s.values.size()) {
        std::printf("%14.1f", s.values[row]);
      } else {
        std::printf("%14s", "-");
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

inline std::vector<uint32_t> client_sweep(bool quick) {
  if (quick) return {1, 4, 8};
  return {1, 2, 3, 4, 5, 6, 7, 8};
}

/// Accumulates one record per data point and writes `BENCH_<name>.json`
/// beside the bench's table output, into `out_dir` (the bench's `--out-dir`
/// flag) or else the working directory.  A record holds only what
/// tools/check_bench_delta.py compares: the point (figure, architecture,
/// clients), its value and unit, and `"host": true` on wall-clock series,
/// which the gate skips.  The run's full metrics document is
/// `simulate --metrics-out`'s job (docs/observability.md).
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string bench_name, std::string out_dir = "")
      : name_(std::move(bench_name)), out_dir_(std::move(out_dir)) {}
  ~BenchRecorder() { flush(); }
  BenchRecorder(const BenchRecorder&) = delete;
  BenchRecorder& operator=(const BenchRecorder&) = delete;

  void add(const std::string& figure, const std::string& architecture,
           uint32_t clients, double value, const std::string& unit,
           bool host = false) {
    char num[64];
    std::snprintf(num, sizeof num, "%.6g", value);
    std::string rec = "{\"figure\":\"" + obs::json_escape(figure) +
                      "\",\"architecture\":\"" + obs::json_escape(architecture) +
                      "\",\"clients\":" + std::to_string(clients) +
                      ",\"value\":" + num + ",\"unit\":\"" +
                      obs::json_escape(unit) + "\"" +
                      (host ? ",\"host\":true}" : "}");
    records_.push_back(std::move(rec));
  }

  void flush() {
    if (flushed_) return;
    flushed_ = true;
    std::string path = "BENCH_" + name_ + ".json";
    if (!out_dir_.empty()) {
      const bool has_sep = out_dir_.back() == '/';
      path = out_dir_ + (has_sep ? "" : "/") + path;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"records\":[\n",
                 obs::json_escape(name_).c_str());
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
  }

 private:
  std::string name_;
  std::string out_dir_;
  std::vector<std::string> records_;
  bool flushed_ = false;
};

}  // namespace dpnfs::bench
