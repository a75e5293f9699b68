// Workload runner: drives a workload against a deployment and measures the
// paper's metrics (aggregate MB/s, transactions/s, elapsed time) over the
// timed phase only — setup (file creation, pre-writes for warm-cache reads)
// is excluded, mirroring how IOR/IOZone/Postmark report.
#pragma once

#include <string>

#include "core/deployment.hpp"

namespace dpnfs::workload {

struct RunResult {
  double elapsed_seconds = 0;
  uint64_t app_bytes = 0;      ///< application-level bytes moved while timed
  uint64_t transactions = 0;

  /// Decimal MB/s, the paper's unit.
  double aggregate_mbps() const {
    return elapsed_seconds > 0 ? static_cast<double>(app_bytes) / 1e6 / elapsed_seconds
                               : 0.0;
  }
  double tps() const {
    return elapsed_seconds > 0 ? static_cast<double>(transactions) / elapsed_seconds
                               : 0.0;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;

  /// Untimed preparation (directories, pre-written data).  Runs after all
  /// clients have mounted.
  virtual sim::Task<void> setup(core::Deployment& d) {
    (void)d;
    co_return;
  }

  /// The timed per-client body; one invocation per client node, concurrent.
  virtual sim::Task<void> client_main(core::Deployment& d, size_t client) = 0;

  /// Transactions completed across all clients (OLTP/Postmark metrics).
  virtual uint64_t total_transactions() const { return 0; }
};

/// Runs `w` on `d` to completion and reports the timed phase.  The
/// observer samples the timed phase; export its metrics document with
/// `d.observer().metrics_json()` afterwards.
RunResult run_workload(core::Deployment& d, Workload& w);

}  // namespace dpnfs::workload
