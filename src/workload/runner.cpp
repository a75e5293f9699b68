#include "workload/runner.hpp"

#include <stdexcept>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace dpnfs::workload {

using sim::Task;

namespace {

uint64_t total_app_bytes(core::Deployment& d) {
  uint64_t total = 0;
  for (size_t i = 0; i < d.client_count(); ++i) {
    total += d.client(i).bytes_read() + d.client(i).bytes_written();
  }
  return total;
}

Task<void> drive(core::Deployment& d, Workload& w, RunResult& result,
                 bool& completed, std::string& first_error) {
  try {
    co_await d.mount_all();
    co_await w.setup(d);
  } catch (const std::exception& e) {
    first_error = e.what();
    completed = true;  // completed-with-error; run_workload rethrows
    co_return;
  }

  const sim::Time t0 = d.simulation().now();
  const uint64_t bytes0 = total_app_bytes(d);

  // Utilization sampling covers the timed phase only (like the reported
  // numbers); the stop below lets the event queue drain after the clients
  // finish.
  d.start_sampling();

  sim::WaitGroup wg(d.simulation());
  for (size_t i = 0; i < d.client_count(); ++i) {
    wg.spawn([](core::Deployment& d, Workload& w, size_t i,
                std::string& first_error) -> Task<void> {
      // Seeded start stagger, as on a real cluster (also prevents the
      // phase-locked request convoys a deterministic simulator would
      // otherwise manufacture).  Uniform per client — unlike the old
      // linear i*2.3ms ramp, the spread does not grow with client count,
      // so sweeps compare steady state at every point.
      const auto& cfg = d.config();
      if (cfg.start_stagger > 0) {
        co_await d.simulation().delay(static_cast<sim::Duration>(
            util::Rng(cfg.start_stagger_seed)
                .fork(static_cast<uint64_t>(i))
                .below(static_cast<uint64_t>(cfg.start_stagger))));
      }
      try {
        co_await w.client_main(d, i);
      } catch (const std::exception& e) {
        if (first_error.empty()) first_error = e.what();
      }
    }(d, w, i, first_error));
  }
  co_await wg.wait();
  d.stop_sampling();

  result.elapsed_seconds = sim::to_seconds(d.simulation().now() - t0);
  result.app_bytes = total_app_bytes(d) - bytes0;
  result.transactions = w.total_transactions();
  completed = true;
}

}  // namespace

RunResult run_workload(core::Deployment& d, Workload& w) {
  RunResult result;
  bool completed = false;
  std::string first_error;
  d.simulation().spawn(drive(d, w, result, completed, first_error));
  d.simulation().run();
  if (!first_error.empty()) {
    throw std::runtime_error("workload '" + w.name() +
                             "' failed: " + first_error);
  }
  if (!completed) {
    throw std::runtime_error("workload '" + w.name() +
                             "' deadlocked: simulation drained early");
  }
  util::logf(util::LogLevel::kInfo, "runner", d.simulation().now(),
             "%s on %s: %.3fs, %.1f MB/s", w.name().c_str(),
             core::architecture_name(d.architecture()), result.elapsed_seconds,
             result.aggregate_mbps());
  return result;
}

}  // namespace dpnfs::workload
