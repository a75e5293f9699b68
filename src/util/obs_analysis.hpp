// Trace analysis: critical-path latency attribution, Chrome trace export,
// and utilization time series.
//
// The Tracer (util/obs.hpp) retains per-request span trees; this layer turns
// them into evidence:
//
//  - `analyze_trace` walks one trace's span tree and attributes every
//    nanosecond of the root span's duration to exactly one exclusive phase
//    (client queue, request wire, server queue, service CPU, disk, reply
//    wire) — the per-stage decomposition the paper's Figure 6-8 argument
//    needs.  The phases of a well-formed trace sum *exactly* to its
//    end-to-end latency.
//
//  - `TraceExporter` serializes retained spans as Chrome/Perfetto
//    `trace_event` JSON: one process per simulated node, one track per
//    (node, kind:component) lane, flow arrows along parent edges, and
//    counter tracks from sampled time series.  Load the file in
//    ui.perfetto.dev or chrome://tracing.
//
//  - `TimeSeries` holds gauge samples on a simulated-time axis (NIC/disk
//    utilization, queue depths) recorded by the Deployment sampler.
//
// Like obs.hpp, everything here is simulation-agnostic (plain nanosecond
// integers) so it stays at the bottom of the dependency stack.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/obs.hpp"

namespace dpnfs::obs {

// ---------------------------------------------------------------------------
// Critical-path latency attribution
// ---------------------------------------------------------------------------

/// Exclusive latency phases.  Each nanosecond of a trace's end-to-end time
/// is owned by exactly one phase; `total()` of a well-formed trace equals
/// root end - root start.
struct PhaseBreakdown {
  TimeNs client_queue = 0;  ///< sender-NIC tx-queue wait before request bytes
                            ///< left the client
  TimeNs request_wire = 0;  ///< request transmission + propagation
  TimeNs server_queue = 0;  ///< server request-queue residency
  TimeNs service_cpu = 0;   ///< server-side execution (marshal, CPU charge,
                            ///< cache work) excluding disk and nested hops
  TimeNs disk = 0;          ///< local-store disk time (incl. arm queueing)
  TimeNs reply_wire = 0;    ///< reply transmission + propagation
  TimeNs other = 0;         ///< unattributable: timeout attempts, retry
                            ///< backoff, spans lost to capacity

  TimeNs total() const noexcept {
    return client_queue + request_wire + server_queue + service_cpu + disk +
           reply_wire + other;
  }
  /// The share a second hop adds: everything that is wire or queue.
  TimeNs wire_and_queue() const noexcept {
    return client_queue + request_wire + server_queue + reply_wire;
  }
  void add(const PhaseBreakdown& o) noexcept;
  std::string to_json() const;
};

/// Attribution result for one trace.
struct TraceBreakdown {
  uint64_t trace_id = 0;
  std::string root_op;    ///< root span name, e.g. "nfs/38"
  std::string root_node;  ///< node the root span ran on
  TimeNs start = 0;
  TimeNs end = 0;
  uint32_t hops = 0;  ///< kClientCall spans retained in this trace
  /// One root, acyclic parentage, children inside the parent interval.
  /// When false the phases are still best-effort but may not sum to total.
  bool well_formed = false;
  PhaseBreakdown phases;

  TimeNs total() const noexcept { return end - start; }
};

/// Attributes one trace's latency.  `spans` is every retained span of one
/// trace (any order).  Returns a zero TraceBreakdown (trace_id 0) when no
/// usable root span exists.
TraceBreakdown analyze_trace(const std::vector<Span>& spans);

/// Aggregate attribution for one operation type (root span name).
struct OpBreakdown {
  uint64_t count = 0;
  TimeNs total_ns = 0;
  uint64_t hops = 0;
  PhaseBreakdown phases;
};

/// Whole-run attribution: per-architecture totals plus a per-op split.
struct BreakdownReport {
  uint64_t traces_analyzed = 0;
  uint64_t traces_skipped = 0;  ///< retained traces with no usable root
  TimeNs total_ns = 0;          ///< sum of analyzed traces' end-to-end time
  PhaseBreakdown phases;
  std::map<std::string, OpBreakdown> per_op;

  /// Fraction of total time that is wire or queue — the quantity the
  /// pNFS-2tier re-route hop inflates relative to Direct-pNFS.
  double wire_queue_share() const noexcept;

  /// {"architecture": ..., "traces_analyzed": ..., "phases_ns": {...},
  ///  "wire_queue_share": ..., "per_op": {"nfs/38": {...}, ...}}
  std::string to_json(const std::string& architecture) const;
  /// Human-readable attribution table.
  std::string report() const;
};

/// Analyzes every retained trace in the tracer.
BreakdownReport analyze_all(const Tracer& tracer);

// ---------------------------------------------------------------------------
// Time series
// ---------------------------------------------------------------------------

/// Gauge samples on the simulated-time axis, scoped (node, series name).
class TimeSeries {
 public:
  struct Sample {
    TimeNs t = 0;
    double value = 0.0;
  };

  void add(const std::string& node, const std::string& name, TimeNs t,
           double value);

  bool empty() const noexcept { return sample_count_ == 0; }
  const std::map<std::string, std::map<std::string, std::vector<Sample>>>&
  series() const noexcept {
    return series_;
  }

  /// {"node": {"name": [[t_ns, value], ...], ...}, ...}
  std::string to_json() const;

 private:
  std::map<std::string, std::map<std::string, std::vector<Sample>>> series_;
  size_t sample_count_ = 0;
};

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

class TraceExporter {
 public:
  /// Chrome/Perfetto `trace_event` JSON for every retained span (plus
  /// counter tracks when `series` is given).  ts/dur are microseconds
  /// (the format's unit); span annotations ride in `args`.
  static std::string to_chrome_json(const Tracer& tracer,
                                    const std::string& architecture,
                                    const TimeSeries* series = nullptr);
};

}  // namespace dpnfs::obs
