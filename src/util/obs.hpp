// Observability substrate: named metrics and RPC-level tracing.
//
// The paper's argument (Figures 6-8) is about *where* bytes and CPU time go
// in each architecture.  This layer makes that directly observable:
//
//  - `MetricsRegistry` holds named counters, gauges, and histograms scoped
//    (node, component, name), e.g. ("storage2", "pvfs.io", "bytes_written").
//    Handles are resolved once at setup time and are stable for the life of
//    the registry, so hot paths pay only a pointer-indirect increment.
//    Every RPC fabric owns one registry, one tracer, one tenant ledger and
//    one flight recorder (`rpc::RpcFabric`), so instrumented code never
//    checks whether an instrument is there.
//
//  - `Tracer` assigns trace/span ids to RPCs.  The client span id crosses
//    the wire in `rpc::CallHeader`; servers open child spans, so a single
//    application READ shows its full path (client -> data server -> backend,
//    including the pNFS-2tier re-route hop).  Per-trace hop counts are
//    aggregated exactly; full span detail is kept for a bounded number of
//    spans.
//
// Everything here is simulation-agnostic: times are plain nanosecond
// integers so the util layer stays at the bottom of the dependency stack.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/stats.hpp"

namespace dpnfs::obs {

/// Nanoseconds (matches sim::Time without depending on the sim layer).
using TimeNs = int64_t;

// ---------------------------------------------------------------------------
// Metric instruments
// ---------------------------------------------------------------------------

/// Monotonic event/byte count.
class Counter {
 public:
  void add(uint64_t delta) noexcept { value_ += delta; }
  void inc() noexcept { ++value_; }
  uint64_t value() const noexcept { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time value (queue depth, buffer occupancy, snapshot exports).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-boundary bucketed distribution plus exact count/sum/min/max.
class HistogramMetric {
 public:
  /// `boundaries` must be strictly increasing (std::invalid_argument
  /// otherwise); bucket i covers [boundaries[i-1], boundaries[i]) with an
  /// implicit final overflow bucket.
  explicit HistogramMetric(std::vector<double> boundaries);

  void observe(double value);

  uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const noexcept { return min_; }  ///< 0 when empty
  double max() const noexcept { return max_; }  ///< 0 when empty
  size_t bucket_count() const noexcept { return counts_.size(); }
  double bucket_weight(size_t i) const { return counts_.at(i); }
  const std::vector<double>& boundaries() const noexcept { return boundaries_; }

 private:
  std::vector<double> boundaries_;
  std::vector<double> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Default boundaries for latency histograms, in microseconds (1us .. 10s).
std::vector<double> latency_us_boundaries();

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// Named metrics scoped (node, component, name).  All five architectures
/// share one schema: the same component names appear wherever the same
/// role exists ("rpc" on every RPC daemon, "pvfs.io" on storage daemons,
/// "nfs.server" on NFS servers, "client.cache" on NFS clients, ...).
///
/// `counter()/gauge()/histogram()` create on first use and return stable
/// references (node-based map storage); call them at setup, keep the
/// pointer, and update without further lookups.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& node, const std::string& component,
                   const std::string& name);
  Gauge& gauge(const std::string& node, const std::string& component,
               const std::string& name);
  HistogramMetric& histogram(const std::string& node,
                             const std::string& component,
                             const std::string& name,
                             std::vector<double> boundaries);
  /// Fixed-memory streaming percentile digest — the O(1)-per-sample
  /// instrument for hot-path latency (no boundary choice, mergeable).
  util::PercentileDigest& digest(const std::string& node,
                                 const std::string& component,
                                 const std::string& name);

  /// Lookup without creating; nullptr when absent.
  const Counter* find_counter(const std::string& node,
                              const std::string& component,
                              const std::string& name) const;
  const Gauge* find_gauge(const std::string& node, const std::string& component,
                          const std::string& name) const;
  const HistogramMetric* find_histogram(const std::string& node,
                                        const std::string& component,
                                        const std::string& name) const;
  const util::PercentileDigest* find_digest(const std::string& node,
                                            const std::string& component,
                                            const std::string& name) const;

  bool empty() const noexcept { return nodes_.empty(); }

  /// Every node that has registered at least one metric (sorted).
  std::vector<std::string> node_names() const;

  /// {"node": {"component": {"counters": {...}, "gauges": {...},
  ///                         "histograms": {...}, "digests": {...}}}}
  std::string to_json() const;

 private:
  struct Component {
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, HistogramMetric> histograms;
    std::map<std::string, util::PercentileDigest> digests;
  };

  std::map<std::string, std::map<std::string, Component>> nodes_;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Identifies a position in a trace tree.  trace_id 0 means "no trace";
/// default-constructed contexts are inert, so untraced call sites pass `{}`.
///
/// `sampled` is the trace's head-sampling verdict, decided once at the root
/// `begin()` and inherited by every child context (it crosses the wire in
/// `rpc::CallHeader::flags`, so spans opened on other nodes agree with the
/// root).  Aggregate accounting ignores it; only span *detail* does.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool sampled = true;
  /// Tenant the work is on behalf of (0: unassigned).  Rides the context
  /// through proxied hops — servers stamp it from the call header even when
  /// the request is untraced, so per-tenant accounting works at any sample
  /// rate (including tracing off).
  uint32_t tenant = 0;

  bool valid() const noexcept { return trace_id != 0; }
};

enum class SpanKind : uint8_t {
  kClientCall = 0,  ///< one RPC hop as seen by the caller
  kServerExec = 1,  ///< server-side execution of one request
  kInternal = 2,    ///< non-RPC work (e.g. local store access)
};

const char* span_kind_name(SpanKind k);

struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  SpanKind kind = SpanKind::kInternal;
  std::string name;  ///< "prog/proc" for RPC spans, free-form otherwise
  std::string node;  ///< simulated node the span executed on
  TimeNs start = 0;
  TimeNs end = 0;
  TimeNs queue_wait = 0;   ///< request-queue residency (server spans)
  uint64_t bytes_out = 0;  ///< wire bytes sent (request for client spans)
  uint64_t bytes_in = 0;   ///< wire bytes received (reply for client spans)
  TimeNs send_wait = 0;    ///< sender-NIC tx-queue wait before the request
                           ///< left the client (client spans)
  TimeNs disk = 0;         ///< disk time absorbed, incl. arm queueing
                           ///< (internal store spans)
  bool error = false;      ///< non-OK outcome (timeout, error reply)
  bool sampled = true;     ///< head-sampling verdict (set by the Tracer)
  bool promoted = false;   ///< tail-retained despite an unsampled verdict
};

/// Allocates trace/span ids and aggregates recorded spans.
///
/// Hop accounting is exact for every trace: each kClientCall span counts as
/// one RPC hop against its trace.  The per-trace hop map is bounded
/// (`hop_trace_capacity`): once the cap is hit the oldest trace entries are
/// evicted (trace ids are allocated monotonically, so oldest == smallest)
/// and counted in `hop_traces_evicted()` — long benches stay flat in memory
/// while `rpc_hops_total` and the distinct-trace count remain exact.
///
/// Span *detail* is governed by two independent mechanisms, both bounded:
///
///  - **Head sampling** (`set_sample_rate`): each trace gets a deterministic
///    verdict at the root `begin()` — a seeded hash of the trace id against
///    the rate — so the same seed and schedule always sample the same trace
///    ids.  Sampled traces' spans land in the retained ring
///    (`span_capacity`), which evicts its *oldest* spans under pressure so
///    a long run keeps the newest detail.
///
///  - **Tail retention** (`set_slo_threshold`): unsampled traces' spans sit
///    in a bounded staging area until their root span ends.  A trace that
///    ended slow (root latency over the SLO threshold) or with an error
///    span is *promoted* — its full detail moves to storage the sampled
///    ring's eviction never touches — so every interesting trace survives
///    even at 1% head sampling.  Fast, clean, unsampled traces are
///    discarded (counted in `spans_sampled_out`).
///
/// Aggregate counters (`traces_started`, `rpc_hops_total`, hop histograms,
/// the per-op SLO digests) are always exact for 100% of traffic; sampling
/// affects only which spans keep their detail.
class Tracer {
 public:
  void set_span_capacity(size_t cap) noexcept { span_capacity_ = cap; }
  void set_hop_trace_capacity(size_t cap) noexcept {
    hop_trace_capacity_ = cap;
  }

  /// Head-sampling rate in [0, 1]; 1 (the default) records every trace's
  /// detail.  The per-trace verdict is a pure function of (trace id, seed).
  void set_sample_rate(double rate) noexcept;
  double sample_rate() const noexcept { return sample_rate_; }
  void set_sample_seed(uint64_t seed) noexcept { sample_seed_ = seed; }
  uint64_t sample_seed() const noexcept { return sample_seed_; }
  /// Root latency above which an unsampled trace is promoted at trace end;
  /// 0 disables the slow-trace trigger (error promotion still applies).
  void set_slo_threshold(TimeNs t) noexcept { slo_threshold_ = t; }
  TimeNs slo_threshold() const noexcept { return slo_threshold_; }
  /// Bound on spans staged for unsampled in-flight traces (and on promoted
  /// span storage).  0 disables staging entirely: unsampled traces lose
  /// their detail immediately and nothing can be promoted.
  void set_staging_capacity(size_t cap) noexcept { staging_capacity_ = cap; }

  /// The deterministic head-sampling verdict for a trace id.
  bool sample_decision(uint64_t trace_id) const noexcept;

  /// Starts a span.  An invalid `parent` starts a new trace (a root span,
  /// which also fixes the trace's sampling verdict); a valid one continues
  /// the parent's trace — and inherits its verdict — with a fresh span id.
  TraceContext begin(TraceContext parent = TraceContext{});

  void record(Span span);

  uint64_t traces_started() const noexcept { return traces_started_; }
  uint64_t rpc_hops_total() const noexcept { return rpc_hops_total_; }
  uint64_t spans_recorded() const noexcept { return spans_recorded_; }
  uint64_t spans_dropped() const noexcept { return spans_dropped_; }
  /// Head-sampled traces (verdict made at the root begin()).
  uint64_t traces_sampled() const noexcept { return traces_sampled_; }
  /// Unsampled traces promoted at trace end (slow or errored).
  uint64_t traces_promoted() const noexcept { return traces_promoted_; }
  /// Spans discarded purely by the sampling verdict (their trace ended
  /// fast and clean) — detail lost on purpose, not to capacity.
  uint64_t spans_sampled_out() const noexcept { return spans_sampled_out_; }
  /// Distinct traces that contributed at least one RPC hop (exact even
  /// after hop-map eviction).
  uint64_t hop_traces_seen() const noexcept { return hop_traces_seen_; }
  /// Trace entries evicted from the bounded hop map.
  uint64_t hop_traces_evicted() const noexcept { return hop_traces_evicted_; }

  double mean_hops_per_trace() const noexcept;
  uint32_t max_hops_per_trace() const noexcept;
  /// hop-count -> number of traces with exactly that many RPC hops
  /// (retained traces only; eviction removes entries from this view — check
  /// `hop_traces_evicted()` or to_json's `hop_histogram_complete`).
  std::map<uint32_t, uint64_t> hops_histogram() const;

  /// All retained spans of one trace, in recording order (promoted storage
  /// is consulted first).  Indexed by trace id — O(spans in that trace).
  std::vector<Span> trace_spans(uint64_t trace_id) const;
  /// The sampled-detail ring only (promoted spans live separately; use
  /// `retained_spans()` for the full picture).
  const std::deque<Span>& spans() const noexcept { return spans_; }
  /// Every span that still has detail: the sampled ring, then promoted
  /// traces.  Copies — call at export/analysis time, not on hot paths.
  std::vector<Span> retained_spans() const;

  /// Aggregate trace statistics (no span detail; see `spans_json`).
  std::string to_json() const;
  /// Detail for up to `limit` retained spans (sampled ring, then promoted).
  std::string spans_json(size_t limit) const;

  /// Per-op-class SLO report: exact request/error/over-SLO counts and
  /// streaming latency digests for every root span (100% of traffic,
  /// independent of sampling), plus the sampling/promotion counters.
  std::string slo_json() const;

  /// Exact per-op-class accounting behind `slo_json` (see there).
  struct OpSlo {
    uint64_t requests = 0;
    uint64_t errors = 0;
    uint64_t over_slo = 0;
    util::PercentileDigest latency_us;
  };
  const std::map<std::string, OpSlo>& slo_per_op() const noexcept {
    return slo_;
  }

 private:
  void retain(Span span);
  void stage(Span span);
  void evict_oldest_retained();
  void finish_unsampled_trace(size_t staged_index);
  void promote_trace(uint64_t trace_id, std::vector<Span> staged);
  std::vector<Span> take_pooled_vector();
  void recycle_vector(std::vector<Span> v);
  static std::string op_class(const std::string& name);

  size_t span_capacity_ = 4096;
  size_t hop_trace_capacity_ = 65536;
  double sample_rate_ = 1.0;
  uint64_t sample_threshold_ = ~0ull;  ///< rate as a u64 hash threshold
  uint64_t sample_seed_ = 0x0b5e7ab1e5ull;
  TimeNs slo_threshold_ = 0;
  size_t staging_capacity_ = 4096;
  uint64_t next_trace_ = 1;
  uint64_t next_span_ = 1;
  uint64_t traces_started_ = 0;
  uint64_t rpc_hops_total_ = 0;
  uint64_t spans_recorded_ = 0;
  uint64_t spans_dropped_ = 0;
  uint64_t traces_sampled_ = 0;
  uint64_t traces_promoted_ = 0;
  uint64_t spans_sampled_out_ = 0;
  uint64_t hop_traces_seen_ = 0;
  uint64_t hop_traces_evicted_ = 0;
  uint64_t max_evicted_trace_ = 0;  ///< largest trace id ever evicted
  uint32_t max_hops_ = 0;           ///< running max, survives eviction
  std::map<uint64_t, uint32_t> hops_per_trace_;
  // The sampled-detail ring: spans_ evicts from the front under capacity
  // pressure, so trace_index_ stores *absolute* recording positions and
  // spans_base_ tracks how many have been evicted (deque index =
  // absolute - spans_base_).
  std::unordered_map<uint64_t, std::vector<size_t>> trace_index_;
  std::deque<Span> spans_;
  size_t spans_base_ = 0;
  // Staging for unsampled in-flight traces, FIFO by first-span arrival.
  // A flat vector with linear lookup, not a map: entries live only while
  // a trace is in flight (the root span finishes it synchronously), so
  // the scan is over a handful of entries and the per-span hot path at
  // low sampling rates never touches a node-based container.  Bounded:
  // every entry holds >= 1 span and staged_span_count_ <= capacity.
  struct StagedTrace {
    uint64_t trace_id = 0;
    std::vector<Span> spans;
  };
  std::vector<StagedTrace> staged_;
  size_t staged_span_count_ = 0;
  // Recycled span vectors: staging allocates one vector per in-flight
  // trace, and at 1% sampling nearly every trace churns through it.
  std::vector<std::vector<Span>> staging_pool_;
  // Promoted traces: never evicted by sampled-ring pressure, FIFO-bounded
  // by staging_capacity_ spans.
  std::unordered_map<uint64_t, std::vector<Span>> promoted_;
  std::deque<uint64_t> promoted_order_;
  size_t promoted_span_count_ = 0;
  // Per-op-class SLO accounting (root spans only, exact for all traffic).
  std::map<std::string, OpSlo> slo_;
};

/// Escapes a string for embedding in a JSON document.
std::string json_escape(const std::string& s);

/// Writes an export document (metrics, trace, flight dump) to `path`;
/// false on I/O failure.
bool write_file(const std::string& path, const std::string& body);

}  // namespace dpnfs::obs
