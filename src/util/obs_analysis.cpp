#include "util/obs_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "util/format.hpp"

namespace dpnfs::obs {

using util::json_number;
using util::sformat;

namespace {

// ---------------------------------------------------------------------------
// Interval arithmetic
//
// An Intervals list is disjoint, sorted, half-open [lo, hi).  The attribution
// walk partitions the root interval among the span tree: each child claims
// (owned ∩ its extended interval), earliest-starting child first, so no
// nanosecond is counted twice even when siblings overlap (stripe fan-out).
// ---------------------------------------------------------------------------

struct Interval {
  TimeNs lo = 0;
  TimeNs hi = 0;
};
using Intervals = std::vector<Interval>;

Intervals clip(const Intervals& a, Interval b) {
  Intervals out;
  for (const auto& iv : a) {
    const TimeNs lo = std::max(iv.lo, b.lo);
    const TimeNs hi = std::min(iv.hi, b.hi);
    if (lo < hi) out.push_back({lo, hi});
  }
  return out;
}

Intervals subtract(const Intervals& a, Interval b) {
  Intervals out;
  for (const auto& iv : a) {
    if (iv.hi <= b.lo || iv.lo >= b.hi) {
      out.push_back(iv);
      continue;
    }
    if (iv.lo < b.lo) out.push_back({iv.lo, b.lo});
    if (iv.hi > b.hi) out.push_back({b.hi, iv.hi});
  }
  return out;
}

TimeNs total_len(const Intervals& a) {
  TimeNs n = 0;
  for (const auto& iv : a) n += iv.hi - iv.lo;
  return n;
}

// ---------------------------------------------------------------------------
// Attribution walk
// ---------------------------------------------------------------------------

/// A span's claim on its parent's time.  Server spans claim from enqueue
/// (start - queue_wait) so the queue residency is attributed to them, not
/// left looking like wire time in the parent.
Interval extended(const Span& s) {
  TimeNs lo = s.start;
  if (s.kind == SpanKind::kServerExec) lo -= std::max<TimeNs>(s.queue_wait, 0);
  return {lo, std::max(s.end, lo)};
}

class Attribution {
 public:
  explicit Attribution(const std::vector<Span>& spans) {
    for (const Span& s : spans) by_id_.emplace(s.span_id, &s);
    for (const Span& s : spans) {
      if (s.parent_span_id != 0 && by_id_.count(s.parent_span_id)) {
        kids_[s.parent_span_id].push_back(&s);
      } else {
        roots_.push_back(&s);
      }
    }
    for (auto& [id, v] : kids_) {
      std::sort(v.begin(), v.end(), [](const Span* a, const Span* b) {
        return a->start != b->start ? a->start < b->start
                                    : a->span_id < b->span_id;
      });
    }
  }

  TraceBreakdown run(const std::vector<Span>& spans) {
    TraceBreakdown out;
    const Span* root = pick_root();
    if (root == nullptr) return out;
    out.trace_id = root->trace_id;
    out.root_op = root->name;
    out.root_node = root->node;
    out.start = root->start;
    out.end = std::max(root->end, root->start);
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kClientCall) ++out.hops;
    }
    walk(*root, Intervals{{out.start, out.end}});
    out.phases = phases_;
    out.well_formed = ok_ && roots_.size() == 1;
    return out;
  }

 private:
  const Span* pick_root() const {
    // Prefer client-call roots (application RPCs); among candidates the
    // earliest start wins so the breakdown covers the whole request.
    const Span* best = nullptr;
    for (const Span* r : roots_) {
      if (best == nullptr) {
        best = r;
        continue;
      }
      const bool r_client = r->kind == SpanKind::kClientCall;
      const bool b_client = best->kind == SpanKind::kClientCall;
      if (r_client != b_client) {
        if (r_client) best = r;
        continue;
      }
      if (r->start < best->start ||
          (r->start == best->start && r->span_id < best->span_id)) {
        best = r;
      }
    }
    return best;
  }

  void walk(const Span& s, Intervals owned) {
    if (!visited_.insert(s.span_id).second || ++depth_ > 512) {
      ok_ = false;  // cyclic parentage or absurd depth: stop, keep best effort
      return;
    }
    Intervals avail = std::move(owned);
    std::vector<std::pair<const Span*, Intervals>> kid_owned;
    if (const auto kit = kids_.find(s.span_id); kit != kids_.end()) {
      for (const Span* k : kit->second) {
        const Interval e = extended(*k);
        Intervals ki = clip(avail, e);
        if (!ki.empty()) avail = subtract(avail, e);
        kid_owned.emplace_back(k, std::move(ki));
      }
    }
    classify(s, avail, kid_owned);
    for (auto& [k, ki] : kid_owned) walk(*k, std::move(ki));
    --depth_;
  }

  /// Attributes the segments no child claimed.
  void classify(const Span& s, const Intervals& segments,
                const std::vector<std::pair<const Span*, Intervals>>& kids) {
    switch (s.kind) {
      case SpanKind::kClientCall: {
        // The latest server-exec child marks the request/reply boundary;
        // leading time is the request on the wire, trailing time the reply.
        const Span* se = nullptr;
        for (const auto& [k, ki] : kids) {
          if (k->kind == SpanKind::kServerExec &&
              (se == nullptr || k->start > se->start)) {
            se = k;
          }
        }
        TimeNs req = 0, rep = 0, oth = 0;
        for (const auto& iv : segments) {
          if (se == nullptr) {
            // No server execution seen (timed-out attempt, retry backoff,
            // or the server span fell to capacity): unattributable.
            oth += iv.hi - iv.lo;
            continue;
          }
          const Interval e = extended(*se);
          const TimeNs before = std::max<TimeNs>(
              0, std::min(iv.hi, e.lo) - iv.lo);
          const TimeNs after = std::max<TimeNs>(
              0, iv.hi - std::max(iv.lo, e.hi));
          req += before;
          rep += after;
          oth += (iv.hi - iv.lo) - before - after;
        }
        // The leading chunk of "request wire" that was really spent queued
        // behind the sender NIC is client queue, not wire.
        const TimeNs cq =
            std::min(std::max<TimeNs>(s.send_wait, 0), req);
        phases_.client_queue += cq;
        phases_.request_wire += req - cq;
        phases_.reply_wire += rep;
        phases_.other += oth;
        break;
      }
      case SpanKind::kServerExec: {
        // Owned time before `start` is queue residency (the extended
        // interval begins at enqueue); the rest is service execution.
        for (const auto& iv : segments) {
          const TimeNs queued =
              std::max<TimeNs>(0, std::min(iv.hi, s.start) - iv.lo);
          phases_.server_queue += queued;
          phases_.service_cpu += (iv.hi - iv.lo) - queued;
        }
        break;
      }
      case SpanKind::kInternal: {
        // Store spans carry measured disk time; the remainder is CPU-side
        // store work (cache copies, marshalling).
        const TimeNs excl = total_len(segments);
        const TimeNs d = std::min(std::max<TimeNs>(s.disk, 0), excl);
        phases_.disk += d;
        phases_.service_cpu += excl - d;
        break;
      }
    }
  }

  std::unordered_map<uint64_t, const Span*> by_id_;
  std::unordered_map<uint64_t, std::vector<const Span*>> kids_;
  std::vector<const Span*> roots_;
  std::unordered_set<uint64_t> visited_;
  PhaseBreakdown phases_;
  bool ok_ = true;
  int depth_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// PhaseBreakdown / BreakdownReport
// ---------------------------------------------------------------------------

void PhaseBreakdown::add(const PhaseBreakdown& o) noexcept {
  client_queue += o.client_queue;
  request_wire += o.request_wire;
  server_queue += o.server_queue;
  service_cpu += o.service_cpu;
  disk += o.disk;
  reply_wire += o.reply_wire;
  other += o.other;
}

std::string PhaseBreakdown::to_json() const {
  return sformat(
      "{\"client_queue\": %lld, \"request_wire\": %lld, "
      "\"server_queue\": %lld, \"service_cpu\": %lld, \"disk\": %lld, "
      "\"reply_wire\": %lld, \"other\": %lld}",
      static_cast<long long>(client_queue),
      static_cast<long long>(request_wire),
      static_cast<long long>(server_queue),
      static_cast<long long>(service_cpu), static_cast<long long>(disk),
      static_cast<long long>(reply_wire), static_cast<long long>(other));
}

TraceBreakdown analyze_trace(const std::vector<Span>& spans) {
  if (spans.empty()) return TraceBreakdown{};
  Attribution a(spans);
  return a.run(spans);
}

double BreakdownReport::wire_queue_share() const noexcept {
  if (total_ns <= 0) return 0.0;
  return static_cast<double>(phases.wire_and_queue()) /
         static_cast<double>(total_ns);
}

std::string BreakdownReport::to_json(const std::string& architecture) const {
  std::string out = sformat(
      "{\"architecture\": \"%s\", \"traces_analyzed\": %llu, "
      "\"traces_skipped\": %llu, \"total_ns\": %lld, "
      "\"wire_queue_share\": %s, \"phases_ns\": %s, \"per_op\": {",
      json_escape(architecture).c_str(),
      static_cast<unsigned long long>(traces_analyzed),
      static_cast<unsigned long long>(traces_skipped),
      static_cast<long long>(total_ns),
      json_number(wire_queue_share()).c_str(), phases.to_json().c_str());
  bool first = true;
  for (const auto& [op, b] : per_op) {
    if (!first) out += ", ";
    first = false;
    const double mean_ns =
        b.count == 0 ? 0.0
                     : static_cast<double>(b.total_ns) /
                           static_cast<double>(b.count);
    const double mean_hops =
        b.count == 0 ? 0.0
                     : static_cast<double>(b.hops) /
                           static_cast<double>(b.count);
    out += sformat(
        "\"%s\": {\"count\": %llu, \"total_ns\": %lld, \"mean_ns\": %s, "
        "\"hops\": %llu, \"mean_hops\": %s, \"phases_ns\": %s}",
        json_escape(op).c_str(), static_cast<unsigned long long>(b.count),
        static_cast<long long>(b.total_ns), json_number(mean_ns).c_str(),
        static_cast<unsigned long long>(b.hops),
        json_number(mean_hops).c_str(), b.phases.to_json().c_str());
  }
  out += "}}";
  return out;
}

std::string BreakdownReport::report() const {
  std::string out = sformat(
      "critical-path attribution: %llu traces analyzed, %llu skipped\n",
      static_cast<unsigned long long>(traces_analyzed),
      static_cast<unsigned long long>(traces_skipped));
  const double tot = total_ns > 0 ? static_cast<double>(total_ns) : 1.0;
  const auto line = [&](const char* name, TimeNs v) {
    out += sformat("  %-14s %12.3f ms  %5.1f%%\n", name, v / 1e6,
                   100.0 * static_cast<double>(v) / tot);
  };
  line("client_queue", phases.client_queue);
  line("request_wire", phases.request_wire);
  line("server_queue", phases.server_queue);
  line("service_cpu", phases.service_cpu);
  line("disk", phases.disk);
  line("reply_wire", phases.reply_wire);
  line("other", phases.other);
  out += sformat("  %-14s %12.3f ms\n", "end-to-end", total_ns / 1e6);
  for (const auto& [op, b] : per_op) {
    const double mean_us =
        b.count == 0 ? 0.0 : static_cast<double>(b.total_ns) / 1e3 /
                                 static_cast<double>(b.count);
    const double mean_hops =
        b.count == 0 ? 0.0 : static_cast<double>(b.hops) /
                                 static_cast<double>(b.count);
    const double op_tot =
        b.total_ns > 0 ? static_cast<double>(b.total_ns) : 1.0;
    out += sformat(
        "  op %-12s count=%llu mean_us=%.1f hops/trace=%.2f "
        "wire+queue=%.1f%% disk=%.1f%%\n",
        op.c_str(), static_cast<unsigned long long>(b.count), mean_us,
        mean_hops,
        100.0 * static_cast<double>(b.phases.wire_and_queue()) / op_tot,
        100.0 * static_cast<double>(b.phases.disk) / op_tot);
  }
  return out;
}

BreakdownReport analyze_all(const Tracer& tracer) {
  // Bucket retained spans by trace, preserving recording order (sampled
  // ring plus tail-promoted traces).
  std::map<uint64_t, std::vector<Span>> traces;
  for (const Span& s : tracer.retained_spans()) traces[s.trace_id].push_back(s);
  BreakdownReport rep;
  for (const auto& [id, spans] : traces) {
    const TraceBreakdown tb = analyze_trace(spans);
    if (tb.trace_id == 0) {
      ++rep.traces_skipped;
      continue;
    }
    ++rep.traces_analyzed;
    rep.total_ns += tb.total();
    rep.phases.add(tb.phases);
    OpBreakdown& op = rep.per_op[tb.root_op];
    ++op.count;
    op.total_ns += tb.total();
    op.hops += tb.hops;
    op.phases.add(tb.phases);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

void TimeSeries::add(const std::string& node, const std::string& name,
                     TimeNs t, double value) {
  series_[node][name].push_back(Sample{t, value});
  ++sample_count_;
}

std::string TimeSeries::to_json() const {
  std::string out = "{";
  bool first_node = true;
  for (const auto& [node, by_name] : series_) {
    if (!first_node) out += ", ";
    first_node = false;
    out += sformat("\"%s\": {", json_escape(node).c_str());
    bool first_name = true;
    for (const auto& [name, samples] : by_name) {
      if (!first_name) out += ", ";
      first_name = false;
      out += sformat("\"%s\": [", json_escape(name).c_str());
      for (size_t i = 0; i < samples.size(); ++i) {
        if (i > 0) out += ", ";
        out += sformat("[%lld, %s]", static_cast<long long>(samples[i].t),
                       json_number(samples[i].value).c_str());
      }
      out += "]";
    }
    out += "}";
  }
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// TraceExporter
// ---------------------------------------------------------------------------

namespace {

std::string ts_us(TimeNs ns) { return sformat("%.3f", ns / 1000.0); }

/// "nfs/38" -> "nfs"; free-form names pass through.
std::string component_of(const std::string& name) {
  const size_t slash = name.find('/');
  return slash == std::string::npos ? name : name.substr(0, slash);
}

}  // namespace

std::string TraceExporter::to_chrome_json(const Tracer& tracer,
                                          const std::string& architecture,
                                          const TimeSeries* series) {
  // pid per node (first-seen order), tid per (node, "kind component") lane —
  // Perfetto renders each simulated machine as a process with one track per
  // daemon role.
  std::map<std::string, int> pids;
  std::map<std::pair<int, std::string>, int> tids;
  std::map<int, int> next_tid;
  std::string meta;
  std::string events;
  const auto pid_of = [&](const std::string& node) {
    auto it = pids.find(node);
    if (it == pids.end()) {
      const int pid = static_cast<int>(pids.size()) + 1;
      it = pids.emplace(node, pid).first;
      meta += sformat(
          "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, "
          "\"args\": {\"name\": \"%s\"}},\n",
          pid, json_escape(node).c_str());
    }
    return it->second;
  };
  const auto tid_of = [&](int pid, const std::string& lane) {
    auto it = tids.find({pid, lane});
    if (it == tids.end()) {
      const int tid = ++next_tid[pid];
      it = tids.emplace(std::make_pair(pid, lane), tid).first;
      meta += sformat(
          "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": %d, "
          "\"tid\": %d, \"args\": {\"name\": \"%s\"}},\n",
          pid, tid, json_escape(lane).c_str());
    }
    return it->second;
  };

  const std::vector<Span> retained = tracer.retained_spans();
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const Span& s : retained) by_id.emplace(s.span_id, &s);
  const auto locate = [&](const Span& s) {
    const int pid = pid_of(s.node);
    const std::string lane =
        std::string(span_kind_name(s.kind)) + " " + component_of(s.name);
    return std::make_pair(pid, tid_of(pid, lane));
  };

  for (const Span& s : retained) {
    const auto [pid, tid] = locate(s);
    events += sformat(
        "{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": %d, "
        "\"tid\": %d, \"ts\": %s, \"dur\": %s, \"args\": {\"trace\": %llu, "
        "\"span\": %llu, \"parent\": %llu, \"queue_wait_ns\": %lld, "
        "\"send_wait_ns\": %lld, \"disk_ns\": %lld, \"bytes_out\": %llu, "
        "\"bytes_in\": %llu, \"sampled\": %d, \"promoted\": %d}},\n",
        json_escape(s.name).c_str(), span_kind_name(s.kind), pid, tid,
        ts_us(s.start).c_str(),
        ts_us(std::max<TimeNs>(0, s.end - s.start)).c_str(),
        static_cast<unsigned long long>(s.trace_id),
        static_cast<unsigned long long>(s.span_id),
        static_cast<unsigned long long>(s.parent_span_id),
        static_cast<long long>(s.queue_wait),
        static_cast<long long>(s.send_wait), static_cast<long long>(s.disk),
        static_cast<unsigned long long>(s.bytes_out),
        static_cast<unsigned long long>(s.bytes_in),
        s.sampled ? 1 : 0, s.promoted ? 1 : 0);
    // Parent edge as a flow arrow (span nesting crosses nodes, so slice
    // nesting alone can't show it).
    if (s.parent_span_id != 0) {
      const auto pit = by_id.find(s.parent_span_id);
      if (pit != by_id.end()) {
        const Span& p = *pit->second;
        const auto [ppid, ptid] = locate(p);
        const TimeNs from =
            std::min(std::max(s.start, p.start), std::max(p.start, p.end));
        events += sformat(
            "{\"ph\": \"s\", \"id\": %llu, \"name\": \"parent\", "
            "\"cat\": \"flow\", \"pid\": %d, \"tid\": %d, \"ts\": %s},\n",
            static_cast<unsigned long long>(s.span_id), ppid, ptid,
            ts_us(from).c_str());
        events += sformat(
            "{\"ph\": \"f\", \"bp\": \"e\", \"id\": %llu, "
            "\"name\": \"parent\", \"cat\": \"flow\", \"pid\": %d, "
            "\"tid\": %d, \"ts\": %s},\n",
            static_cast<unsigned long long>(s.span_id), pid, tid,
            ts_us(s.start).c_str());
      }
    }
  }

  if (series != nullptr) {
    for (const auto& [node, by_name] : series->series()) {
      const int pid = pid_of(node);
      for (const auto& [name, samples] : by_name) {
        for (const auto& sample : samples) {
          events += sformat(
              "{\"ph\": \"C\", \"name\": \"%s\", \"pid\": %d, \"ts\": %s, "
              "\"args\": {\"value\": %s}},\n",
              json_escape(name).c_str(), pid, ts_us(sample.t).c_str(),
              json_number(sample.value).c_str());
        }
      }
    }
  }

  std::string out = sformat(
      "{\"displayTimeUnit\": \"ns\",\n\"otherData\": {\"architecture\": "
      "\"%s\", \"spans_dropped\": %llu, \"sample_rate\": %s, "
      "\"traces_sampled\": %llu, \"traces_promoted\": %llu},\n"
      "\"traceEvents\": [\n",
      json_escape(architecture).c_str(),
      static_cast<unsigned long long>(tracer.spans_dropped()),
      json_number(tracer.sample_rate()).c_str(),
      static_cast<unsigned long long>(tracer.traces_sampled()),
      static_cast<unsigned long long>(tracer.traces_promoted()));
  out += meta;
  out += events;
  // Strip the trailing ",\n" so the array is valid JSON.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]}\n";
  return out;
}

}  // namespace dpnfs::obs
