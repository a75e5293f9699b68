#include "util/obs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/format.hpp"

namespace dpnfs::obs {

using util::json_number;
using util::sformat;

// ---------------------------------------------------------------------------
// HistogramMetric
// ---------------------------------------------------------------------------

HistogramMetric::HistogramMetric(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)) {
  if (boundaries_.empty()) {
    throw std::invalid_argument("empty histogram boundaries");
  }
  for (size_t i = 1; i < boundaries_.size(); ++i) {
    if (boundaries_[i] <= boundaries_[i - 1]) {
      throw std::invalid_argument("histogram boundaries must increase");
    }
  }
  counts_.assign(boundaries_.size() + 1, 0.0);
}

void HistogramMetric::observe(double value) {
  const auto it =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), value);
  counts_[static_cast<size_t>(it - boundaries_.begin())] += 1.0;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

std::vector<double> latency_us_boundaries() {
  // 1us .. 10s in a 1/2/5 progression: fine enough to separate queue wait
  // from service time, coarse enough to stay 22 buckets.
  return {1,     2,     5,     10,    20,    50,    100,   200,
          500,   1e3,   2e3,   5e3,   1e4,   2e4,   5e4,   1e5,
          2e5,   5e5,   1e6,   2e6,   5e6,   1e7};
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& node,
                                  const std::string& component,
                                  const std::string& name) {
  return nodes_[node][component].counters[name];
}

Gauge& MetricsRegistry::gauge(const std::string& node,
                              const std::string& component,
                              const std::string& name) {
  return nodes_[node][component].gauges[name];
}

HistogramMetric& MetricsRegistry::histogram(const std::string& node,
                                            const std::string& component,
                                            const std::string& name,
                                            std::vector<double> boundaries) {
  auto& hists = nodes_[node][component].histograms;
  auto it = hists.find(name);
  if (it == hists.end()) {
    it = hists.emplace(name, HistogramMetric(std::move(boundaries))).first;
  }
  return it->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& node,
                                             const std::string& component,
                                             const std::string& name) const {
  const auto n = nodes_.find(node);
  if (n == nodes_.end()) return nullptr;
  const auto c = n->second.find(component);
  if (c == n->second.end()) return nullptr;
  const auto m = c->second.counters.find(name);
  return m == c->second.counters.end() ? nullptr : &m->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& node,
                                         const std::string& component,
                                         const std::string& name) const {
  const auto n = nodes_.find(node);
  if (n == nodes_.end()) return nullptr;
  const auto c = n->second.find(component);
  if (c == n->second.end()) return nullptr;
  const auto m = c->second.gauges.find(name);
  return m == c->second.gauges.end() ? nullptr : &m->second;
}

util::PercentileDigest& MetricsRegistry::digest(const std::string& node,
                                                const std::string& component,
                                                const std::string& name) {
  return nodes_[node][component].digests[name];
}

const HistogramMetric* MetricsRegistry::find_histogram(
    const std::string& node, const std::string& component,
    const std::string& name) const {
  const auto n = nodes_.find(node);
  if (n == nodes_.end()) return nullptr;
  const auto c = n->second.find(component);
  if (c == n->second.end()) return nullptr;
  const auto m = c->second.histograms.find(name);
  return m == c->second.histograms.end() ? nullptr : &m->second;
}

const util::PercentileDigest* MetricsRegistry::find_digest(
    const std::string& node, const std::string& component,
    const std::string& name) const {
  const auto n = nodes_.find(node);
  if (n == nodes_.end()) return nullptr;
  const auto c = n->second.find(component);
  if (c == n->second.end()) return nullptr;
  const auto m = c->second.digests.find(name);
  return m == c->second.digests.end() ? nullptr : &m->second;
}

namespace {

std::string histogram_json(const HistogramMetric& h) {
  std::string out = sformat(
      "{\"count\": %llu, \"sum\": %s, \"mean\": %s, \"min\": %s, \"max\": %s, "
      "\"boundaries\": [",
      static_cast<unsigned long long>(h.count()), json_number(h.sum()).c_str(),
      json_number(h.mean()).c_str(), json_number(h.min()).c_str(),
      json_number(h.max()).c_str());
  for (size_t i = 0; i < h.boundaries().size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(h.boundaries()[i]);
  }
  out += "], \"counts\": [";
  for (size_t i = 0; i < h.bucket_count(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(h.bucket_weight(i));
  }
  out += "]}";
  return out;
}

}  // namespace

std::vector<std::string> MetricsRegistry::node_names() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [node, components] : nodes_) out.push_back(node);
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  bool first_node = true;
  for (const auto& [node, components] : nodes_) {
    if (!first_node) out += ", ";
    first_node = false;
    out += sformat("\"%s\": {", json_escape(node).c_str());
    bool first_comp = true;
    for (const auto& [comp, metrics] : components) {
      if (!first_comp) out += ", ";
      first_comp = false;
      out += sformat("\"%s\": {", json_escape(comp).c_str());
      out += "\"counters\": {";
      bool first = true;
      for (const auto& [name, c] : metrics.counters) {
        if (!first) out += ", ";
        first = false;
        out += sformat("\"%s\": %llu", json_escape(name).c_str(),
                       static_cast<unsigned long long>(c.value()));
      }
      out += "}, \"gauges\": {";
      first = true;
      for (const auto& [name, g] : metrics.gauges) {
        if (!first) out += ", ";
        first = false;
        out += sformat("\"%s\": %s", json_escape(name).c_str(),
                       json_number(g.value()).c_str());
      }
      out += "}, \"histograms\": {";
      first = true;
      for (const auto& [name, h] : metrics.histograms) {
        if (!first) out += ", ";
        first = false;
        out += sformat("\"%s\": %s", json_escape(name).c_str(),
                       histogram_json(h).c_str());
      }
      out += "}, \"digests\": {";
      first = true;
      for (const auto& [name, d] : metrics.digests) {
        if (!first) out += ", ";
        first = false;
        out += sformat("\"%s\": %s", json_escape(name).c_str(),
                       d.to_json().c_str());
      }
      out += "}}";
    }
    out += "}";
  }
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kClientCall: return "client";
    case SpanKind::kServerExec: return "server";
    case SpanKind::kInternal: return "internal";
  }
  return "?";
}

namespace {

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mix so consecutive
/// trace ids map to uniformly scattered hash values.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void Tracer::set_sample_rate(double rate) noexcept {
  rate = std::min(1.0, std::max(0.0, rate));
  sample_rate_ = rate;
  if (rate >= 1.0) {
    sample_threshold_ = ~0ull;
  } else {
    // rate * 2^64, computed as rate * 2^32 * 2^32 to stay in double range.
    sample_threshold_ = static_cast<uint64_t>(rate * 4294967296.0 * 4294967296.0);
  }
}

bool Tracer::sample_decision(uint64_t trace_id) const noexcept {
  if (sample_rate_ >= 1.0) return true;
  if (sample_rate_ <= 0.0) return false;
  return mix64(trace_id ^ sample_seed_) < sample_threshold_;
}

TraceContext Tracer::begin(TraceContext parent) {
  TraceContext ctx;
  ctx.tenant = parent.tenant;
  if (parent.valid()) {
    ctx.trace_id = parent.trace_id;
    ctx.sampled = parent.sampled;
  } else {
    ctx.trace_id = next_trace_++;
    ++traces_started_;
    ctx.sampled = sample_decision(ctx.trace_id);
    if (ctx.sampled) ++traces_sampled_;
  }
  ctx.span_id = next_span_++;
  return ctx;
}

void Tracer::record(Span span) {
  if (span.trace_id == 0) return;
  ++spans_recorded_;
  if (span.kind == SpanKind::kClientCall) {
    ++rpc_hops_total_;
    auto it = hops_per_trace_.find(span.trace_id);
    if (it == hops_per_trace_.end()) {
      // A trace id above the eviction high-water mark is genuinely new; a
      // smaller one is a previously evicted trace resurfacing (counted once).
      if (span.trace_id > max_evicted_trace_) ++hop_traces_seen_;
      it = hops_per_trace_.emplace(span.trace_id, 0).first;
      while (hops_per_trace_.size() > hop_trace_capacity_) {
        auto oldest = hops_per_trace_.begin();
        if (oldest->first == span.trace_id) break;  // never evict the live one
        max_evicted_trace_ = std::max(max_evicted_trace_, oldest->first);
        hops_per_trace_.erase(oldest);
        ++hop_traces_evicted_;
      }
    }
    max_hops_ = std::max(max_hops_, ++it->second);
  }
  // Per-op SLO accounting covers every root span, sampled or not.
  if (span.parent_span_id == 0) {
    OpSlo& op = slo_[op_class(span.name)];
    ++op.requests;
    if (span.error) ++op.errors;
    const TimeNs latency = span.end - span.start;
    if (slo_threshold_ > 0 && latency > slo_threshold_) ++op.over_slo;
    op.latency_us.add(static_cast<double>(latency) * 1e-3);
  }
  span.sampled = sample_decision(span.trace_id);
  if (span.sampled) {
    retain(std::move(span));
  } else {
    stage(std::move(span));
  }
}

void Tracer::retain(Span span) {
  if (span_capacity_ == 0) {
    ++spans_dropped_;
    return;
  }
  while (spans_.size() >= span_capacity_) evict_oldest_retained();
  trace_index_[span.trace_id].push_back(spans_base_ + spans_.size());
  spans_.push_back(std::move(span));
}

void Tracer::evict_oldest_retained() {
  const Span& victim = spans_.front();
  auto it = trace_index_.find(victim.trace_id);
  if (it != trace_index_.end()) {
    // Spans of a trace are recorded (and indexed) in order, so the ring's
    // front is always the first entry of its trace's index vector.
    auto& positions = it->second;
    if (!positions.empty() && positions.front() == spans_base_) {
      positions.erase(positions.begin());
    }
    if (positions.empty()) trace_index_.erase(it);
  }
  spans_.pop_front();
  ++spans_base_;
  ++spans_dropped_;
}

void Tracer::stage(Span span) {
  // Trace already promoted (e.g. a retry child recorded after its errored
  // anchor root): keep the late detail with the rest of the trace.
  if (!promoted_.empty()) {
    const auto promoted_it = promoted_.find(span.trace_id);
    if (promoted_it != promoted_.end()) {
      span.promoted = true;
      promoted_it->second.push_back(std::move(span));
      ++promoted_span_count_;
      return;
    }
  }
  if (staging_capacity_ == 0) {
    ++spans_sampled_out_;
    return;
  }
  const bool is_root = span.parent_span_id == 0;
  size_t idx = staged_.size();
  for (size_t i = 0; i < staged_.size(); ++i) {
    if (staged_[i].trace_id == span.trace_id) {
      idx = i;
      break;
    }
  }
  if (idx == staged_.size()) {
    if (is_root) {
      // Root-only trace (no children staged): the tail verdict is
      // decidable right now — skip staging entirely.  This is the common
      // case for metadata-light ops and keeps near-zero sampling rates
      // near tracing-off cost.
      const TimeNs latency = span.end - span.start;
      const bool slow = slo_threshold_ > 0 && latency > slo_threshold_;
      if (!slow && !span.error) {
        ++spans_sampled_out_;
        return;
      }
      const uint64_t trace_id = span.trace_id;
      std::vector<Span> only = take_pooled_vector();
      only.push_back(std::move(span));
      promote_trace(trace_id, std::move(only));
      return;
    }
    staged_.push_back(StagedTrace{span.trace_id, take_pooled_vector()});
  }
  staged_[idx].spans.push_back(std::move(span));
  ++staged_span_count_;
  if (is_root) {
    finish_unsampled_trace(idx);
    return;
  }
  // Bound staging by evicting whole oldest traces (their roots never
  // arrived; their detail is lost to capacity, not to the verdict).
  while (staged_span_count_ > staging_capacity_ && !staged_.empty()) {
    StagedTrace& victim = staged_.front();
    staged_span_count_ -= victim.spans.size();
    spans_dropped_ += victim.spans.size();
    recycle_vector(std::move(victim.spans));
    staged_.erase(staged_.begin());
  }
}

void Tracer::finish_unsampled_trace(size_t staged_index) {
  StagedTrace& st = staged_[staged_index];
  const uint64_t trace_id = st.trace_id;
  bool any_error = false;
  for (const Span& s : st.spans) {
    if (s.error) {
      any_error = true;
      break;
    }
  }
  // The root is the finishing span — stage() appends it last.
  const Span& root = st.spans.back();
  const TimeNs latency = root.end - root.start;
  const bool slow = slo_threshold_ > 0 && latency > slo_threshold_;
  std::vector<Span> staged = std::move(st.spans);
  staged_span_count_ -= staged.size();
  staged_.erase(staged_.begin() + static_cast<ptrdiff_t>(staged_index));
  if (slow || any_error) {
    promote_trace(trace_id, std::move(staged));
  } else {
    spans_sampled_out_ += staged.size();
    recycle_vector(std::move(staged));
  }
}

std::vector<Span> Tracer::take_pooled_vector() {
  if (staging_pool_.empty()) return {};
  std::vector<Span> v = std::move(staging_pool_.back());
  staging_pool_.pop_back();
  return v;
}

void Tracer::recycle_vector(std::vector<Span> v) {
  if (staging_pool_.size() >= 64) return;
  v.clear();  // frees the Spans' strings, keeps the buffer
  staging_pool_.push_back(std::move(v));
}

void Tracer::promote_trace(uint64_t trace_id, std::vector<Span> staged) {
  ++traces_promoted_;
  auto& dest = promoted_[trace_id];
  promoted_order_.push_back(trace_id);
  for (Span& s : staged) {
    s.promoted = true;
    dest.push_back(std::move(s));
  }
  recycle_vector(std::move(staged));
  promoted_span_count_ += dest.size();
  // Keep promoted storage bounded too: drop whole oldest promoted traces.
  while (promoted_span_count_ > staging_capacity_ &&
         promoted_order_.size() > 1) {
    const uint64_t oldest = promoted_order_.front();
    if (oldest == trace_id) break;  // never drop the trace just promoted
    promoted_order_.pop_front();
    auto victim = promoted_.find(oldest);
    if (victim == promoted_.end()) continue;
    promoted_span_count_ -= victim->second.size();
    spans_dropped_ += victim->second.size();
    promoted_.erase(victim);
  }
}

std::string Tracer::op_class(const std::string& name) {
  // Client spans of timed-out calls carry a " timeout" suffix; the op class
  // must not fragment on outcome (the error flag carries that).
  static constexpr char kSuffix[] = " timeout";
  static constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name.size() > kSuffixLen &&
      name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0) {
    return name.substr(0, name.size() - kSuffixLen);
  }
  return name;
}

double Tracer::mean_hops_per_trace() const noexcept {
  if (hop_traces_seen_ == 0) return 0.0;
  return static_cast<double>(rpc_hops_total_) /
         static_cast<double>(hop_traces_seen_);
}

uint32_t Tracer::max_hops_per_trace() const noexcept { return max_hops_; }

std::map<uint32_t, uint64_t> Tracer::hops_histogram() const {
  std::map<uint32_t, uint64_t> out;
  for (const auto& [trace, hops] : hops_per_trace_) ++out[hops];
  return out;
}

std::vector<Span> Tracer::trace_spans(uint64_t trace_id) const {
  std::vector<Span> out;
  const auto p = promoted_.find(trace_id);
  if (p != promoted_.end()) return p->second;
  const auto it = trace_index_.find(trace_id);
  if (it == trace_index_.end()) return out;
  out.reserve(it->second.size());
  for (const size_t abs : it->second) out.push_back(spans_[abs - spans_base_]);
  return out;
}

std::vector<Span> Tracer::retained_spans() const {
  std::vector<Span> out;
  out.reserve(spans_.size() + promoted_span_count_);
  out.insert(out.end(), spans_.begin(), spans_.end());
  for (const uint64_t trace_id : promoted_order_) {
    const auto it = promoted_.find(trace_id);
    if (it == promoted_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

std::string Tracer::to_json() const {
  std::string out = sformat(
      "{\"traces_started\": %llu, \"rpc_hops_total\": %llu, "
      "\"mean_hops_per_trace\": %s, \"max_hops_per_trace\": %u, "
      "\"spans_recorded\": %llu, \"spans_dropped\": %llu, "
      "\"sample_rate\": %s, \"traces_sampled\": %llu, "
      "\"traces_promoted\": %llu, \"spans_sampled_out\": %llu, "
      "\"hop_traces_seen\": %llu, \"hop_traces_evicted\": %llu, "
      "\"hop_histogram_complete\": %s, "
      "\"hops_histogram\": {",
      static_cast<unsigned long long>(traces_started_),
      static_cast<unsigned long long>(rpc_hops_total_),
      json_number(mean_hops_per_trace()).c_str(), max_hops_per_trace(),
      static_cast<unsigned long long>(spans_recorded_),
      static_cast<unsigned long long>(spans_dropped_),
      json_number(sample_rate_).c_str(),
      static_cast<unsigned long long>(traces_sampled_),
      static_cast<unsigned long long>(traces_promoted_),
      static_cast<unsigned long long>(spans_sampled_out_),
      static_cast<unsigned long long>(hop_traces_seen_),
      static_cast<unsigned long long>(hop_traces_evicted_),
      hop_traces_evicted_ == 0 ? "true" : "false");
  bool first = true;
  for (const auto& [hops, traces] : hops_histogram()) {
    if (!first) out += ", ";
    first = false;
    out += sformat("\"%u\": %llu", hops,
                   static_cast<unsigned long long>(traces));
  }
  out += "}}";
  return out;
}

std::string Tracer::slo_json() const {
  std::string out = sformat(
      "{\"slo_threshold_ns\": %lld, \"sample_rate\": %s, "
      "\"traces_started\": %llu, \"traces_sampled\": %llu, "
      "\"traces_promoted\": %llu, \"spans_sampled_out\": %llu, "
      "\"per_op\": {",
      static_cast<long long>(slo_threshold_),
      json_number(sample_rate_).c_str(),
      static_cast<unsigned long long>(traces_started_),
      static_cast<unsigned long long>(traces_sampled_),
      static_cast<unsigned long long>(traces_promoted_),
      static_cast<unsigned long long>(spans_sampled_out_));
  bool first = true;
  for (const auto& [op, s] : slo_) {
    if (!first) out += ", ";
    first = false;
    out += sformat(
        "\"%s\": {\"requests\": %llu, \"errors\": %llu, \"over_slo\": %llu, "
        "\"latency_us\": %s}",
        json_escape(op).c_str(),
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.errors),
        static_cast<unsigned long long>(s.over_slo),
        s.latency_us.to_json().c_str());
  }
  out += "}}";
  return out;
}

std::string Tracer::spans_json(size_t limit) const {
  std::string out = "[";
  size_t n = 0;
  for (const auto& s : retained_spans()) {
    if (n >= limit) break;
    if (n > 0) out += ", ";
    ++n;
    out += sformat(
        "{\"trace\": %llu, \"span\": %llu, \"parent\": %llu, "
        "\"kind\": \"%s\", \"name\": \"%s\", \"node\": \"%s\", "
        "\"start_ns\": %lld, \"end_ns\": %lld, \"queue_wait_ns\": %lld, "
        "\"bytes_out\": %llu, \"bytes_in\": %llu, "
        "\"send_wait_ns\": %lld, \"disk_ns\": %lld, "
        "\"error\": %s, \"sampled\": %s, \"promoted\": %s}",
        static_cast<unsigned long long>(s.trace_id),
        static_cast<unsigned long long>(s.span_id),
        static_cast<unsigned long long>(s.parent_span_id),
        span_kind_name(s.kind), json_escape(s.name).c_str(),
        json_escape(s.node).c_str(), static_cast<long long>(s.start),
        static_cast<long long>(s.end), static_cast<long long>(s.queue_wait),
        static_cast<unsigned long long>(s.bytes_out),
        static_cast<unsigned long long>(s.bytes_in),
        static_cast<long long>(s.send_wait), static_cast<long long>(s.disk),
        s.error ? "true" : "false", s.sampled ? "true" : "false",
        s.promoted ? "true" : "false");
  }
  out += "]";
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += sformat("\\u%04x", ch);
        } else {
          out += ch;
        }
    }
  }
  return out;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(body.data(), 1, body.size(), f);
  return std::fclose(f) == 0 && n == body.size();
}

}  // namespace dpnfs::obs
