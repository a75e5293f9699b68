// Scale-ready observability: head-sampling determinism, tail-based
// promotion of slow/errored traces, the oldest-evicting retained-span ring,
// hop-histogram completeness reporting, streaming percentile digests vs
// exact Summary, and end-to-end sampled-set reproducibility through real
// deployments.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/ior.hpp"

namespace dpnfs {
namespace {

using obs::Span;
using obs::SpanKind;
using obs::TraceContext;
using obs::Tracer;

Span root_span(const TraceContext& ctx, obs::TimeNs start, obs::TimeNs end,
               const std::string& name = "nfs/38") {
  Span s;
  s.trace_id = ctx.trace_id;
  s.span_id = ctx.span_id;
  s.parent_span_id = 0;
  s.kind = SpanKind::kClientCall;
  s.name = name;
  s.node = "client0";
  s.start = start;
  s.end = end;
  return s;
}

Span child_span(const TraceContext& ctx, uint64_t parent, obs::TimeNs start,
                obs::TimeNs end) {
  Span s;
  s.trace_id = ctx.trace_id;
  s.span_id = ctx.span_id;
  s.parent_span_id = parent;
  s.kind = SpanKind::kServerExec;
  s.name = "nfs/38";
  s.node = "storage0";
  s.start = start;
  s.end = end;
  return s;
}

// ---------------------------------------------------------------------------
// Head-sampling determinism
// ---------------------------------------------------------------------------

TEST(Sampling, VerdictIsDeterministicAcrossTracers) {
  Tracer a;
  Tracer b;
  for (Tracer* t : {&a, &b}) {
    t->set_sample_rate(0.25);
    t->set_sample_seed(42);
  }
  std::set<uint64_t> sampled_a;
  std::set<uint64_t> sampled_b;
  for (int i = 0; i < 2000; ++i) {
    const TraceContext ca = a.begin();
    const TraceContext cb = b.begin();
    if (ca.sampled) sampled_a.insert(ca.trace_id);
    if (cb.sampled) sampled_b.insert(cb.trace_id);
  }
  EXPECT_EQ(sampled_a, sampled_b);
  EXPECT_EQ(a.traces_sampled(), sampled_a.size());
  // ~25% of 2000, loose bounds: the verdict hash must not be degenerate.
  EXPECT_GT(sampled_a.size(), 350u);
  EXPECT_LT(sampled_a.size(), 650u);

  // A different seed samples a different subset at the same rate.
  Tracer c;
  c.set_sample_rate(0.25);
  c.set_sample_seed(43);
  std::set<uint64_t> sampled_c;
  for (int i = 0; i < 2000; ++i) {
    const TraceContext cc = c.begin();
    if (cc.sampled) sampled_c.insert(cc.trace_id);
  }
  EXPECT_NE(sampled_a, sampled_c);
}

TEST(Sampling, ChildContextInheritsRootVerdict) {
  Tracer t;
  t.set_sample_rate(0.5);
  t.set_sample_seed(7);
  bool saw_sampled = false;
  bool saw_unsampled = false;
  for (int i = 0; i < 64; ++i) {
    const TraceContext root = t.begin();
    const TraceContext child = t.begin(root);
    const TraceContext grandchild = t.begin(child);
    EXPECT_EQ(child.sampled, root.sampled);
    EXPECT_EQ(grandchild.sampled, root.sampled);
    EXPECT_EQ(root.sampled, t.sample_decision(root.trace_id));
    saw_sampled = saw_sampled || root.sampled;
    saw_unsampled = saw_unsampled || !root.sampled;
  }
  EXPECT_TRUE(saw_sampled);
  EXPECT_TRUE(saw_unsampled);
}

TEST(Sampling, AggregatesStayExactAtAnyRate) {
  // The same span stream through rate-1.0 and rate-0.0 tracers must agree
  // on every aggregate: sampling trades span detail, never accounting.
  Tracer always;
  Tracer never;
  never.set_sample_rate(0.0);
  never.set_staging_capacity(0);
  for (Tracer* t : {&always, &never}) {
    for (int i = 0; i < 100; ++i) {
      const TraceContext root = t->begin();
      const TraceContext child = t->begin(root);
      t->record(child_span(child, root.span_id, 10, 90));
      t->record(root_span(root, 0, 100));
    }
  }
  EXPECT_EQ(always.traces_started(), never.traces_started());
  EXPECT_EQ(always.rpc_hops_total(), never.rpc_hops_total());
  EXPECT_EQ(always.spans_recorded(), never.spans_recorded());
  EXPECT_EQ(always.hops_histogram(), never.hops_histogram());
  EXPECT_EQ(always.hop_traces_seen(), never.hop_traces_seen());
  // The per-op SLO section sees all traffic in both.
  EXPECT_NE(always.slo_json().find("\"requests\": 100"), std::string::npos);
  EXPECT_NE(never.slo_json().find("\"requests\": 100"), std::string::npos);
  // Detail differs as designed.
  EXPECT_EQ(always.spans().size(), 200u);
  EXPECT_TRUE(never.spans().empty());
  EXPECT_TRUE(never.retained_spans().empty());
  EXPECT_EQ(never.spans_sampled_out(), 200u);
}

// ---------------------------------------------------------------------------
// Tail-based retention
// ---------------------------------------------------------------------------

TEST(TailRetention, SlowTraceIsPromotedAtNearZeroRate) {
  Tracer t;
  t.set_sample_rate(0.001);
  t.set_sample_seed(1);
  t.set_slo_threshold(1'000'000);  // 1 ms
  uint64_t slow_trace = 0;
  // Many fast traces plus one slow one, all (almost surely) unsampled.
  for (int i = 0; i < 200; ++i) {
    const TraceContext root = t.begin();
    const TraceContext child = t.begin(root);
    const bool slow = i == 117;
    const obs::TimeNs end = slow ? 5'000'000 : 200'000;
    if (slow) slow_trace = root.trace_id;
    t.record(child_span(child, root.span_id, 10, end - 10));
    t.record(root_span(root, 0, end));
  }
  ASSERT_NE(slow_trace, 0u);
  if (t.sample_decision(slow_trace)) GTEST_SKIP() << "unlucky seed";
  const std::vector<Span> kept = t.trace_spans(slow_trace);
  ASSERT_EQ(kept.size(), 2u) << "slow trace must keep full span detail";
  for (const Span& s : kept) {
    EXPECT_FALSE(s.sampled);
    EXPECT_TRUE(s.promoted);
  }
  EXPECT_GE(t.traces_promoted(), 1u);
  // Fast clean unsampled traces were discarded on purpose.
  EXPECT_GT(t.spans_sampled_out(), 0u);
}

TEST(TailRetention, ErroredTraceIsPromotedAtRateZero) {
  Tracer t;
  t.set_sample_rate(0.0);
  const TraceContext ok = t.begin();
  t.record(root_span(ok, 0, 100));
  const TraceContext bad = t.begin();
  Span failing = root_span(bad, 0, 100, "nfs/38 timeout");
  failing.error = true;
  t.record(std::move(failing));
  EXPECT_TRUE(t.trace_spans(ok.trace_id).empty());
  const std::vector<Span> kept = t.trace_spans(bad.trace_id);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept.front().promoted);
  EXPECT_TRUE(kept.front().error);
  EXPECT_EQ(t.traces_promoted(), 1u);
}

TEST(TailRetention, ErroredChildPromotesWholeTrace) {
  // The root may finish clean (e.g. a retry succeeded) while a child hop
  // timed out: the error anywhere in the trace makes it interesting.
  Tracer t;
  t.set_sample_rate(0.0);
  const TraceContext root = t.begin();
  const TraceContext child = t.begin(root);
  Span failing = child_span(child, root.span_id, 10, 90);
  failing.error = true;
  t.record(std::move(failing));
  t.record(root_span(root, 0, 100));
  EXPECT_EQ(t.trace_spans(root.trace_id).size(), 2u);
  EXPECT_EQ(t.traces_promoted(), 1u);
}

TEST(TailRetention, LateSpansJoinAlreadyPromotedTrace) {
  // Retried RPCs record children *after* the errored anchor root: by then
  // the trace is promoted, and the late detail must land with it.
  Tracer t;
  t.set_sample_rate(0.0);
  const TraceContext root = t.begin();
  Span anchor = root_span(root, 0, 100, "nfs/38 timeout");
  anchor.error = true;
  t.record(std::move(anchor));
  ASSERT_EQ(t.traces_promoted(), 1u);
  const TraceContext retry = t.begin(root);
  t.record(child_span(retry, root.span_id, 150, 250));
  const std::vector<Span> kept = t.trace_spans(root.trace_id);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_TRUE(kept.back().promoted);
}

TEST(TailRetention, StagingDisabledMeansNoPromotion) {
  Tracer t;
  t.set_sample_rate(0.0);
  t.set_staging_capacity(0);
  const TraceContext bad = t.begin();
  Span failing = root_span(bad, 0, 100);
  failing.error = true;
  t.record(std::move(failing));
  EXPECT_TRUE(t.trace_spans(bad.trace_id).empty());
  EXPECT_EQ(t.traces_promoted(), 0u);
  EXPECT_EQ(t.spans_sampled_out(), 1u);
}

// ---------------------------------------------------------------------------
// Retained-span ring (satellite: evict oldest, not newest)
// ---------------------------------------------------------------------------

TEST(SpanRing, OverflowEvictsOldestSpans) {
  Tracer t;
  t.set_span_capacity(2);
  std::vector<uint64_t> traces;
  for (int i = 0; i < 5; ++i) {
    const TraceContext c = t.begin();
    traces.push_back(c.trace_id);
    t.record(root_span(c, i * 100, i * 100 + 10));
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans_dropped(), 3u);
  EXPECT_EQ(t.spans_recorded(), 5u);
  // A long run keeps the *newest* detail: traces 4 and 5 survive, 1-3 are
  // gone (the pre-ring behavior kept 1-2 and dropped everything after).
  EXPECT_TRUE(t.trace_spans(traces[0]).empty());
  EXPECT_TRUE(t.trace_spans(traces[1]).empty());
  EXPECT_TRUE(t.trace_spans(traces[2]).empty());
  EXPECT_EQ(t.trace_spans(traces[3]).size(), 1u);
  EXPECT_EQ(t.trace_spans(traces[4]).size(), 1u);
  EXPECT_EQ(t.spans().front().trace_id, traces[3]);
  EXPECT_EQ(t.spans().back().trace_id, traces[4]);
}

TEST(SpanRing, PromotedTraceSurvivesRingChurn) {
  Tracer t;
  t.set_sample_rate(0.5);
  t.set_sample_seed(99);
  t.set_span_capacity(4);
  // Promote one unsampled errored trace, then churn the sampled ring far
  // past its capacity: promoted detail must not be evicted.
  uint64_t promoted_trace = 0;
  for (int i = 0; i < 400; ++i) {
    const TraceContext c = t.begin();
    Span s = root_span(c, i * 100, i * 100 + 10);
    if (promoted_trace == 0 && !c.sampled) {
      promoted_trace = c.trace_id;
      s.error = true;
    }
    t.record(std::move(s));
  }
  ASSERT_NE(promoted_trace, 0u);
  EXPECT_LE(t.spans().size(), 4u);
  const std::vector<Span> kept = t.trace_spans(promoted_trace);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept.front().promoted);
  // And it shows up in the full retained view alongside the ring.
  bool found = false;
  for (const Span& s : t.retained_spans()) {
    found = found || s.trace_id == promoted_trace;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Hop-histogram completeness (satellite: truncated view must say so)
// ---------------------------------------------------------------------------

TEST(Tracer, HopHistogramReportsCompleteness) {
  Tracer fresh;
  const TraceContext c = fresh.begin();
  fresh.record(root_span(c, 0, 10));
  const std::string complete = fresh.to_json();
  EXPECT_NE(complete.find("\"hop_histogram_complete\": true"),
            std::string::npos);
  EXPECT_NE(complete.find("\"hop_traces_seen\": 1"), std::string::npos);

  Tracer evicting;
  evicting.set_hop_trace_capacity(4);
  for (int i = 0; i < 10; ++i) {
    const TraceContext r = evicting.begin();
    evicting.record(root_span(r, 0, 10));
  }
  EXPECT_EQ(evicting.hop_traces_seen(), 10u);
  EXPECT_EQ(evicting.hop_traces_evicted(), 6u);
  const std::string truncated = evicting.to_json();
  EXPECT_NE(truncated.find("\"hop_histogram_complete\": false"),
            std::string::npos);
  EXPECT_NE(truncated.find("\"hop_traces_seen\": 10"), std::string::npos);
  EXPECT_NE(truncated.find("\"hop_traces_evicted\": 6"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Streaming percentile digest
// ---------------------------------------------------------------------------

TEST(PercentileDigest, MatchesSummaryWithinBucketWidth) {
  util::Rng rng(12345);
  util::Summary exact;
  util::PercentileDigest digest;
  // A heavy-tailed latency-shaped distribution across several decades.
  for (int i = 0; i < 50'000; ++i) {
    const double u = rng.uniform();
    const double v = 50.0 * std::exp(6.0 * u);  // ~50us .. ~20ms
    exact.add(v);
    digest.add(v);
  }
  EXPECT_EQ(digest.count(), 50'000u);
  EXPECT_NEAR(digest.mean(), exact.mean(), exact.mean() * 1e-9);
  EXPECT_DOUBLE_EQ(digest.min(), exact.min());
  EXPECT_DOUBLE_EQ(digest.max(), exact.max());
  for (const double q : {0.50, 0.90, 0.99, 0.999}) {
    const double want = exact.percentile(q * 100.0);
    const double got = digest.quantile(q);
    EXPECT_NEAR(got, want, want * util::PercentileDigest::relative_error())
        << "q=" << q;
  }
}

TEST(PercentileDigest, MergeEqualsCombinedStream) {
  util::Rng rng(777);
  util::PercentileDigest a;
  util::PercentileDigest b;
  util::PercentileDigest combined;
  for (int i = 0; i < 10'000; ++i) {
    const double v = 1.0 + rng.uniform() * 999.0;
    (i % 2 == 0 ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  // Summation order differs between the split and combined streams, so the
  // sums agree only up to floating-point reassociation error.
  EXPECT_NEAR(a.sum(), combined.sum(), 1e-6 * combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q)) << "q=" << q;
  }
}

TEST(PercentileDigest, EmptyAndJson) {
  util::PercentileDigest d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_DOUBLE_EQ(d.quantile(0.99), 0.0);
  d.add(12.0);
  const std::string json = d.to_json();
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 12"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: deployments
// ---------------------------------------------------------------------------

std::set<uint64_t> run_sampled_trace_ids(uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 3;
  cfg.clients = 2;
  cfg.trace_sample_rate = 0.5;
  cfg.trace_sample_seed = seed;
  cfg.trace_slo_threshold = sim::sec(10);  // nothing is that slow here
  core::Deployment d(cfg);
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 8ull << 20;
  workload::IorWorkload w(ior);
  workload::run_workload(d, w);
  std::set<uint64_t> ids;
  for (const Span& s : d.tracer().spans()) ids.insert(s.trace_id);
  EXPECT_GT(d.tracer().traces_sampled(), 0u);
  EXPECT_LT(d.tracer().traces_sampled(), d.tracer().traces_started());
  return ids;
}

TEST(Deployment, SampledTraceIdSetsAreReproducible) {
  const std::set<uint64_t> first = run_sampled_trace_ids(2024);
  const std::set<uint64_t> second = run_sampled_trace_ids(2024);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Deployment, MetricsJsonCarriesSloSection) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 3;
  cfg.clients = 1;
  cfg.trace_sample_rate = 0.25;
  cfg.trace_slo_threshold = sim::ms(50);
  core::Deployment d(cfg);
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 8ull << 20;
  workload::IorWorkload w(ior);
  workload::run_workload(d, w);
  const std::string json = d.observer().metrics_json();
  EXPECT_NE(json.find("\"slo\":"), std::string::npos);
  EXPECT_NE(json.find("\"per_op\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"traces_sampled\""), std::string::npos);
  EXPECT_NE(json.find("\"traces_promoted\""), std::string::npos);
  EXPECT_NE(json.find("\"hop_histogram_complete\""), std::string::npos);
  EXPECT_NE(json.find("\"digests\""), std::string::npos);
  // The rpc service-time digest rode along with the histograms.
  const util::PercentileDigest* svc =
      d.metrics().find_digest("storage0", "rpc", "service_us");
  ASSERT_NE(svc, nullptr);
  EXPECT_GT(svc->count(), 0u);
}

}  // namespace
}  // namespace dpnfs
