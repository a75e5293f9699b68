// Critical-path latency attribution, Chrome trace export, tracer indexing,
// and utilization sampling.  Runs under the `faults` label so the asan
// preset's fault matrix covers the analyzer against retry-shaped traces.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/adapters.hpp"
#include "core/deployment.hpp"
#include "rpc/fabric.hpp"
#include "util/obs.hpp"
#include "util/obs_analysis.hpp"
#include "workload/ior.hpp"
#include "workload/runner.hpp"

namespace dpnfs {
namespace {

using obs::Span;
using obs::SpanKind;
using sim::Task;

Span make_span(uint64_t trace, uint64_t id, uint64_t parent, SpanKind kind,
               const char* name, const char* node, int64_t start,
               int64_t end) {
  return Span{.trace_id = trace,
              .span_id = id,
              .parent_span_id = parent,
              .kind = kind,
              .name = name,
              .node = node,
              .start = start,
              .end = end};
}

// ---------------------------------------------------------------------------
// analyze_trace: exact attribution on hand-built traces
// ---------------------------------------------------------------------------

TEST(CriticalPath, TwoHopExactAttribution) {
  // client [0,1000] --wire--> server picked up at 200 (enqueued at 100),
  // done at 800; the store burns [300,600] of which 250 ns touched the disk.
  Span client = make_span(1, 1, 0, SpanKind::kClientCall, "nfs/38", "client0",
                          0, 1000);
  client.send_wait = 50;
  Span server = make_span(1, 2, 1, SpanKind::kServerExec, "nfs/38", "storage0",
                          200, 800);
  server.queue_wait = 100;
  Span store = make_span(1, 3, 2, SpanKind::kInternal, "store/write",
                         "storage0", 300, 600);
  store.disk = 250;

  const obs::TraceBreakdown b = obs::analyze_trace({store, server, client});
  EXPECT_TRUE(b.well_formed);
  EXPECT_EQ(b.root_op, "nfs/38");
  EXPECT_EQ(b.hops, 1u);
  EXPECT_EQ(b.phases.client_queue, 50);
  EXPECT_EQ(b.phases.request_wire, 50);
  EXPECT_EQ(b.phases.server_queue, 100);
  EXPECT_EQ(b.phases.service_cpu, 350);
  EXPECT_EQ(b.phases.disk, 250);
  EXPECT_EQ(b.phases.reply_wire, 200);
  EXPECT_EQ(b.phases.other, 0);
  EXPECT_EQ(b.phases.total(), b.total());  // exactness invariant
}

TEST(CriticalPath, NestedProxyHopSumsExactly) {
  // The 2-tier shape: client -> DS, whose server span issues a nested
  // client hop to the storage daemon.
  Span c1 = make_span(7, 1, 0, SpanKind::kClientCall, "nfs/38", "client0",
                      0, 2000);
  c1.send_wait = 50;
  Span s1 = make_span(7, 2, 1, SpanKind::kServerExec, "nfs/38", "ds0",
                      100, 1800);
  s1.queue_wait = 50;
  Span c2 = make_span(7, 3, 2, SpanKind::kClientCall, "pvfs.io/4", "ds0",
                      300, 1500);
  c2.send_wait = 25;
  Span s2 = make_span(7, 4, 3, SpanKind::kServerExec, "pvfs.io/4", "storage2",
                      500, 1300);
  s2.queue_wait = 80;
  Span st = make_span(7, 5, 4, SpanKind::kInternal, "store/write", "storage2",
                      600, 1100);
  st.disk = 400;

  const obs::TraceBreakdown b = obs::analyze_trace({c1, s1, c2, s2, st});
  EXPECT_TRUE(b.well_formed);
  EXPECT_EQ(b.hops, 2u);
  EXPECT_EQ(b.phases.total(), 2000);
  // Both hops' wire/queue shares stack: the proxy adds its own send wait,
  // queue residency, and wire legs on top of the first hop's.
  EXPECT_EQ(b.phases.client_queue, 50 + 25);
  EXPECT_EQ(b.phases.server_queue, 50 + 80);
  EXPECT_EQ(b.phases.disk, 400);
}

TEST(CriticalPath, OverlappingSiblingsNeverDoubleCount) {
  // Two server-exec children with overlapping extended intervals: the
  // earlier-starting child claims the overlap; the total still matches.
  Span c = make_span(3, 1, 0, SpanKind::kClientCall, "nfs/38", "client0",
                     0, 1000);
  Span a = make_span(3, 2, 1, SpanKind::kServerExec, "nfs/38", "s0", 100, 600);
  Span bspan =
      make_span(3, 3, 1, SpanKind::kServerExec, "nfs/38", "s1", 400, 900);
  const obs::TraceBreakdown b = obs::analyze_trace({c, a, bspan});
  EXPECT_TRUE(b.well_formed);
  EXPECT_EQ(b.phases.total(), 1000);
  EXPECT_EQ(b.phases.service_cpu, 800);  // [100,600) + [600,900), no overlap
}

TEST(CriticalPath, TimedOutAttemptIsUnattributable) {
  // A client span with no server-exec child (the reply never came): its
  // exclusive time is "other", not wire.
  Span root = make_span(9, 1, 0, SpanKind::kClientCall, "nfs/38 timeout",
                        "client0", 0, 500);
  const obs::TraceBreakdown b = obs::analyze_trace({root});
  EXPECT_TRUE(b.well_formed);
  EXPECT_EQ(b.phases.other, 500);
  EXPECT_EQ(b.phases.request_wire, 0);
}

TEST(CriticalPath, ParentCycleIsNotWellFormed) {
  Span a = make_span(5, 1, 2, SpanKind::kClientCall, "x", "n", 0, 100);
  Span b = make_span(5, 2, 1, SpanKind::kServerExec, "x", "n", 0, 100);
  const obs::TraceBreakdown out = obs::analyze_trace({a, b});
  EXPECT_FALSE(out.well_formed);
}

// ---------------------------------------------------------------------------
// Chrome export
// ---------------------------------------------------------------------------

TEST(TraceExporter, EmitsChromeTraceEventShape) {
  obs::Tracer tracer;
  Span client = make_span(1, 1, 0, SpanKind::kClientCall, "nfs/38", "client0",
                          1000, 5000);
  Span server = make_span(1, 2, 1, SpanKind::kServerExec, "nfs/38", "storage0",
                          2000, 4000);
  tracer.record(std::move(client));
  tracer.record(std::move(server));

  obs::TimeSeries ts;
  ts.add("storage0", "nic_tx_util", 1500, 0.5);

  const std::string json =
      obs::TraceExporter::to_chrome_json(tracer, "Direct-pNFS", &ts);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"architecture\": \"Direct-pNFS\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Cross-node parent edge => one flow pair.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  // Counter track from the sampled series.
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"nic_tx_util\""), std::string::npos);
  // Span annotations ride in args.
  EXPECT_NE(json.find("\"queue_wait_ns\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer: per-trace index and hop-map eviction
// ---------------------------------------------------------------------------

TEST(Tracer, TraceSpansUsesIndex) {
  obs::Tracer tracer;
  for (uint64_t t = 1; t <= 50; ++t) {
    tracer.record(make_span(t, t * 10, 0, SpanKind::kClientCall, "nfs/38",
                            "c", 0, 100));
  }
  const auto spans = tracer.trace_spans(17);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span_id, 170u);
  EXPECT_TRUE(tracer.trace_spans(999).empty());
}

TEST(Tracer, HopMapEvictionKeepsAccountingExact) {
  obs::Tracer tracer;
  tracer.set_hop_trace_capacity(4);
  // 10 traces, 2 hops each; the map holds only the 4 newest.
  for (uint64_t t = 1; t <= 10; ++t) {
    for (int h = 0; h < 2; ++h) {
      tracer.record(make_span(t, t * 100 + h, 0, SpanKind::kClientCall,
                              "nfs/38", "c", 0, 100));
    }
  }
  EXPECT_EQ(tracer.hop_traces_seen(), 10u);
  EXPECT_EQ(tracer.hop_traces_evicted(), 6u);
  EXPECT_DOUBLE_EQ(tracer.mean_hops_per_trace(), 2.0);
  EXPECT_EQ(tracer.max_hops_per_trace(), 2u);
  EXPECT_NE(tracer.to_json().find("\"hop_traces_evicted\": 6"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Deployment-level: fault-injected traces stay sane; sampler; acceptance
// ---------------------------------------------------------------------------

core::ClusterConfig small_cluster(core::Architecture arch) {
  core::ClusterConfig cfg;
  cfg.architecture = arch;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  cfg.trace_span_capacity = 65536;
  return cfg;
}

double run_ior_write_share(core::Architecture arch, obs::BreakdownReport* out) {
  core::ClusterConfig cfg = small_cluster(arch);
  core::Deployment d(cfg);
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 8'000'000;
  workload::IorWorkload w(ior);
  run_workload(d, w);
  obs::BreakdownReport rep = obs::analyze_all(d.tracer());
  if (out != nullptr) *out = rep;
  return rep.wire_queue_share();
}

/// Mean wire+queue nanoseconds per write-back dispatch (traces rooted at
/// the per-DS scheduler's wb.sched spans).  The reroute claim is about
/// absolute time the extra hop adds on the data path: shares of total are
/// confounded by where each architecture's *service* time goes (the 2-tier
/// kernel-client traversal is service, COMMIT pipelining shifts every
/// architecture's aggregate), but the re-route's wire and queue residency
/// per request survives any denominator.
double write_wire_queue_per_trace(const obs::BreakdownReport& rep) {
  obs::TimeNs wq = 0;
  uint64_t count = 0;
  for (const auto& [op, ob] : rep.per_op) {
    if (op.rfind("wb.sched/", 0) == 0) {
      wq += ob.phases.wire_and_queue();
      count += ob.count;
    }
  }
  return count > 0 ? static_cast<double>(wq) / static_cast<double>(count)
                   : 0.0;
}

TEST(Breakdown, TwoTierRerouteInflatesWireQueueShare) {
  // The acceptance pin: the 2-tier proxy's extra data-server hop must cost
  // strictly more wire+queue time per write-back dispatch than Direct-pNFS
  // on the same workload — that is the Figure 6 gap, attributed.
  obs::BreakdownReport direct, two_tier;
  run_ior_write_share(core::Architecture::kDirectPnfs, &direct);
  run_ior_write_share(core::Architecture::kPnfs2Tier, &two_tier);
  const double direct_share = write_wire_queue_per_trace(direct);
  const double two_tier_share = write_wire_queue_per_trace(two_tier);
  EXPECT_GT(direct_share, 0.0);
  EXPECT_GT(two_tier_share, direct_share);
  EXPECT_GT(direct.traces_analyzed, 0u);
  EXPECT_GT(two_tier.traces_analyzed, 0u);
  // The extra hop is also directly visible in the hop counts.
  uint64_t direct_hops = 0, two_tier_hops = 0;
  for (const auto& [op, ob] : direct.per_op) direct_hops += ob.hops;
  for (const auto& [op, ob] : two_tier.per_op) two_tier_hops += ob.hops;
  EXPECT_GT(static_cast<double>(two_tier_hops) / two_tier.traces_analyzed,
            static_cast<double>(direct_hops) / direct.traces_analyzed);
  EXPECT_NE(two_tier.to_json("pNFS-2tier").find("\"wire_queue_share\""),
            std::string::npos);
}

TEST(Breakdown, FaultInjectedTracesStayMonotoneAndAcyclic) {
  core::ClusterConfig cfg = small_cluster(core::Architecture::kDirectPnfs);
  cfg.nfs_client.ds_timeout = sim::ms(20);
  cfg.nfs_client.ds_rpc_retries = 1;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::sec(60);
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(50), sim::sec(2));

  core::Deployment d(cfg);
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 8'000'000;
  workload::IorWorkload w(ior);
  run_workload(d, w);

  const auto& spans = d.tracer().spans();
  ASSERT_FALSE(spans.empty());
  std::map<uint64_t, std::map<uint64_t, uint64_t>> parent_of;
  for (const Span& s : spans) {
    EXPECT_GE(s.end, s.start) << "span " << s.span_id << " runs backwards";
    EXPECT_GE(s.start, 0) << "span " << s.span_id << " starts before t=0";
    parent_of[s.trace_id][s.span_id] = s.parent_span_id;
  }
  for (const auto& [trace, members] : parent_of) {
    for (const auto& [id, parent] : members) {
      std::unordered_set<uint64_t> seen;
      uint64_t cur = id;
      while (members.count(cur) > 0) {
        ASSERT_TRUE(seen.insert(cur).second)
            << "parent cycle in trace " << trace << " through span " << cur;
        cur = members.at(cur);
      }
    }
  }
  // Retries happened (the crash guarantees it) and the analyzer still
  // holds the exactness invariant on every well-formed trace.
  uint64_t checked = 0;
  std::map<uint64_t, std::vector<Span>> by_trace;
  for (const Span& s : spans) by_trace[s.trace_id].push_back(s);
  for (const auto& [trace, ss] : by_trace) {
    const obs::TraceBreakdown b = obs::analyze_trace(ss);
    if (b.trace_id == 0 || !b.well_formed) continue;
    EXPECT_EQ(b.phases.total(), b.total()) << "trace " << trace;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Sampling, SamplerRecordsUtilizationSeries) {
  core::ClusterConfig cfg = small_cluster(core::Architecture::kDirectPnfs);
  cfg.sample_interval = sim::ms(5);
  core::Deployment d(cfg);
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 8'000'000;
  workload::IorWorkload w(ior);
  run_workload(d, w);

  EXPECT_FALSE(d.observer().samples().empty());
  bool saw_nic = false, saw_disk = false;
  for (const auto& [node, by_name] : d.observer().samples().series()) {
    saw_nic = saw_nic || by_name.count("nic_tx_util") > 0;
    saw_disk = saw_disk || by_name.count("disk_util") > 0;
    for (const auto& [name, points] : by_name) {
      for (size_t i = 1; i < points.size(); ++i) {
        ASSERT_GT(points[i].t, points[i - 1].t) << node << "/" << name;
      }
    }
  }
  EXPECT_TRUE(saw_nic);
  EXPECT_TRUE(saw_disk);
  EXPECT_NE(d.observer().metrics_json().find("\"timeseries\""),
            std::string::npos);
  EXPECT_NE(obs::analyze_all(d.tracer()).to_json("Direct-pNFS").find(
                "\"phases_ns\""),
            std::string::npos);
}

TEST(Sampling, DisabledIntervalRecordsNothing) {
  core::ClusterConfig cfg = small_cluster(core::Architecture::kDirectPnfs);
  cfg.sample_interval = 0;
  core::Deployment d(cfg);
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 2'000'000;
  workload::IorWorkload w(ior);
  run_workload(d, w);
  EXPECT_TRUE(d.observer().samples().empty());
  EXPECT_EQ(d.observer().metrics_json().find("\"timeseries\""),
            std::string::npos);
}

}  // namespace
}  // namespace dpnfs
