// Observability layer: registry registration/lookup, histogram bucketing,
// trace parent/child linkage across real RPC hops, JSON export, and the
// paper's re-routing effect (pNFS-2tier burns strictly more RPC hops per
// trace than Direct-pNFS) made directly observable.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "rpc/fabric.hpp"
#include "sim/network.hpp"
#include "support/metrics_json.hpp"
#include "util/obs.hpp"
#include "util/obs_analysis.hpp"
#include "workload/ior.hpp"

namespace dpnfs {
namespace {

using obs::MetricsRegistry;
using obs::Span;
using obs::SpanKind;
using obs::TraceContext;
using obs::Tracer;
using sim::Task;

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CreateOrGetReturnsStableHandles) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  obs::Counter& c1 = reg.counter("storage0", "pvfs.io", "bytes_written");
  c1.add(100);
  // Creating unrelated metrics must not invalidate the first handle.
  for (int i = 0; i < 64; ++i) {
    reg.counter("node" + std::to_string(i), "rpc", "requests");
  }
  obs::Counter& c2 = reg.counter("storage0", "pvfs.io", "bytes_written");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 100u);
  EXPECT_FALSE(reg.empty());
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("n", "c", "x"), nullptr);
  EXPECT_TRUE(reg.empty());
  reg.counter("n", "c", "x").add(7);
  const obs::Counter* found = reg.find_counter("n", "c", "x");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value(), 7u);
  EXPECT_EQ(reg.find_histogram("n", "c", "x"), nullptr);
}

TEST(HistogramMetric, BucketingAndSummaryStats) {
  MetricsRegistry reg;
  obs::HistogramMetric& h =
      reg.histogram("n", "rpc", "service_us", {10.0, 100.0, 1000.0});
  for (double v : {5.0, 50.0, 500.0, 5000.0, 7.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 5562.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5000.0);
  // Buckets: [<10), [10,100), [100,1000), overflow.
  ASSERT_EQ(h.bucket_count(), 4u);
  EXPECT_DOUBLE_EQ(h.bucket_weight(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(2), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(3), 1.0);
}

TEST(MetricsRegistry, JsonExportCarriesValues) {
  MetricsRegistry reg;
  reg.counter("storage0", "pvfs.io", "bytes_written").add(4096);
  reg.gauge("storage0", "node", "nic_tx_bytes").set(12.5);
  reg.histogram("storage0", "rpc", "queue_us", {1.0, 10.0}).observe(3.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"storage0\""), std::string::npos);
  EXPECT_NE(json.find("\"pvfs.io\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes_written\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"nic_tx_bytes\": 12.5"), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [0, 1, 0]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, RootAndChildSpansShareOneTrace) {
  Tracer t;
  const TraceContext root = t.begin();
  ASSERT_TRUE(root.valid());
  const TraceContext child = t.begin(root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_NE(child.span_id, root.span_id);
  const TraceContext other = t.begin();
  EXPECT_NE(other.trace_id, root.trace_id);
  EXPECT_EQ(t.traces_started(), 2u);
}

TEST(Tracer, HopAccountingCountsClientCallSpans) {
  Tracer t;
  const TraceContext a = t.begin();
  t.record(Span{a.trace_id, a.span_id, 0, SpanKind::kClientCall, "nfs/3", "c0",
                0, 10, 0, 100, 50});
  const TraceContext nested = t.begin(a);
  t.record(Span{nested.trace_id, nested.span_id, a.span_id,
                SpanKind::kClientCall, "pvfs.io/1", "ds0", 2, 8, 0, 90, 40});
  // Server/internal spans do not count as hops.
  t.record(Span{a.trace_id, 99, a.span_id, SpanKind::kServerExec, "nfs/3",
                "ds0", 1, 9, 1, 50, 100});
  EXPECT_EQ(t.rpc_hops_total(), 2u);
  EXPECT_DOUBLE_EQ(t.mean_hops_per_trace(), 2.0);
  EXPECT_EQ(t.max_hops_per_trace(), 2u);
  EXPECT_EQ(t.trace_spans(a.trace_id).size(), 3u);
  const auto hist = t.hops_histogram();
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist.at(2), 1u);
}

TEST(Tracer, SpanCapacityBoundsDetailNotAccounting) {
  Tracer t;
  t.set_span_capacity(2);
  for (int i = 0; i < 5; ++i) {
    const TraceContext c = t.begin();
    t.record(Span{c.trace_id, c.span_id, 0, SpanKind::kClientCall, "x", "n", 0,
                  1, 0, 0, 0});
  }
  EXPECT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans_dropped(), 3u);
  EXPECT_EQ(t.spans_recorded(), 5u);
  EXPECT_EQ(t.rpc_hops_total(), 5u);  // hop counts stay exact
}

TEST(Tracer, JsonExports) {
  Tracer t;
  const TraceContext c = t.begin();
  t.record(Span{c.trace_id, c.span_id, 0, SpanKind::kClientCall, "nfs/1",
                "client0", 5, 25, 0, 128, 64});
  const std::string agg = t.to_json();
  EXPECT_NE(agg.find("\"traces_started\": 1"), std::string::npos);
  EXPECT_NE(agg.find("\"rpc_hops_total\": 1"), std::string::npos);
  EXPECT_NE(agg.find("\"hops_histogram\": {\"1\": 1}"), std::string::npos);
  // Span detail rides the Chrome trace export.
  const std::string detail = obs::TraceExporter::to_chrome_json(t, "test");
  EXPECT_NE(detail.find("\"name\": \"nfs/1\""), std::string::npos);
  EXPECT_NE(detail.find("\"cat\": \"client\""), std::string::npos);
  EXPECT_NE(detail.find("\"bytes_out\": 128"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace propagation across real RPC hops
// ---------------------------------------------------------------------------

struct RpcFixture {
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};
  MetricsRegistry& metrics = fabric.metrics();
  Tracer& tracer = fabric.tracer();

  sim::Node& add_node(const std::string& name) {
    return net.add_node(sim::NodeParams{
        .name = name,
        .nic = sim::NicParams{.bytes_per_sec = 100e6, .latency = sim::us(10)},
        .disk = std::nullopt,
        .cpu = sim::CpuParams{.cores = 2}});
  }
};

TEST(TracePropagation, ServerSpanIsChildOfClientSpan) {
  RpcFixture f;
  auto& client_node = f.add_node("client");
  auto& server_node = f.add_node("server");
  rpc::RpcServer server(f.fabric, server_node, rpc::kNfsPort, 2,
                        [](const rpc::CallContext& ctx, rpc::XdrDecoder&,
                           rpc::XdrEncoder& out) -> Task<void> {
                          EXPECT_TRUE(ctx.trace.valid());
                          out.put_u32(0);
                          co_return;
                        });
  server.start();
  rpc::RpcClient client(f.fabric, client_node, "t@SIM");
  f.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to) -> Task<void> {
    auto reply = co_await c.call(to, rpc::Program::kNfs, 4, 3,
                                 rpc::XdrEncoder{});
    EXPECT_EQ(reply.status, rpc::ReplyStatus::kAccepted);
  }(client, server.address()));
  f.sim.run();

  ASSERT_EQ(f.tracer.spans().size(), 2u);
  const Span* client_span = nullptr;
  const Span* server_span = nullptr;
  for (const Span& s : f.tracer.spans()) {
    if (s.kind == SpanKind::kClientCall) client_span = &s;
    if (s.kind == SpanKind::kServerExec) server_span = &s;
  }
  ASSERT_NE(client_span, nullptr);
  ASSERT_NE(server_span, nullptr);
  EXPECT_EQ(server_span->trace_id, client_span->trace_id);
  EXPECT_EQ(server_span->parent_span_id, client_span->span_id);
  EXPECT_EQ(client_span->node, "client");
  EXPECT_EQ(server_span->node, "server");
  EXPECT_EQ(client_span->name, "nfs/3");
  // Client sees the hop end-to-end; the server span nests inside it.
  EXPECT_LE(client_span->start, server_span->start);
  EXPECT_GE(client_span->end, server_span->end);
  EXPECT_EQ(f.tracer.rpc_hops_total(), 1u);

  // Per-node RPC metrics landed on the server's node.
  const obs::Counter* reqs = f.metrics.find_counter("server", "rpc",
                                                    "requests");
  ASSERT_NE(reqs, nullptr);
  EXPECT_EQ(reqs->value(), 1u);
  const obs::HistogramMetric* svc =
      f.metrics.find_histogram("server", "rpc", "service_us");
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->count(), 1u);
}

TEST(TracePropagation, ProxiedCallAddsSecondHopToSameTrace) {
  // The 2-tier shape in miniature: client -> proxy -> backend.  The proxy
  // forwards its CallContext trace, so both hops land in one trace.
  RpcFixture f;
  auto& client_node = f.add_node("client");
  auto& proxy_node = f.add_node("proxy");
  auto& backend_node = f.add_node("backend");

  rpc::RpcServer backend(f.fabric, backend_node, rpc::kPvfsIoPort, 2,
                         [](const rpc::CallContext&, rpc::XdrDecoder&,
                            rpc::XdrEncoder& out) -> Task<void> {
                           out.put_u32(0);
                           co_return;
                         });
  backend.start();

  auto proxy_client =
      std::make_unique<rpc::RpcClient>(f.fabric, proxy_node, "proxy@SIM");
  rpc::RpcClient* proxy_rpc = proxy_client.get();
  const rpc::RpcAddress backend_addr = backend.address();
  rpc::RpcServer proxy(
      f.fabric, proxy_node, rpc::kNfsPort, 2,
      [proxy_rpc, backend_addr](const rpc::CallContext& ctx, rpc::XdrDecoder&,
                                rpc::XdrEncoder& out) -> Task<void> {
        auto nested = co_await proxy_rpc->call(
            backend_addr, rpc::Program::kPvfsIo, 1, 0, rpc::XdrEncoder{},
            rpc::CallOptions{.parent = ctx.trace});
        EXPECT_EQ(nested.status, rpc::ReplyStatus::kAccepted);
        out.put_u32(0);
      });
  proxy.start();

  rpc::RpcClient client(f.fabric, client_node, "t@SIM");
  f.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to) -> Task<void> {
    auto reply = co_await c.call(to, rpc::Program::kNfs, 4, 1,
                                 rpc::XdrEncoder{});
    EXPECT_EQ(reply.status, rpc::ReplyStatus::kAccepted);
  }(client, proxy.address()));
  f.sim.run();

  EXPECT_EQ(f.tracer.traces_started(), 1u);
  EXPECT_EQ(f.tracer.rpc_hops_total(), 2u);
  EXPECT_EQ(f.tracer.max_hops_per_trace(), 2u);
  // The nested hop's parent is the proxy's server span, which itself is a
  // child of the client's hop: a 4-span chain in one trace.
  ASSERT_EQ(f.tracer.spans().size(), 4u);
  const uint64_t trace_id = f.tracer.spans().front().trace_id;
  for (const Span& s : f.tracer.spans()) EXPECT_EQ(s.trace_id, trace_id);
}

// ---------------------------------------------------------------------------
// Deployment-level: the paper's re-routing effect
// ---------------------------------------------------------------------------

double mean_hops_for(core::Architecture arch) {
  core::ClusterConfig cfg;
  cfg.architecture = arch;
  cfg.storage_nodes = 3;
  cfg.clients = 2;
  core::Deployment d(cfg);
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 8ull << 20;
  workload::IorWorkload w(ior);
  workload::run_workload(d, w);
  EXPECT_GT(d.tracer().rpc_hops_total(), 0u);
  return d.tracer().mean_hops_per_trace();
}

TEST(Deployment, TwoTierReroutingCostsStrictlyMoreHopsThanDirect) {
  // Direct-pNFS serves each stripe from the node that holds it (1 hop);
  // the 2-tier data server re-routes through its PVFS client (>= 2 hops).
  const double direct = mean_hops_for(core::Architecture::kDirectPnfs);
  const double two_tier = mean_hops_for(core::Architecture::kPnfs2Tier);
  EXPECT_GT(two_tier, direct);
}

TEST(Deployment, MetricsJsonCarriesPerStorageNodeBytes) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 3;
  cfg.clients = 1;
  core::Deployment d(cfg);
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 12ull << 20;  // 2 MB stripes over 3 nodes: all hit
  workload::IorWorkload w(ior);
  workload::run_workload(d, w);
  const std::string json = d.observer().metrics_json();
  EXPECT_FALSE(json.empty());
  EXPECT_NE(json.find("\"architecture\":\"Direct-pNFS\""), std::string::npos);
  // Every storage node reports its resource gauges in the export.
  for (const char* node : {"storage0", "storage1", "storage2"}) {
    EXPECT_NE(json.find(std::string("\"") + node + "\""), std::string::npos);
  }
  EXPECT_NE(json.find("\"disk_write_bytes\""), std::string::npos);
  // And the snapshot gauges saw the bytes the data path moved, even though
  // Direct-pNFS bypasses the PVFS I/O daemons.
  for (const char* node : {"storage0", "storage1", "storage2"}) {
    EXPECT_GT(testsupport::node_metric(
                  json, {node, "node", "gauges", "disk_write_bytes"}),
              0.0)
        << node;
  }
}

}  // namespace
}  // namespace dpnfs
