// Per-tenant attribution and the flight recorder, end to end: tenant ids
// ride the RPC wire from client config to server-side accounting, per-tenant
// rows sum exactly to the aggregate RPC counters, the tenant-mix workload
// splits clients the same way the tenant round-robin does, and a restart
// fault leaves a bit-reproducible flight dump behind.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "rpc/fabric.hpp"
#include "util/tenant.hpp"
#include "workload/ior.hpp"
#include "workload/oltp.hpp"
#include "workload/tenant_mix.hpp"

namespace dpnfs {
namespace {

void run_tenanted(core::ClusterConfig cfg, std::string* metrics_json = nullptr) {
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 8ull << 20;
  workload::OltpConfig oltp;
  oltp.file_bytes = 8ull << 20;
  oltp.transactions_per_client = 200;
  std::vector<std::unique_ptr<workload::Workload>> children;
  children.push_back(std::make_unique<workload::IorWorkload>(ior));
  children.push_back(std::make_unique<workload::OltpWorkload>(oltp));
  workload::TenantMixWorkload w(std::move(children));
  core::Deployment d(cfg);
  workload::run_workload(d, w);
  if (metrics_json != nullptr) *metrics_json = d.observer().metrics_json();
  const obs::TenantLedger& ledger = d.tenant_ledger();
  const obs::TenantStats& total = ledger.total();

  // Exactness: no evictions at this cardinality, so per-tenant rows sum
  // to the ledger totals field by field.
  EXPECT_EQ(ledger.tenants_evicted(), 0u);
  obs::TenantStats sum;
  for (const auto& e : ledger.topk().sorted()) sum.merge(e.value);
  EXPECT_EQ(sum.rpcs, total.rpcs);
  EXPECT_EQ(sum.wire_bytes_in, total.wire_bytes_in);
  EXPECT_EQ(sum.wire_bytes_out, total.wire_bytes_out);
  EXPECT_EQ(sum.disk_ns, total.disk_ns);
  EXPECT_EQ(sum.read_bytes, total.read_bytes);
  EXPECT_EQ(sum.write_bytes, total.write_bytes);
  EXPECT_EQ(sum.errors, total.errors);

  // ...and the totals match the aggregate rpc.* counters: the ledger and
  // the per-node metrics are fed from the same server call site, so a
  // request can't be double- or un-attributed.
  uint64_t agg_requests = 0, agg_in = 0, agg_out = 0;
  for (const std::string& node : d.metrics().node_names()) {
    if (const obs::Counter* c = d.metrics().find_counter(node, "rpc", "requests")) {
      agg_requests += c->value();
    }
    if (const obs::Counter* c =
            d.metrics().find_counter(node, "rpc", "wire_bytes_in")) {
      agg_in += c->value();
    }
    if (const obs::Counter* c =
            d.metrics().find_counter(node, "rpc", "wire_bytes_out")) {
      agg_out += c->value();
    }
  }
  EXPECT_EQ(total.rpcs, agg_requests);
  EXPECT_EQ(total.wire_bytes_in, agg_in);
  EXPECT_EQ(total.wire_bytes_out, agg_out);

  // Both real tenants did attributable work.
  for (uint64_t tenant : {1u, 2u}) {
    const auto* e = ledger.topk().find(tenant);
    EXPECT_NE(e, nullptr) << "tenant " << tenant;
    if (e == nullptr) return;
    EXPECT_GT(e->value.rpcs, 0u);
    EXPECT_GT(e->value.wire_bytes_in, 0u);
    EXPECT_GT(e->value.latency_us.count(), 0u);
  }
  // Tenant 1 ran the ingest child, tenant 2 the OLTP child: the ingest
  // tenant only writes, the OLTP tenant reads too.
  EXPECT_GT(ledger.topk().find(1)->value.write_bytes, 0u);
  EXPECT_EQ(ledger.topk().find(1)->value.read_bytes, 0u);
  EXPECT_GT(ledger.topk().find(2)->value.read_bytes, 0u);
}

TEST(TenantLedger, DirectPnfsSumsMatchAggregates) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 3;
  cfg.clients = 4;
  cfg.tenants = 2;
  std::string metrics;
  run_tenanted(cfg, &metrics);
  EXPECT_NE(metrics.find("\"tenants\":"), std::string::npos);
  EXPECT_NE(metrics.find("\"tenant1\""), std::string::npos);
  EXPECT_NE(metrics.find("\"tenant2\""), std::string::npos);
  EXPECT_NE(metrics.find("\"health\":"), std::string::npos);
}

TEST(TenantLedger, TenantRidesProxyHopsOnTwoTier) {
  // On pNFS-2tier every data op proxies through an intermediate NFS server;
  // the tenant must survive the extra hop (server re-stamps the forwarded
  // call from the inbound header's trace context).
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kPnfs2Tier;
  cfg.storage_nodes = 3;
  cfg.clients = 4;
  cfg.tenants = 2;
  run_tenanted(cfg);
}

TEST(TenantLedger, DiskTimeIsAttributed) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 3;
  cfg.clients = 2;
  cfg.tenants = 2;
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 8ull << 20;
  workload::IorWorkload w(ior);
  core::Deployment d(cfg);
  workload::run_workload(d, w);
  const obs::TenantLedger& ledger = d.tenant_ledger();
  for (uint64_t tenant : {1u, 2u}) {
    const auto* e = ledger.topk().find(tenant);
    ASSERT_NE(e, nullptr);
    EXPECT_GT(e->value.disk_ns, 0u) << "tenant " << tenant;
    EXPECT_GT(e->value.write_bytes, 0u) << "tenant " << tenant;
  }
}

TEST(TenantLedger, ZeroTenantsMeansOneNoneRow) {
  // tenants == 0 (the default) leaves every call unstamped: all traffic
  // lands on the reserved "none" row and the wire carries no tenant word.
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 3;
  cfg.clients = 2;
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 4ull << 20;
  workload::IorWorkload w(ior);
  core::Deployment d(cfg);
  workload::run_workload(d, w);
  const obs::TenantLedger& ledger = d.tenant_ledger();
  EXPECT_EQ(ledger.tenants_seen(), 1u);
  const auto* none = ledger.topk().find(0);
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->value.rpcs, ledger.total().rpcs);
  EXPECT_EQ(obs::TenantLedger::tenant_name(0), "none");
  EXPECT_EQ(obs::TenantLedger::tenant_name(7), "tenant7");
}

TEST(TenantMixWorkload, ComposesChildren) {
  workload::OltpConfig oltp;
  oltp.transactions_per_client = 100;
  std::vector<std::unique_ptr<workload::Workload>> children;
  children.push_back(
      std::make_unique<workload::IorWorkload>(workload::IorConfig{}));
  children.push_back(std::make_unique<workload::OltpWorkload>(oltp));
  workload::TenantMixWorkload w(std::move(children));
  EXPECT_EQ(w.child_count(), 2u);
  EXPECT_NE(w.name().find("tenant-mix("), std::string::npos);
  // Transactions accrue during the run; composed total starts at the
  // children's sum (zero before any client ran).
  EXPECT_EQ(w.total_transactions(), 0u);
  EXPECT_THROW(workload::TenantMixWorkload({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Flight recorder under a restart fault
// ---------------------------------------------------------------------------

std::string run_restart_flight(std::string* metrics_json = nullptr,
                               sim::Duration sample_interval = sim::ms(100),
                               std::string* second_export = nullptr) {
  core::ClusterConfig cfg;
  cfg.sample_interval = sample_interval;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 3;
  cfg.clients = 3;
  cfg.tenants = 2;
  // Restart-recovery posture (mirrors `simulate --fault-ds-restart`).
  cfg.nfs_client.ds_timeout = sim::ms(250);
  cfg.nfs_client.ds_rpc_retries = 8;
  cfg.nfs_client.slice_retries = 4;
  cfg.nfs_client.breaker_threshold = 4;
  cfg.nfs_client.breaker_reset = sim::ms(500);
  cfg.nfs_client.mds_timeout = sim::ms(500);
  cfg.nfs_client.mds_fallback = false;
  cfg.mds_grace_period = sim::ms(100);
  cfg.faults.crash_service(0, rpc::kNfsPort, sim::ms(300), sim::ms(800));
  core::Deployment d(cfg);
  workload::IorConfig ior;
  ior.write = true;
  ior.bytes_per_client = 16ull << 20;
  workload::IorWorkload w(ior);
  workload::run_workload(d, w);
  if (metrics_json != nullptr) *metrics_json = d.observer().metrics_json();
  if (second_export != nullptr) *second_export = d.observer().metrics_json();
  return d.flight().to_json();
}

TEST(FlightRecorder, RestartDumpIsBitReproducible) {
  std::string metrics;
  const std::string first = run_restart_flight(&metrics);
  const std::string second = run_restart_flight();
  EXPECT_EQ(first, second);
  // The dump carries the recovery ladder, not just raw log lines.
  EXPECT_NE(first.find("\"restart\""), std::string::npos);
  EXPECT_NE(first.find("\"events_recorded\""), std::string::npos);
  EXPECT_NE(first.find("\"events_dropped\""), std::string::npos);
  // Health section exists and every node resolved to a named state.
  EXPECT_NE(metrics.find("\"health\":"), std::string::npos);
  EXPECT_NE(metrics.find("\"state\":"), std::string::npos);
}

TEST(FlightRecorder, FirstExportReportsARestartNoSamplerTickSaw) {
  // With the sampler off, nothing judges health during the run, so the
  // first metrics export after it is the first to see storage0's restart.
  // An export does not move the baseline health is judged against, so a
  // second one right after reports the same restart.
  std::string metrics, again;
  run_restart_flight(&metrics, 0, &again);
  EXPECT_NE(metrics.find("\"storage0\":{\"state\":\"critical\","
                         "\"reason\":\"service restarts +1\"}"),
            std::string::npos)
      << metrics.substr(metrics.find("\"health\":"), 400);
  EXPECT_EQ(metrics, again);
}

TEST(FlightRecorder, RingDropsOldestAndCountsThem) {
  obs::FlightRecorder ring(2);
  ring.record(1, "n", "c", "a", "first");
  ring.record(2, "n", "c", "b", "second");
  ring.record(3, "n", "c", "c", "third");
  EXPECT_EQ(ring.events_recorded(), 3u);
  EXPECT_EQ(ring.events_dropped(), 1u);
  ASSERT_EQ(ring.events().size(), 2u);
  EXPECT_EQ(ring.events().front().kind, "b");
  EXPECT_EQ(ring.events().back().seq, 3u);
}

}  // namespace
}  // namespace dpnfs
