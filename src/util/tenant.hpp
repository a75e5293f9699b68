// Per-tenant resource attribution, cardinality-bounded.
//
// Every RPC carries a `tenant_id` (rpc::CallHeader, flag-gated); the daemons
// that do work on its behalf — the RPC server, the NFS server, the PVFS
// storage daemon, the Direct-pNFS local backend — charge that work here.
// Attribution is held in one Space-Saving `util::TopK` tracker so memory
// stays O(K) at thousands of tenants, plus an unconditional `total()`
// accumulator covering 100% of traffic: while `tenants_evicted() == 0` the
// per-tenant rows sum *exactly* to the totals (and the totals match the
// aggregate `rpc` counters by construction — both are fed from the same
// call sites).
//
// Tenant 0 is reserved: traffic with no assigned tenant (mounts, backchannel
// callbacks, proxy metadata chatter) is accounted under the "none" row, so
// the summation invariant holds for every request, not just tenant-stamped
// ones.
#pragma once

#include <cstdint>
#include <string>

#include "util/stats.hpp"
#include "util/topk.hpp"

namespace dpnfs::obs {

/// What one tenant consumed.  All fields are exact sums of the accounting
/// calls that landed on this entry (fresh after an eviction replaces it).
struct TenantStats {
  uint64_t rpcs = 0;            ///< requests served across all RPC daemons
  uint64_t wire_bytes_in = 0;   ///< request bytes received
  uint64_t wire_bytes_out = 0;  ///< reply bytes sent
  uint64_t queue_ns = 0;        ///< request-queue residency
  uint64_t service_ns = 0;      ///< service execution time (CPU + waits)
  uint64_t disk_ns = 0;         ///< measured store disk time absorbed
  uint64_t read_bytes = 0;      ///< application data read (NFS/PVFS data ops)
  uint64_t write_bytes = 0;     ///< application data written
  uint64_t errors = 0;          ///< non-OK replies
  uint64_t over_slo = 0;        ///< requests whose queue+service > threshold
  util::PercentileDigest latency_us;  ///< per-request queue+service latency

  void merge(const TenantStats& o) {
    rpcs += o.rpcs;
    wire_bytes_in += o.wire_bytes_in;
    wire_bytes_out += o.wire_bytes_out;
    queue_ns += o.queue_ns;
    service_ns += o.service_ns;
    disk_ns += o.disk_ns;
    read_bytes += o.read_bytes;
    write_bytes += o.write_bytes;
    errors += o.errors;
    over_slo += o.over_slo;
    latency_us.merge(o.latency_us);
  }
};

/// Run-wide tenant accounting.  The RPC fabric owns one
/// (`rpc::RpcFabric::tenants()`), which every daemon on it charges.
class TenantLedger {
 public:
  explicit TenantLedger(size_t capacity = 64) : topk_(capacity) {}

  /// Requests slower than this (queue + service, ns) count as over-SLO for
  /// their tenant; 0 disables (mirrors ClusterConfig::trace_slo_threshold).
  void set_slo_threshold(int64_t t) noexcept { slo_threshold_ = t; }
  int64_t slo_threshold() const noexcept { return slo_threshold_; }

  /// One served RPC (called by RpcServer after the service ran).  The
  /// tenant's Space-Saving weight is its request count.
  void account_rpc(uint32_t tenant, uint64_t bytes_in, uint64_t bytes_out,
                   int64_t queue_ns, int64_t service_ns, bool error) {
    const int64_t total_ns = queue_ns + service_ns;
    const bool over =
        slo_threshold_ > 0 && total_ns > slo_threshold_;
    TenantStats& t = topk_.update(tenant, 1);
    charge_rpc(t, bytes_in, bytes_out, queue_ns, service_ns, error, over);
    charge_rpc(total_, bytes_in, bytes_out, queue_ns, service_ns, error, over);
  }

  /// Application data bytes moved by an NFS/PVFS data op.
  void account_data(uint32_t tenant, uint64_t read_bytes,
                    uint64_t write_bytes) {
    TenantStats& t = topk_.update(tenant, 0);
    t.read_bytes += read_bytes;
    t.write_bytes += write_bytes;
    total_.read_bytes += read_bytes;
    total_.write_bytes += write_bytes;
  }

  /// Measured store disk time absorbed on a tenant's behalf.
  void account_disk(uint32_t tenant, int64_t disk_ns) {
    if (disk_ns <= 0) return;
    topk_.update(tenant, 0).disk_ns += static_cast<uint64_t>(disk_ns);
    total_.disk_ns += static_cast<uint64_t>(disk_ns);
  }

  const util::TopK<TenantStats>& topk() const noexcept { return topk_; }
  /// Exact totals over every accounting call (never evicted).
  const TenantStats& total() const noexcept { return total_; }
  uint64_t tenants_seen() const noexcept { return topk_.seen(); }
  uint64_t tenants_evicted() const noexcept { return topk_.evicted(); }

  /// Display key: "none" for the reserved tenant 0, "tenant<N>" otherwise.
  static std::string tenant_name(uint64_t id);

  /// The `"tenants"` section of RunObserver::metrics_json (see
  /// docs/observability.md): top-K rows by request count plus exact totals
  /// and the seen/evicted cardinality counters.
  std::string to_json() const;

 private:
  static void charge_rpc(TenantStats& t, uint64_t bytes_in,
                         uint64_t bytes_out, int64_t queue_ns,
                         int64_t service_ns, bool error, bool over) {
    t.rpcs += 1;
    t.wire_bytes_in += bytes_in;
    t.wire_bytes_out += bytes_out;
    t.queue_ns += static_cast<uint64_t>(queue_ns);
    t.service_ns += static_cast<uint64_t>(service_ns);
    if (error) ++t.errors;
    if (over) ++t.over_slo;
    t.latency_us.add(static_cast<double>(queue_ns + service_ns) * 1e-3);
  }

  util::TopK<TenantStats> topk_;
  TenantStats total_;
  int64_t slo_threshold_ = 0;
};

}  // namespace dpnfs::obs
