// Per-layer ledger: counter snapshots read from the deployment's public
// accessors, and span-tree analysis of a traced repetition.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/adapters.hpp"
#include "perfbench.hpp"
#include "util/obs_analysis.hpp"

namespace perfbench {

namespace {

uint64_t sum_counter(const obs::MetricsRegistry& m,
                     const std::vector<std::string>& nodes, const char* comp,
                     const char* name) {
  uint64_t total = 0;
  for (const std::string& n : nodes) {
    if (const obs::Counter* c = m.find_counter(n, comp, name)) {
      total += c->value();
    }
  }
  return total;
}

void add_nic(Snapshot& s, sim::Node& n) {
  s.wire_tx_bytes += n.nic().tx_bytes();
  s.nic_busy.push_back(n.nic().tx_busy());
  s.nic_busy.push_back(n.nic().rx_busy());
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// The node hosting the metadata server: the layout source registers its
// "nfs.layout" counters there.
std::string mds_node(const obs::MetricsRegistry& m) {
  for (const std::string& n : m.node_names()) {
    if (m.find_counter(n, "nfs.layout", "layouts_granted") != nullptr) {
      return n;
    }
  }
  return {};
}

}  // namespace

Snapshot take_snapshot(core::Deployment& d) {
  Snapshot s;
  s.events = d.simulation().events_processed();
  s.mix = d.simulation().queue_push_mix();

  const obs::MetricsRegistry& m = d.metrics();
  const std::vector<std::string> nodes = m.node_names();
  s.rpc_requests = sum_counter(m, nodes, "rpc", "requests");
  s.client_rpcs = sum_counter(m, nodes, "client.cache", "rpcs");
  s.cache_hit_bytes = sum_counter(m, nodes, "client.cache", "hit_bytes");
  s.cache_read_bytes = sum_counter(m, nodes, "client.cache", "read_bytes");
  s.readahead_fetches =
      sum_counter(m, nodes, "client.cache", "readahead_fetches");
  s.sched_writes = sum_counter(m, nodes, "client.sched", "dispatched_writes");
  s.sched_bytes = sum_counter(m, nodes, "client.sched", "dispatched_bytes");
  for (const char* name : {"retries", "fallbacks", "breaker_trips",
                           "layout_refetches", "rpc_retries"}) {
    s.recovery_events += sum_counter(m, nodes, "client.recovery", name);
  }
  s.layouts_granted = sum_counter(m, nodes, "nfs.layout", "layouts_granted");
  s.pvfs_io_requests = sum_counter(m, nodes, "pvfs.io", "requests");
  s.pvfs_io_bytes = sum_counter(m, nodes, "pvfs.io", "bytes_read") +
                    sum_counter(m, nodes, "pvfs.io", "bytes_written");

  for (lfs::ObjectStore* store : d.stores()) {
    const lfs::ObjectStoreStats& st = store->stats();
    s.disk_read_bytes += st.disk_read_bytes;
    s.disk_write_bytes += st.disk_write_bytes;
    s.disk_ops += st.disk_reads + st.disk_writes;
    s.store_hit_bytes += st.cache_hit_bytes;
    s.store_miss_bytes += st.cache_miss_bytes;
    s.disk_busy.push_back(store->node().disk().busy());
    add_nic(s, store->node());
  }
  for (size_t i = 0; i < d.client_count(); ++i) {
    if (auto* nfs = dynamic_cast<core::NfsFileSystemClient*>(&d.client(i))) {
      add_nic(s, nfs->native().node());
    }
  }

  const obs::Tracer& t = d.tracer();
  s.spans_recorded = t.spans_recorded();
  s.spans_sampled_out = t.spans_sampled_out();
  s.traces_started = t.traces_started();
  return s;
}

// Walks every trace the timed phase started (trace ids are allocated in
// order, so they are the ids after the set-up's last one).  Besides the
// critical-path attribution, classifies NFS calls that reached the metadata
// server's node: a data-server COMPOUND moves bytes below its server span —
// a local store access ("store/*", Direct-pNFS) or a proxied PVFS I/O call
// ("pvfs.io/*", 2-tier) — and a metadata COMPOUND does neither.
TraceLedger analyze_traces(core::Deployment& d, const RepResult& r) {
  TraceLedger out;
  const obs::Tracer& tracer = d.tracer();
  out.complete = tracer.spans_dropped() == 0 &&
                 tracer.spans().size() == tracer.spans_recorded();
  const std::string mds = mds_node(d.metrics());

  std::unordered_map<uint64_t, size_t> by_id;
  for (uint64_t id = r.before.traces_started + 1;
       id <= r.after.traces_started; ++id) {
    const std::vector<obs::Span> spans = tracer.trace_spans(id);
    if (spans.empty()) continue;
    const obs::TraceBreakdown tb = obs::analyze_trace(spans);
    if (tb.trace_id != 0) {
      ++out.traces;
      out.root_ns += tb.total();
      out.phases.add(tb.phases);
      obs::OpBreakdown& op = out.per_op[tb.root_op];
      ++op.count;
      op.total_ns += tb.total();
      op.hops += tb.hops;
      op.phases.add(tb.phases);
    }

    by_id.clear();
    for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;
    std::vector<bool> moves_data(spans.size(), false);
    for (const obs::Span& s : spans) {
      if (s.kind == obs::SpanKind::kServerExec) {
        out.queue_ns.push_back(s.queue_wait);
        out.service_ns.push_back(s.end - s.start);
        if (starts_with(s.name, "pvfs.meta/")) ++out.pvfs_meta_requests;
      }
      if (starts_with(s.name, "store/") || starts_with(s.name, "pvfs.io/")) {
        if (auto it = by_id.find(s.parent_span_id); it != by_id.end()) {
          moves_data[it->second] = true;
        }
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const obs::Span& srv = spans[i];
      if (srv.kind != obs::SpanKind::kServerExec || srv.node != mds ||
          !starts_with(srv.name, "nfs/") || moves_data[i]) {
        continue;
      }
      const auto caller = by_id.find(srv.parent_span_id);
      if (caller == by_id.end()) continue;
      const obs::Span& call = spans[caller->second];
      if (call.kind != obs::SpanKind::kClientCall ||
          !starts_with(call.node, "client")) {
        continue;
      }
      ++out.mds_rpcs;
      out.mds_latency_ns += call.end - call.start;
      out.mds_queue_ns += srv.queue_wait;
    }
  }
  return out;
}

int64_t percentile(std::vector<int64_t>& v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return v[rank];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
