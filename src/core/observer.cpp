#include "core/observer.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "core/deployment.hpp"
#include "util/bytes.hpp"
#include "util/format.hpp"

namespace dpnfs::core {

using sim::Task;

namespace {

/// Per-node RPC queue depth (summed over the daemons a node hosts) at or
/// above which the node is "degraded".
constexpr double kDegradedQueueDepth = 64;

}  // namespace

void RunObserver::start_sampling() {
  if (sampling_ || d_.config_.sample_interval <= 0) return;
  sampling_ = true;
  sampler_stop_ = false;
  d_.sim_.spawn(sampler_loop());
}

Task<void> RunObserver::sampler_loop() {
  sim::Network& net = d_.net_;
  const auto& stores = d_.stores_;
  const sim::Duration interval = d_.config_.sample_interval;
  const double window = static_cast<double>(interval);
  // Previous busy-time totals: utilization over a window is the delta of
  // the resource's busy accumulator divided by the window.
  std::vector<sim::Duration> prev_tx(net.node_count(), 0);
  std::vector<sim::Duration> prev_rx(net.node_count(), 0);
  std::vector<sim::Duration> prev_disk(stores.size(), 0);
  for (uint32_t i = 0; i < net.node_count(); ++i) {
    prev_tx[i] = net.node(i).nic().tx_busy();
    prev_rx[i] = net.node(i).nic().rx_busy();
  }
  for (size_t i = 0; i < stores.size(); ++i) {
    prev_disk[i] = stores[i]->node().disk().busy();
  }
  while (!sampler_stop_) {
    co_await d_.sim_.delay(interval);
    if (sampler_stop_) break;
    const obs::TimeNs t = d_.sim_.now();
    // Nodes added after the sampler started are not expected; guard anyway.
    const uint32_t n_nodes = static_cast<uint32_t>(
        std::min<size_t>(net.node_count(), prev_tx.size()));
    for (uint32_t i = 0; i < n_nodes; ++i) {
      sim::Node& n = net.node(i);
      const sim::Duration tx = n.nic().tx_busy();
      const sim::Duration rx = n.nic().rx_busy();
      samples_.add(n.name(), "nic_tx_util", t,
                   static_cast<double>(tx - prev_tx[i]) / window);
      samples_.add(n.name(), "nic_rx_util", t,
                   static_cast<double>(rx - prev_rx[i]) / window);
      prev_tx[i] = tx;
      prev_rx[i] = rx;
    }
    for (size_t i = 0; i < stores.size(); ++i) {
      sim::Node& n = stores[i]->node();
      const sim::Duration db = n.disk().busy();
      samples_.add(n.name(), "disk_util", t,
                   static_cast<double>(db - prev_disk[i]) / window);
      prev_disk[i] = db;
      samples_.add(n.name(), "store_dirty_bytes", t,
                   static_cast<double>(stores[i]->dirty_bytes()));
    }
    // Health as a numeric series (0 ok, 1 degraded, 2 critical); this tick
    // is the baseline the next verdict compares against.
    evaluate_health();
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
      NodeState& s = nodes_[i];
      const std::string& name = net.node(i).name();
      if (s.hosts_daemon) {
        samples_.add(name, "rpc_queue_depth", t, s.queue_depth);
      }
      samples_.add(name, "health", t, static_cast<double>(s.level));
      s.tick_restarts = s.restarts;
      s.tick_breakers = s.breakers;
    }
  }
  sampling_ = false;
}

void RunObserver::evaluate_health() {
  sim::Network& net = d_.net_;
  if (nodes_.size() != net.node_count()) {
    nodes_.resize(net.node_count());
    by_name_.resize(nodes_.size());
    std::iota(by_name_.begin(), by_name_.end(), 0u);
    std::sort(by_name_.begin(), by_name_.end(),
              [&net](uint32_t a, uint32_t b) {
                return net.node(a).name() < net.node(b).name();
              });
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i].breaker_trips = d_.metrics().find_counter(
          net.node(i).name(), "client.recovery", "breaker_trips");
    }
  }
  const sim::Time now = d_.sim_.now();
  const sim::FaultInjector* faults = net.faults();
  for (NodeState& s : nodes_) {
    s.queue_depth = 0;
    s.restarts = 0;
    s.down = false;
  }
  for (const Daemon& daemon : daemons_) {
    const rpc::RpcAddress a = daemon.address;
    NodeState& s = nodes_[a.node_id];
    s.hosts_daemon = true;
    s.queue_depth += static_cast<double>(daemon.queue_depth());
    if (daemon.restarts) s.restarts += daemon.restarts();
    // A daemon the fault injector holds down right now.
    s.down = s.down || (faults != nullptr &&
                        faults->service_down(a.node_id, a.port, now));
  }
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    NodeState& s = nodes_[i];
    s.breakers = s.breaker_trips != nullptr ? s.breaker_trips->value() : 0;
    s.level = 0;
    s.reason = "ok";
    // Rules run from mild to grave; the last one that fires names the
    // reason.
    const auto flag = [&s](int level, std::string reason) {
      s.level = std::max(s.level, level);
      s.reason = std::move(reason);
    };
    if (s.breakers > s.tick_breakers) {
      flag(1, util::sformat("breaker trips +%llu",
                            static_cast<unsigned long long>(s.breakers -
                                                            s.tick_breakers)));
    }
    if (s.queue_depth >= kDegradedQueueDepth) {
      flag(1, util::sformat("rpc queue depth %.0f", s.queue_depth));
    }
    if (s.restarts > s.tick_restarts) {
      flag(2, util::sformat("service restarts +%llu",
                            static_cast<unsigned long long>(s.restarts -
                                                            s.tick_restarts)));
    }
    if (s.down) flag(2, "service down (fault injection)");
    if (faults != nullptr && faults->node_down(i, now)) {
      flag(2, "node down (fault injection)");
    }
  }
}

void RunObserver::snapshot_resource_gauges() {
  // NICs exist on every node; only storage nodes have stores/disks.  Data
  // paths that bypass the instrumented daemons (Direct-pNFS serves stripe
  // objects straight from the local store) still show up here.
  const auto set = [this](const std::string& node, const char* name,
                          uint64_t value) {
    d_.metrics().gauge(node, "node", name).set(static_cast<double>(value));
  };
  for (uint32_t i = 0; i < d_.net_.node_count(); ++i) {
    sim::Node& n = d_.net_.node(i);
    set(n.name(), "nic_tx_bytes", n.nic().tx_bytes());
    set(n.name(), "nic_rx_bytes", n.nic().rx_bytes());
  }
  for (const auto& store : d_.stores_) {
    const std::string& name = store->node().name();
    const lfs::ObjectStoreStats& st = store->stats();
    set(name, "disk_write_bytes", st.disk_write_bytes);
    set(name, "disk_read_bytes", st.disk_read_bytes);
    set(name, "disk_writes", st.disk_writes);
    set(name, "disk_reads", st.disk_reads);
    set(name, "store_cache_hit_bytes", st.cache_hit_bytes);
    set(name, "store_cache_miss_bytes", st.cache_miss_bytes);
  }
}

std::string RunObserver::metrics_json() {
  snapshot_resource_gauges();
  evaluate_health();
  std::string out = "{\"architecture\":\"";
  out += obs::json_escape(architecture_name(d_.config_.architecture));
  out += "\",\"sim_time_ns\":";
  out += std::to_string(d_.sim_.now());
  out += ",\"nodes\":";
  out += d_.metrics().to_json();
  out += ",\"trace\":";
  out += d_.tracer().to_json();
  out += ",\"slo\":";
  out += d_.tracer().slo_json();
  out += ",\"tenants\":";
  out += d_.tenant_ledger().to_json();
  out += ",\"health\":{";
  for (uint32_t i : by_name_) {
    const NodeState& s = nodes_[i];
    if (out.back() != '{') out += ",";
    out += "\"";
    out += obs::json_escape(d_.net_.node(i).name());
    out += "\":{\"state\":\"";
    out += s.level == 0 ? "ok" : (s.level == 1 ? "degraded" : "critical");
    out += "\",\"reason\":\"";
    out += obs::json_escape(s.reason);
    out += "\"}";
  }
  out += "}";
  if (!samples_.empty()) {
    out += ",\"timeseries\":{\"interval_ns\":";
    out += std::to_string(d_.config_.sample_interval);
    out += ",\"series\":";
    out += samples_.to_json();
    out += "}";
  }
  out += "}";
  return out;
}

std::string RunObserver::trace_json() const {
  return obs::TraceExporter::to_chrome_json(
      d_.tracer(), architecture_name(d_.config_.architecture),
      samples_.empty() ? nullptr : &samples_);
}

void RunObserver::print_traffic_report() const {
  const auto row = [](sim::Node& n, const std::string& disk_write,
                      const std::string& disk_read) {
    std::printf("%-12s%14s%14s%14s%14s\n", n.name().c_str(),
                util::format_bytes(n.nic().tx_bytes()).c_str(),
                util::format_bytes(n.nic().rx_bytes()).c_str(),
                disk_write.c_str(), disk_read.c_str());
  };
  std::printf("%-12s%14s%14s%14s%14s\n", "node", "nic tx", "nic rx",
              "disk write", "disk read");
  for (const auto& store : d_.stores_) {
    row(store->node(), util::format_bytes(store->stats().disk_write_bytes),
        util::format_bytes(store->stats().disk_read_bytes));
  }
  for (sim::Node* n : d_.client_nodes_) row(*n, "-", "-");
}

}  // namespace dpnfs::core
