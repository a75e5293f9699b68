// Cluster topology: nodes joined by a non-blocking switch.
//
// Matches the paper's testbed: sixteen nodes on gigabit Ethernet through a
// switch whose backplane never bottlenecks — all contention happens at the
// endpoints' NICs.  `Network::transfer` moves bytes between two nodes,
// occupying the sender's TX and the receiver's RX chunk-by-chunk with a
// bounded in-flight window (a coarse stand-in for TCP flow control).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/resources.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dpnfs::sim {

class FaultInjector;

struct NodeParams {
  std::string name;
  NicParams nic;
  std::optional<DiskParams> disk;  ///< diskless nodes omit this
  CpuParams cpu;
};

/// One machine: NIC + optional disk + CPU.
class Node {
 public:
  Node(Simulation& sim, uint32_t id, const NodeParams& params)
      : sim_(sim),
        id_(id),
        name_(params.name),
        nic_(sim, params.nic),
        cpu_(sim, params.cpu) {
    if (params.disk) disk_.emplace(sim, *params.disk);
  }

  uint32_t id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  Nic& nic() noexcept { return nic_; }
  Cpu& cpu() noexcept { return cpu_; }
  bool has_disk() const noexcept { return disk_.has_value(); }
  Disk& disk() {
    if (!disk_) throw std::logic_error("node " + name_ + " has no disk");
    return *disk_;
  }
  Simulation& simulation() noexcept { return sim_; }

  /// True while a scripted disk fault is active on this node.
  bool disk_failed() const noexcept;

 private:
  friend class Network;

  Simulation& sim_;
  uint32_t id_;
  std::string name_;
  Nic nic_;
  std::optional<Disk> disk_;
  Cpu cpu_;
  const FaultInjector* faults_ = nullptr;
};

struct NetworkParams {
  uint64_t chunk_bytes = 256 * 1024;   ///< bandwidth-sharing granularity
  uint32_t flow_window_chunks = 4;     ///< max in-flight chunks per flow
  double loopback_bytes_per_sec = 3e9; ///< same-node "transfer" (memcpy-ish)
};

/// The switched network connecting all nodes.
class Network {
 public:
  explicit Network(Simulation& sim, NetworkParams params = {})
      : sim_(sim), params_(params) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Node& add_node(const NodeParams& params) {
    nodes_.push_back(std::make_unique<Node>(
        sim_, static_cast<uint32_t>(nodes_.size()), params));
    nodes_.back()->faults_ = faults_;
    return *nodes_.back();
  }

  Node& node(uint32_t id) { return *nodes_.at(id); }
  size_t node_count() const noexcept { return nodes_.size(); }
  Simulation& simulation() noexcept { return sim_; }
  const NetworkParams& params() const noexcept { return params_; }

  /// Attaches a fault injector.  Existing and future nodes see it (disk
  /// faults); `transfer` consults it for crashes, drops, and delays.  Pass
  /// nullptr to detach.  The injector must outlive the network.
  void set_fault_injector(FaultInjector* faults);
  FaultInjector* faults() const noexcept { return faults_; }

  /// Per-transfer measurements, filled when the caller passes a stats sink
  /// to `transfer`.  Distinguishes "queued behind my own NIC" (other flows
  /// hold TX) from time genuinely on the wire — the trace layer attributes
  /// the former to the sender's queue, not the network.
  struct TransferStats {
    Duration tx_queue_wait = 0;  ///< waiting for the sender's TX resource
  };

  /// Moves `bytes` from `src` to `dst`; completes when the last byte has
  /// been received (true) or the message was lost to a scripted fault —
  /// crashed endpoint or link drop — after paying the send-side cost
  /// (false).  Same-node transfers bypass the NICs.
  Task<bool> transfer(Node& src, Node& dst, uint64_t bytes,
                      TransferStats* stats = nullptr);

 private:
  Task<void> rx_leg(Nic& dst, uint64_t chunk, Semaphore& window,
                    uint32_t window_permits);

  Simulation& sim_;
  NetworkParams params_;
  std::vector<std::unique_ptr<Node>> nodes_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace dpnfs::sim
