#include "sim/network.hpp"

#include <algorithm>

#include "sim/fault.hpp"

namespace dpnfs::sim {

bool Node::disk_failed() const noexcept {
  return faults_ != nullptr && faults_->disk_failed(id_, sim_.now());
}

void Network::set_fault_injector(FaultInjector* faults) {
  faults_ = faults;
  for (auto& n : nodes_) n->faults_ = faults;
}

Task<bool> Network::transfer(Node& src, Node& dst, uint64_t bytes,
                             TransferStats* stats) {
  if (&src == &dst) {
    // Local delivery: no NIC involvement, just memory-bandwidth cost.
    co_await sim_.delay(duration_for_bytes(bytes, params_.loopback_bytes_per_sec));
    // A crashed node cannot deliver even to itself.
    co_return faults_ == nullptr || !faults_->node_down(src.id(), sim_.now());
  }

  // A crashed sender emits nothing; a message to a crashed receiver is paid
  // for by the sender and then lost at the dead NIC.
  if (faults_ != nullptr && faults_->node_down(src.id(), sim_.now())) {
    co_return false;
  }
  LinkVerdict verdict;
  if (faults_ != nullptr) {
    verdict = faults_->on_message(src.id(), dst.id(), sim_.now());
  }

  Nic& s = src.nic();
  Nic& d = dst.nic();
  s.account_tx(bytes);
  if (!verdict.drop) d.account_rx(bytes);
  co_await sim_.delay(s.params().latency + verdict.extra_delay);

  if (verdict.drop) {
    // Lost in the switch: occupy the sender's TX for the full payload (the
    // bytes really left the host), deliver nothing.
    uint64_t remaining = std::max<uint64_t>(bytes, 1);
    while (remaining > 0) {
      const uint64_t chunk = std::min<uint64_t>(params_.chunk_bytes, remaining);
      remaining -= chunk;
      const Time queued_at = sim_.now();
      co_await s.tx().acquire();
      if (stats != nullptr) stats->tx_queue_wait += sim_.now() - queued_at;
      const Duration tx_time =
          duration_for_bytes(chunk, s.params().bytes_per_sec);
      s.account_tx_busy(tx_time);
      co_await sim_.delay(tx_time);
      s.tx().release();
    }
    co_return false;
  }

  uint64_t remaining = std::max<uint64_t>(bytes, 1);  // header-only msgs move >=1 byte

  if (remaining <= params_.chunk_bytes) {
    // Single-chunk message (the common case at scale: headers and small
    // I/O).  TX then RX inline in this coroutine — no window semaphore, no
    // spawned receive leg, no wait group.  Costs charged are identical to
    // the chunked path; only the bookkeeping is lighter.
    const Time queued_at = sim_.now();
    co_await s.tx().acquire();
    if (stats != nullptr) stats->tx_queue_wait += sim_.now() - queued_at;
    const Duration tx_time =
        duration_for_bytes(remaining, s.params().bytes_per_sec);
    s.account_tx_busy(tx_time);
    co_await sim_.delay(tx_time);
    s.tx().release();

    co_await d.rx().acquire();
    const Duration rx_time =
        duration_for_bytes(remaining, d.params().bytes_per_sec);
    d.account_rx_busy(rx_time);
    co_await sim_.delay(rx_time);
    d.rx().release();

    co_return faults_ == nullptr || !faults_->node_down(dst.id(), sim_.now());
  }

  // The window keeps at most `flow_window_chunks` chunks between the two
  // NICs, so a fast sender cannot run arbitrarily far ahead of a congested
  // receiver (coarse TCP flow control).
  Semaphore window(sim_, params_.flow_window_chunks);
  WaitGroup received(sim_);

  s.begin_tx_flow();
  while (remaining > 0) {
    uint64_t chunk = std::min<uint64_t>(params_.chunk_bytes, remaining);
    remaining -= chunk;

    co_await window.acquire();
    uint32_t permits = 1;
    if (s.active_tx_flows() == 1) {
      // Sole flow on this TX link: batch additional chunks into this hold
      // to amortize per-chunk scheduling.  The decision consults only the
      // link-local flow census — O(active flows on the affected link).
      // Batches take at most half the window so the next TX hold still
      // overlaps this batch's receive leg (pipelining is what makes a
      // window-flow hit line rate).  Under sharing, chunk granularity
      // preserves fair interleaving.
      const uint32_t batch_cap = std::max(1u, params_.flow_window_chunks / 2);
      while (remaining > 0 && permits < batch_cap && window.try_acquire()) {
        const uint64_t extra = std::min<uint64_t>(params_.chunk_bytes,
                                                  remaining);
        chunk += extra;
        remaining -= extra;
        ++permits;
      }
    }
    const Time queued_at = sim_.now();
    co_await s.tx().acquire();
    if (stats != nullptr) stats->tx_queue_wait += sim_.now() - queued_at;
    const Duration tx_time =
        duration_for_bytes(chunk, s.params().bytes_per_sec);
    s.account_tx_busy(tx_time);
    co_await sim_.delay(tx_time);
    s.tx().release();

    // Receive legs queue FIFO on the destination NIC, overlapping with the
    // transmission of subsequent chunks.
    received.spawn(rx_leg(d, chunk, window, permits));
  }
  co_await received.wait();
  s.end_tx_flow();

  // The receiver crashing while bytes were in flight loses the message.
  co_return faults_ == nullptr || !faults_->node_down(dst.id(), sim_.now());
}

Task<void> Network::rx_leg(Nic& dst, uint64_t chunk, Semaphore& window,
                           uint32_t window_permits) {
  co_await dst.rx().acquire();
  const Duration rx_time =
      duration_for_bytes(chunk, dst.params().bytes_per_sec);
  dst.account_rx_busy(rx_time);
  co_await sim_.delay(rx_time);
  dst.rx().release();
  for (uint32_t i = 0; i < window_permits; ++i) window.release();
}

}  // namespace dpnfs::sim
