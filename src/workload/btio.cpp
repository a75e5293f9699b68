#include "workload/btio.hpp"

namespace dpnfs::workload {

using rpc::Payload;
using sim::Task;

Task<void> BtioWorkload::setup(core::Deployment& d) {
  barrier_ = std::make_unique<sim::Barrier>(d.simulation(), d.client_count());
  co_await d.client(0).mkdir("/btio");
  auto f = co_await d.client(0).open("/btio/out", true);
  co_await f->close();
}

Task<void> BtioWorkload::client_main(core::Deployment& d, size_t client) {
  const uint64_t n_clients = d.client_count();
  const uint32_t checkpoints = config_.time_steps / config_.checkpoint_every;
  const uint64_t checkpoint_bytes = config_.file_bytes / checkpoints;
  const sim::Duration compute_per_step =
      config_.compute_total / config_.time_steps / static_cast<int64_t>(n_clients);

  auto f = co_await d.client(client).open("/btio/out", false);
  uint32_t checkpoint = 0;
  for (uint32_t step = 1; step <= config_.time_steps; ++step) {
    co_await d.simulation().delay(compute_per_step);
    if (step % config_.checkpoint_every != 0) continue;
    // Collective buffering: each rank writes one contiguous >= 1 MB chunk.
    // The last checkpoint and, within each, the last rank absorb the
    // rounding remainders so the file is complete.
    const uint64_t start = static_cast<uint64_t>(checkpoint) * checkpoint_bytes;
    const uint64_t bytes = checkpoint == checkpoints - 1
                               ? config_.file_bytes - start
                               : checkpoint_bytes;
    const uint64_t base_share = bytes / n_clients;
    const uint64_t my_share = client == n_clients - 1
                                  ? bytes - base_share * (n_clients - 1)
                                  : base_share;
    co_await f->write(start + client * base_share,
                      Payload::virtual_bytes(my_share));
    ++checkpoint;
  }
  co_await f->fsync();
  co_await f->close();
  co_await barrier_->arrive_and_wait();  // MPI_Barrier before verification

  if (config_.verify_read && client == 0) {
    // Ingest and verify the result file (rank 0), 2 MB at a time; reopen so
    // the size reflects every rank's committed writes.
    auto rf = co_await d.client(client).open("/btio/out", false);
    if (rf->size() < config_.file_bytes) {
      throw std::runtime_error("BTIO result file short");
    }
    const uint64_t chunk = 2ull << 20;
    for (uint64_t off = 0; off < config_.file_bytes;) {
      const uint64_t n = std::min(chunk, config_.file_bytes - off);
      Payload p = co_await rf->read(off, n);
      if (p.size() != n) throw std::runtime_error("BTIO short read");
      off += n;
    }
    co_await rf->close();
  }
}

}  // namespace dpnfs::workload
