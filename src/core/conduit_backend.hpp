// The Direct-pNFS prototype's loopback conduit (paper §5, Figure 5).
//
// "At this writing, the user-level PVFS2 storage daemon does not support
//  direct VFS access.  Instead, the Direct-pNFS data servers simulate
//  direct storage access by way of the existing PVFS2 client and the
//  loopback device. ... PVFS2 uses a fixed number of buffers to transfer
//  data between the kernel and the user-level storage daemon, creating an
//  additional bottleneck."
//
// This decorator reproduces that prototype artifact: every data operation
// crosses a bounded buffer pool and pays a kernel/daemon crossing cost plus
// a loopback copy.  It explains why the paper's Direct-pNFS trails PVFS2
// slightly on 8-client single-file reads (Fig 7b).  Every Direct-pNFS data
// server runs behind one; `ClusterConfig::conduit` sets its costs.
#pragma once

#include "nfs/backend.hpp"
#include "sim/sync.hpp"

namespace dpnfs::core {

struct ConduitParams {
  uint32_t buffers = 8;                       ///< fixed transfer-buffer pool
  sim::Duration cpu_per_request = sim::us(150);
  double loopback_bytes_per_sec = 1.5e9;      ///< same-node copy bandwidth
};

/// Wraps a data path only: the conduit carries data between the kernel
/// and the storage daemon, and a data server exports no namespace.
class ConduitBackend final : public nfs::DataBackend {
 public:
  ConduitBackend(nfs::DataBackend& inner, sim::Node& node,
                 ConduitParams params)
      : inner_(inner),
        node_(node),
        params_(params),
        pool_(node.simulation(), params.buffers) {}

  sim::Task<nfs::Status> read(nfs::FileHandle fh, uint64_t offset,
                              uint32_t count, rpc::Payload* out, bool* eof,
                              obs::TraceContext trace = {}) override {
    co_await pool_.acquire();
    co_await cross(count);
    const nfs::Status st =
        co_await inner_.read(fh, offset, count, out, eof, trace);
    pool_.release();
    co_return st;
  }

  sim::Task<nfs::Status> write(nfs::FileHandle fh, uint64_t offset,
                               const rpc::Payload& data, nfs::StableHow stable,
                               nfs::StableHow* committed, uint64_t* post_change,
                               obs::TraceContext trace = {}) override {
    co_await pool_.acquire();
    co_await cross(data.size());
    const nfs::Status st = co_await inner_.write(fh, offset, data, stable,
                                                 committed, post_change, trace);
    pool_.release();
    co_return st;
  }

  sim::Task<nfs::Status> commit(nfs::FileHandle fh,
                                obs::TraceContext trace = {}) override {
    co_await pool_.acquire();
    co_await cross(0);
    const nfs::Status st = co_await inner_.commit(fh, trace);
    pool_.release();
    co_return st;
  }

  // A restart of the exporting server kills the wrapped backend's volatile
  // state too — the conduit itself holds none.
  void on_server_restart() override { inner_.on_server_restart(); }

 private:
  /// One kernel<->daemon crossing: fixed CPU plus a loopback copy.
  sim::Task<void> cross(uint64_t bytes) {
    co_await node_.cpu().execute(params_.cpu_per_request);
    if (bytes > 0) {
      co_await node_.simulation().delay(
          sim::duration_for_bytes(bytes, params_.loopback_bytes_per_sec));
    }
  }

  nfs::DataBackend& inner_;
  sim::Node& node_;
  ConduitParams params_;
  sim::Semaphore pool_;
};

}  // namespace dpnfs::core
