// Server-side export interfaces.
//
// `DataBackend` is the pNFS data path: READ, WRITE and COMMIT on a
// filehandle.  A data server exports only that (paper §3.4).  `Backend`
// adds the namespace a metadata or standalone server exports.
// Implementations in this repository:
//   * nfs::ObjectBackend  — stripe objects on an lfs::ObjectStore, named by
//                           filehandle (Direct-pNFS data servers).
//   * nfs::LocalBackend   — a directory tree whose regular files live in an
//                           lfs::ObjectStore (standalone servers and the
//                           metadata servers of unit-test rigs).
//   * core::PvfsBackend   — a PVFS2-client proxy (the 2-tier/3-tier pNFS
//                           data servers, every deployment's metadata
//                           server and the plain NFSv4 server of the
//                           paper's evaluation).
//   * core::ConduitBackend — a data-path decorator: the bounded buffer
//                           pool between an NFS server and the PVFS daemon.
//
// `LayoutSource` supplies pNFS layouts to the server.  Direct-pNFS wires in
// the layout translator (src/core); the 2-/3-tier deployments wire in a
// synthetic round-robin source that — faithfully to the paper's critique —
// knows nothing about where data really lives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nfs/layout.hpp"
#include "nfs/ops.hpp"
#include "nfs/types.hpp"
#include "rpc/payload.hpp"
#include "sim/task.hpp"
#include "util/obs.hpp"

namespace dpnfs::nfs {

class DataBackend {
 public:
  virtual ~DataBackend() = default;

  // Data operations carry the server's trace context so proxy backends
  // (core::PvfsBackend) can parent the RPCs they re-issue under the request
  // that triggered them — that re-route hop is exactly what the paper's
  // Figure 6 argument is about.  The default `{}` means "untraced".
  virtual sim::Task<Status> read(FileHandle fh, uint64_t offset, uint32_t count,
                                 rpc::Payload* out, bool* eof,
                                 obs::TraceContext trace = {}) = 0;
  /// `committed` reports the achieved stability (>= requested);
  /// `post_change` the file's change attribute after this write (clients
  /// use it to keep their cached attributes coherent with their own I/O).
  virtual sim::Task<Status> write(FileHandle fh, uint64_t offset,
                                  const rpc::Payload& data, StableHow stable,
                                  StableHow* committed, uint64_t* post_change,
                                  obs::TraceContext trace = {}) = 0;
  virtual sim::Task<Status> commit(FileHandle fh,
                                   obs::TraceContext trace = {}) = 0;

  /// Invoked by the server when it detects its own restart (boot instance
  /// bump): the backend must shed whatever state the crash made volatile.
  /// Store-backed backends drop their store's unflushed dirty extents and
  /// caches; core::PvfsBackend drops its PVFS client's replay state and
  /// re-gathers file sizes on next use.  The default does nothing, for a
  /// backend with no volatile state.
  virtual void on_server_restart() {}
};

class Backend : public DataBackend {
 public:
  virtual FileHandle root_fh() const = 0;

  virtual sim::Task<Status> getattr(FileHandle fh, Fattr* out) = 0;
  virtual sim::Task<Status> set_size(FileHandle fh, uint64_t size) = 0;
  virtual sim::Task<Status> lookup(FileHandle dir, const std::string& name,
                                   FileHandle* out) = 0;
  virtual sim::Task<Status> mkdir(FileHandle dir, const std::string& name,
                                  FileHandle* out) = 0;
  /// Opens (optionally creating) a regular file under `dir`.
  virtual sim::Task<Status> open(FileHandle dir, const std::string& name,
                                 bool create, FileHandle* out, Fattr* attr) = 0;
  virtual sim::Task<Status> remove(FileHandle dir, const std::string& name) = 0;
  virtual sim::Task<Status> rename(FileHandle src_dir,
                                   const std::string& old_name,
                                   FileHandle dst_dir,
                                   const std::string& new_name) = 0;
  virtual sim::Task<Status> readdir(FileHandle dir,
                                    std::vector<DirEntry>* out) = 0;
};

/// Supplies pNFS device lists and layouts.  Absent (nullptr) on servers
/// that do not speak pNFS — LAYOUTGET then returns NFS4ERR_LAYOUTUNAVAILABLE
/// and clients fall back to MDS I/O.
class LayoutSource {
 public:
  virtual ~LayoutSource() = default;

  virtual sim::Task<Status> get_device_list(std::vector<DeviceEntry>* out) = 0;
  virtual sim::Task<Status> layout_get(FileHandle fh, LayoutIoMode iomode,
                                       FileLayout* out) = 0;
  /// `post_change` reports the file's change attribute after the commit
  /// (0 when the source does not track one).
  virtual sim::Task<Status> layout_commit(FileHandle fh, uint64_t new_size,
                                          bool size_changed,
                                          uint64_t* post_change) = 0;
  virtual sim::Task<Status> layout_return(FileHandle fh) = 0;
};

}  // namespace dpnfs::nfs
