// NFS backends that export a PVFS2-like file system.
//
// `PvfsBackend` implements nfs::Backend on top of a pvfs::PvfsClient — the
// "pNFS server + PVFS2 client" pairing of the paper's Figures 2 and 5.  It
// also implements PfsLayoutProvider, which is how the Direct-pNFS layout
// translator learns a file's native distribution.
//
// An optional *stripe view* turns the backend into the data-server proxy of
// the conventional 2-/3-tier file-layout deployments: the pNFS client
// addresses this server through dense-striped device offsets (it believes
// device i stores every i-th stripe back to back), and the proxy converts
// those device offsets back to logical file offsets before forwarding to
// the exported PFS.  Each forwarded range re-stripes across the PFS —
// producing exactly the overlapping-protocol request amplification and
// inter-server transfers the paper measures (§3.4.1).
//
// Filehandles are interned in an `FhRegistry` shared by the MDS and all
// data servers of one deployment (standing in for the pNFS control
// protocol's filehandle agreement).
//
// The backend answers OPEN and GETATTR from the size it holds.  It gathers
// dfile sizes from the storage daemons only when it first resolves a file
// and on a file's first use after the server restarts; LAYOUTCOMMIT, SETATTR
// and writes through the embedded PVFS client keep the size current between
// gathers (RFC 5661 §12.5.4).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/translator.hpp"
#include "nfs/backend.hpp"
#include "pvfs/client.hpp"

namespace dpnfs::core {

/// Shared filehandle table: fh <-> exported-PFS path (+ file metadata).
class FhRegistry {
 public:
  struct Entry {
    std::string path;
    bool is_dir = false;
    pvfs::PvfsFilePtr file;  ///< regular files only
    /// NFSv4 change attribute.  Bumped by every mutation that any server
    /// sharing this registry observes (writes proxied through a backend,
    /// truncates, LAYOUTCOMMITs after direct data-server writes).
    uint64_t change = 0;
  };

  FhRegistry() {
    entries_[kRootId] = Entry{"/", true, nullptr};
    by_path_["/"] = kRootId;
  }

  static constexpr uint64_t kRootId = 1;

  nfs::FileHandle root() const { return nfs::FileHandle{kRootId}; }

  nfs::FileHandle intern_dir(const std::string& path);
  nfs::FileHandle intern_file(const std::string& path, pvfs::PvfsFilePtr file);
  Entry* find(nfs::FileHandle fh);
  std::optional<nfs::FileHandle> find_path(const std::string& path) const;
  /// Every interned regular file.
  std::vector<nfs::FileHandle> files() const;
  void erase(const std::string& path);
  void rename(const std::string& from, const std::string& to);

 private:
  std::map<uint64_t, Entry> entries_;
  std::map<std::string, uint64_t> by_path_;
  uint64_t next_id_ = 2;
};

/// 2-/3-tier data-server offset conversion parameters.
struct StripeView {
  uint64_t stripe_unit = 0;
  uint32_t device_count = 0;
  uint32_t device_index = 0;
};

class PvfsBackend final : public nfs::Backend, public PfsLayoutProvider {
 public:
  PvfsBackend(pvfs::PvfsClient& client, std::shared_ptr<FhRegistry> registry,
              std::optional<StripeView> stripe_view = std::nullopt);

  // -- nfs::Backend ----------------------------------------------------------
  nfs::FileHandle root_fh() const override { return registry_->root(); }
  sim::Task<nfs::Status> getattr(nfs::FileHandle fh, nfs::Fattr* out) override;
  sim::Task<nfs::Status> set_size(nfs::FileHandle fh, uint64_t size) override;
  sim::Task<nfs::Status> lookup(nfs::FileHandle dir, const std::string& name,
                                nfs::FileHandle* out) override;
  sim::Task<nfs::Status> mkdir(nfs::FileHandle dir, const std::string& name,
                               nfs::FileHandle* out) override;
  sim::Task<nfs::Status> open(nfs::FileHandle dir, const std::string& name,
                              bool create, nfs::FileHandle* out,
                              nfs::Fattr* attr) override;
  sim::Task<nfs::Status> remove(nfs::FileHandle dir,
                                const std::string& name) override;
  sim::Task<nfs::Status> rename(nfs::FileHandle src_dir,
                                const std::string& old_name,
                                nfs::FileHandle dst_dir,
                                const std::string& new_name) override;
  sim::Task<nfs::Status> readdir(nfs::FileHandle dir,
                                 std::vector<nfs::DirEntry>* out) override;
  sim::Task<nfs::Status> read(nfs::FileHandle fh, uint64_t offset,
                              uint32_t count, rpc::Payload* out, bool* eof,
                              obs::TraceContext trace = {}) override;
  sim::Task<nfs::Status> write(nfs::FileHandle fh, uint64_t offset,
                               const rpc::Payload& data, nfs::StableHow stable,
                               nfs::StableHow* committed, uint64_t* post_change,
                               obs::TraceContext trace = {}) override;
  sim::Task<nfs::Status> commit(nfs::FileHandle fh,
                                obs::TraceContext trace = {}) override;

  // A restart of the exporting NFS server must not let its embedded PVFS
  // client resurrect the dead incarnation's buffered write pieces, and the
  // sizes it held died with it.
  void on_server_restart() override;

  // -- PfsLayoutProvider -------------------------------------------------------
  bool describe(nfs::FileHandle fh, PfsLayoutDescription* out) override;
  sim::Task<uint64_t> on_layout_commit(nfs::FileHandle fh,
                                       uint64_t new_size) override;

 private:
  /// Joins a directory entry's path with a component.
  static std::string join(const std::string& dir, const std::string& name) {
    return dir == "/" ? "/" + name : dir + "/" + name;
  }

  FhRegistry::Entry* dir_entry(nfs::FileHandle fh, nfs::Status* st);
  FhRegistry::Entry* file_entry(nfs::FileHandle fh, nfs::Status* st);

  /// Gathers the size of a file this server has not used since it
  /// restarted; a no-op otherwise.
  sim::Task<nfs::Status> regather_size(nfs::FileHandle fh,
                                       const pvfs::PvfsFilePtr& file);

  /// Device offset -> logical file offset under the synthetic dense view.
  uint64_t to_file_offset(uint64_t dev_offset) const;

  pvfs::PvfsClient& client_;
  std::shared_ptr<FhRegistry> registry_;
  std::optional<StripeView> stripe_view_;
  /// Files known before the last restart whose size is not re-gathered yet.
  std::set<uint64_t> unsized_;
};

}  // namespace dpnfs::core
