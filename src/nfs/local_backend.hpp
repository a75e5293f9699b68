// Local-filesystem backend: a directory tree + regular files whose data
// lives in the node's lfs::ObjectStore.
//
// Used by standalone NFSv4 servers in unit tests and — in "flat object"
// mode — by Direct-pNFS data servers, where filehandles name stripe objects
// directly (handed out by the layout translator) and no directory tree is
// involved.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "lfs/object_store.hpp"
#include "nfs/backend.hpp"
#include "util/tenant.hpp"

namespace dpnfs::nfs {

class LocalBackend final : public Backend {
 public:
  /// `flat_object_mode`: any filehandle is treated as an object id in the
  /// store (created on first write).  Namespace ops return NOTSUPP.  Store
  /// accesses show up in `tracer` as internal spans under the serving
  /// request (the Direct-pNFS "no extra hop" evidence), and their disk time
  /// is charged in `tenants` to the tenant that request carries.
  LocalBackend(lfs::ObjectStore& store, obs::Tracer& tracer,
               obs::TenantLedger& tenants, bool flat_object_mode = false);

  FileHandle root_fh() const override { return FileHandle{kRootIno}; }

  sim::Task<Status> getattr(FileHandle fh, Fattr* out) override;
  sim::Task<Status> set_size(FileHandle fh, uint64_t size) override;
  sim::Task<Status> lookup(FileHandle dir, const std::string& name,
                           FileHandle* out) override;
  sim::Task<Status> mkdir(FileHandle dir, const std::string& name,
                          FileHandle* out) override;
  sim::Task<Status> open(FileHandle dir, const std::string& name, bool create,
                         FileHandle* out, Fattr* attr) override;
  sim::Task<Status> remove(FileHandle dir, const std::string& name) override;
  sim::Task<Status> rename(FileHandle src_dir, const std::string& old_name,
                           FileHandle dst_dir,
                           const std::string& new_name) override;
  sim::Task<Status> readdir(FileHandle dir, std::vector<DirEntry>* out) override;

  sim::Task<Status> read(FileHandle fh, uint64_t offset, uint32_t count,
                         rpc::Payload* out, bool* eof,
                         obs::TraceContext trace = {}) override;
  sim::Task<Status> write(FileHandle fh, uint64_t offset,
                          const rpc::Payload& data, StableHow stable,
                          StableHow* committed, uint64_t* post_change,
                          obs::TraceContext trace = {}) override;
  sim::Task<Status> commit(FileHandle fh, obs::TraceContext trace = {}) override;

  /// Crash semantics: the store's write-behind buffer and page cache were
  /// volatile memory of the daemon that just died.  The namespace (inode
  /// table) is kept — it stands in for the on-disk file system metadata a
  /// real server journals.
  void on_server_restart() override {
    store_.drop_dirty();
    store_.drop_caches();
  }

  lfs::ObjectStore& store() noexcept { return store_; }

 private:
  static constexpr uint64_t kRootIno = 1;

  struct Inode {
    FileType type = FileType::kRegular;
    uint64_t change = 0;
    int64_t mtime_ns = 0;
    std::map<std::string, uint64_t> children;  ///< directories only
  };

  Inode* find(uint64_t ino);
  uint64_t alloc_inode(FileType type);
  void bump(Inode& inode);

  lfs::ObjectStore& store_;
  obs::Tracer& tracer_;
  obs::TenantLedger& tenants_;
  bool flat_;
  std::unordered_map<uint64_t, Inode> inodes_;
  uint64_t next_ino_ = 2;
};

}  // namespace dpnfs::nfs
