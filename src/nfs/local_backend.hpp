// Local-filesystem backend: a directory tree + regular files whose data
// lives in the node's lfs::ObjectStore, one object per regular file (the
// object id is the inode number).
//
// Used by standalone NFSv4 servers and the metadata servers of unit-test
// rigs.  It checks inodes and hands the data path to an ObjectBackend over
// the same store.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "lfs/object_store.hpp"
#include "nfs/object_backend.hpp"

namespace dpnfs::nfs {

class LocalBackend final : public Backend {
 public:
  /// `tracer` and `tenants` record store accesses (see ObjectBackend).
  LocalBackend(lfs::ObjectStore& store, obs::Tracer& tracer,
               obs::TenantLedger& tenants);

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
  void on_server_restart() override { objects_.on_server_restart(); }

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
  ObjectBackend objects_;
  std::unordered_map<uint64_t, Inode> inodes_;
  uint64_t next_ino_ = 2;
};

}  // namespace dpnfs::nfs
