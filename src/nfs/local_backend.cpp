#include "nfs/local_backend.hpp"

namespace dpnfs::nfs {

using sim::Task;

LocalBackend::LocalBackend(lfs::ObjectStore& store, obs::Tracer& tracer,
                           obs::TenantLedger& tenants)
    : store_(store), objects_(store, tracer, tenants) {
  Inode root;
  root.type = FileType::kDirectory;
  inodes_.emplace(kRootIno, std::move(root));
}

LocalBackend::Inode* LocalBackend::find(uint64_t ino) {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

uint64_t LocalBackend::alloc_inode(FileType type) {
  const uint64_t ino = next_ino_++;
  Inode node;
  node.type = type;
  node.mtime_ns = store_.node().simulation().now();
  inodes_.emplace(ino, std::move(node));
  if (type == FileType::kRegular) store_.create(ino);
  return ino;
}

void LocalBackend::bump(Inode& inode) {
  ++inode.change;
  inode.mtime_ns = store_.node().simulation().now();
}

Task<Status> LocalBackend::getattr(FileHandle fh, Fattr* out) {
  Inode* node = find(fh.id);
  if (node == nullptr) co_return Status::kStale;
  out->type = node->type;
  out->fileid = fh.id;
  out->size =
      node->type == FileType::kRegular ? store_.size(fh.id) : node->children.size();
  out->change = node->change;
  out->mtime_ns = node->mtime_ns;
  co_return Status::kOk;
}

Task<Status> LocalBackend::set_size(FileHandle fh, uint64_t size) {
  Inode* node = find(fh.id);
  if (node == nullptr) co_return Status::kStale;
  if (node->type != FileType::kRegular) co_return Status::kIsDir;
  store_.truncate(fh.id, size);
  bump(*node);
  co_return Status::kOk;
}

Task<Status> LocalBackend::lookup(FileHandle dir, const std::string& name,
                                  FileHandle* out) {
  Inode* parent = find(dir.id);
  if (parent == nullptr) co_return Status::kStale;
  if (parent->type != FileType::kDirectory) co_return Status::kNotDir;
  const auto it = parent->children.find(name);
  if (it == parent->children.end()) co_return Status::kNoEnt;
  *out = FileHandle{it->second};
  co_return Status::kOk;
}

Task<Status> LocalBackend::mkdir(FileHandle dir, const std::string& name,
                                 FileHandle* out) {
  Inode* parent = find(dir.id);
  if (parent == nullptr) co_return Status::kStale;
  if (parent->type != FileType::kDirectory) co_return Status::kNotDir;
  if (parent->children.contains(name)) co_return Status::kExist;
  const uint64_t ino = alloc_inode(FileType::kDirectory);
  parent->children.emplace(name, ino);
  bump(*parent);
  *out = FileHandle{ino};
  co_return Status::kOk;
}

Task<Status> LocalBackend::open(FileHandle dir, const std::string& name,
                                bool create, FileHandle* out, Fattr* attr) {
  Inode* parent = find(dir.id);
  if (parent == nullptr) co_return Status::kStale;
  if (parent->type != FileType::kDirectory) co_return Status::kNotDir;
  auto it = parent->children.find(name);
  uint64_t ino = 0;
  if (it == parent->children.end()) {
    if (!create) co_return Status::kNoEnt;
    ino = alloc_inode(FileType::kRegular);
    parent->children.emplace(name, ino);
    bump(*parent);
  } else {
    ino = it->second;
    if (find(ino)->type != FileType::kRegular) co_return Status::kIsDir;
  }
  *out = FileHandle{ino};
  co_return co_await getattr(*out, attr);
}

Task<Status> LocalBackend::remove(FileHandle dir, const std::string& name) {
  Inode* parent = find(dir.id);
  if (parent == nullptr) co_return Status::kStale;
  if (parent->type != FileType::kDirectory) co_return Status::kNotDir;
  const auto it = parent->children.find(name);
  if (it == parent->children.end()) co_return Status::kNoEnt;
  Inode* victim = find(it->second);
  if (victim->type == FileType::kDirectory && !victim->children.empty()) {
    co_return Status::kNotEmpty;
  }
  if (victim->type == FileType::kRegular && store_.exists(it->second)) {
    store_.remove(it->second);
  }
  inodes_.erase(it->second);
  parent->children.erase(it);
  bump(*parent);
  co_return Status::kOk;
}

Task<Status> LocalBackend::rename(FileHandle src_dir,
                                  const std::string& old_name,
                                  FileHandle dst_dir,
                                  const std::string& new_name) {
  Inode* src = find(src_dir.id);
  Inode* dst = find(dst_dir.id);
  if (src == nullptr || dst == nullptr) co_return Status::kStale;
  if (src->type != FileType::kDirectory || dst->type != FileType::kDirectory) {
    co_return Status::kNotDir;
  }
  const auto it = src->children.find(old_name);
  if (it == src->children.end()) co_return Status::kNoEnt;
  if (dst->children.contains(new_name)) co_return Status::kExist;
  const uint64_t ino = it->second;
  src->children.erase(it);
  dst->children.emplace(new_name, ino);
  bump(*src);
  bump(*dst);
  co_return Status::kOk;
}

Task<Status> LocalBackend::readdir(FileHandle dir, std::vector<DirEntry>* out) {
  Inode* parent = find(dir.id);
  if (parent == nullptr) co_return Status::kStale;
  if (parent->type != FileType::kDirectory) co_return Status::kNotDir;
  out->clear();
  out->reserve(parent->children.size());
  for (const auto& [name, ino] : parent->children) {
    out->push_back(DirEntry{name, ino, find(ino)->type});
  }
  co_return Status::kOk;
}

Task<Status> LocalBackend::read(FileHandle fh, uint64_t offset, uint32_t count,
                                rpc::Payload* out, bool* eof,
                                obs::TraceContext trace) {
  Inode* node = find(fh.id);
  if (node == nullptr) co_return Status::kStale;
  if (node->type != FileType::kRegular) co_return Status::kIsDir;
  // A regular file's object exists from creation to removal, so the object
  // backend never takes its never-written shortcut here.
  co_return co_await objects_.read(fh, offset, count, out, eof, trace);
}

Task<Status> LocalBackend::write(FileHandle fh, uint64_t offset,
                                 const rpc::Payload& data, StableHow stable,
                                 StableHow* committed, uint64_t* post_change,
                                 obs::TraceContext trace) {
  Inode* node = find(fh.id);
  if (node == nullptr) co_return Status::kStale;
  if (node->type != FileType::kRegular) co_return Status::kIsDir;
  bump(*node);
  const uint64_t change = node->change;
  const Status st = co_await objects_.write(fh, offset, data, stable,
                                            committed, post_change, trace);
  *post_change = change;
  co_return st;
}

Task<Status> LocalBackend::commit(FileHandle fh, obs::TraceContext trace) {
  if (find(fh.id) == nullptr) co_return Status::kStale;
  co_return co_await objects_.commit(fh, trace);
}

}  // namespace dpnfs::nfs
