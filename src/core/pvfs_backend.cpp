#include "core/pvfs_backend.hpp"

#include <algorithm>

namespace dpnfs::core {

using nfs::Fattr;
using nfs::FileHandle;
using nfs::Status;
using rpc::Payload;
using sim::Task;

namespace {

Status from_pvfs(pvfs::PvfsStatus st) {
  switch (st) {
    case pvfs::PvfsStatus::kOk: return Status::kOk;
    case pvfs::PvfsStatus::kNoEnt: return Status::kNoEnt;
    case pvfs::PvfsStatus::kExist: return Status::kExist;
    case pvfs::PvfsStatus::kNotDir: return Status::kNotDir;
    case pvfs::PvfsStatus::kIsDir: return Status::kIsDir;
    case pvfs::PvfsStatus::kNotEmpty: return Status::kNotEmpty;
    case pvfs::PvfsStatus::kInval: return Status::kInval;
    case pvfs::PvfsStatus::kIo: return Status::kIo;
  }
  return Status::kIo;
}

}  // namespace

// ---------------------------------------------------------------------------
// FhRegistry
// ---------------------------------------------------------------------------

FileHandle FhRegistry::intern_dir(const std::string& path) {
  if (auto it = by_path_.find(path); it != by_path_.end()) {
    return FileHandle{it->second};
  }
  const uint64_t id = next_id_++;
  entries_[id] = Entry{path, true, nullptr};
  by_path_[path] = id;
  return FileHandle{id};
}

FileHandle FhRegistry::intern_file(const std::string& path,
                                   pvfs::PvfsFilePtr file) {
  if (auto it = by_path_.find(path); it != by_path_.end()) {
    Entry& e = entries_.at(it->second);
    if (e.file == nullptr) e.file = std::move(file);
    return FileHandle{it->second};
  }
  const uint64_t id = next_id_++;
  entries_[id] = Entry{path, false, std::move(file)};
  by_path_[path] = id;
  return FileHandle{id};
}

FhRegistry::Entry* FhRegistry::find(FileHandle fh) {
  auto it = entries_.find(fh.id);
  return it == entries_.end() ? nullptr : &it->second;
}

std::optional<FileHandle> FhRegistry::find_path(const std::string& path) const {
  auto it = by_path_.find(path);
  if (it == by_path_.end()) return std::nullopt;
  return FileHandle{it->second};
}

std::vector<FileHandle> FhRegistry::files() const {
  std::vector<FileHandle> out;
  for (const auto& [id, e] : entries_) {
    if (e.file != nullptr) out.push_back(FileHandle{id});
  }
  return out;
}

void FhRegistry::erase(const std::string& path) {
  auto it = by_path_.find(path);
  if (it == by_path_.end()) return;
  entries_.erase(it->second);
  by_path_.erase(it);
}

void FhRegistry::rename(const std::string& from, const std::string& to) {
  auto it = by_path_.find(from);
  if (it == by_path_.end()) return;
  const uint64_t id = it->second;
  by_path_.erase(it);
  by_path_[to] = id;
  entries_.at(id).path = to;
}

// ---------------------------------------------------------------------------
// PvfsBackend
// ---------------------------------------------------------------------------

PvfsBackend::PvfsBackend(pvfs::PvfsClient& client,
                         std::shared_ptr<FhRegistry> registry,
                         std::optional<StripeView> stripe_view)
    : client_(client),
      registry_(std::move(registry)),
      stripe_view_(stripe_view) {}

FhRegistry::Entry* PvfsBackend::dir_entry(FileHandle fh, Status* st) {
  FhRegistry::Entry* e = registry_->find(fh);
  if (e == nullptr) {
    *st = Status::kStale;
    return nullptr;
  }
  if (!e->is_dir) {
    *st = Status::kNotDir;
    return nullptr;
  }
  return e;
}

FhRegistry::Entry* PvfsBackend::file_entry(FileHandle fh, Status* st) {
  FhRegistry::Entry* e = registry_->find(fh);
  if (e == nullptr) {
    *st = Status::kStale;
    return nullptr;
  }
  if (e->is_dir) {
    *st = Status::kIsDir;
    return nullptr;
  }
  if (e->file == nullptr) {
    *st = Status::kStale;
    return nullptr;
  }
  return e;
}

Task<Status> PvfsBackend::getattr(FileHandle fh, Fattr* out) {
  Status st = Status::kOk;
  FhRegistry::Entry* e = registry_->find(fh);
  if (e == nullptr) co_return Status::kStale;
  if (e->is_dir) {
    *out = Fattr{nfs::FileType::kDirectory, fh.id, 0, 0, 0};
    co_return Status::kOk;
  }
  if (e->file == nullptr) co_return Status::kStale;
  // No per-call gather: LAYOUTCOMMIT and the writes this server proxies keep
  // the size current (the "ripple effect" stays with native PVFS2 clients).
  const pvfs::PvfsFilePtr file = e->file;
  st = co_await regather_size(fh, file);
  if (st != Status::kOk) co_return st;
  e = registry_->find(fh);
  *out = Fattr{nfs::FileType::kRegular, file->meta.handle, file->size,
               e != nullptr ? e->change : 0, 0};
  co_return Status::kOk;
}

void PvfsBackend::on_server_restart() {
  client_.drop_replay_state();
  for (const FileHandle fh : registry_->files()) unsized_.insert(fh.id);
}

Task<Status> PvfsBackend::regather_size(FileHandle fh,
                                        const pvfs::PvfsFilePtr& file) {
  if (!unsized_.contains(fh.id)) co_return Status::kOk;
  try {
    co_await client_.fetch_size(file);
  } catch (const pvfs::PvfsError& err) {
    co_return from_pvfs(err.status());
  }
  unsized_.erase(fh.id);
  co_return Status::kOk;
}

Task<Status> PvfsBackend::set_size(FileHandle fh, uint64_t size) {
  Status st = Status::kOk;
  FhRegistry::Entry* e = file_entry(fh, &st);
  if (e == nullptr) co_return st;
  try {
    co_await client_.truncate(e->file, size);
  } catch (const pvfs::PvfsError& err) {
    co_return from_pvfs(err.status());
  }
  ++e->change;
  co_return Status::kOk;
}

Task<Status> PvfsBackend::lookup(FileHandle dir, const std::string& name,
                                 FileHandle* out) {
  Status st = Status::kOk;
  FhRegistry::Entry* d = dir_entry(dir, &st);
  if (d == nullptr) co_return st;
  const std::string path = join(d->path, name);
  if (auto fh = registry_->find_path(path)) {
    *out = *fh;
    co_return Status::kOk;
  }
  try {
    auto file = co_await client_.open(path);
    *out = registry_->intern_file(path, std::move(file));
    co_return Status::kOk;
  } catch (const pvfs::PvfsError& err) {
    if (err.status() == pvfs::PvfsStatus::kIsDir) {
      *out = registry_->intern_dir(path);
      co_return Status::kOk;
    }
    co_return from_pvfs(err.status());
  }
}

Task<Status> PvfsBackend::mkdir(FileHandle dir, const std::string& name,
                                FileHandle* out) {
  Status st = Status::kOk;
  FhRegistry::Entry* d = dir_entry(dir, &st);
  if (d == nullptr) co_return st;
  const std::string path = join(d->path, name);
  try {
    co_await client_.mkdir(path);
  } catch (const pvfs::PvfsError& err) {
    co_return from_pvfs(err.status());
  }
  *out = registry_->intern_dir(path);
  co_return Status::kOk;
}

Task<Status> PvfsBackend::open(FileHandle dir, const std::string& name,
                               bool create, FileHandle* out, Fattr* attr) {
  Status st = Status::kOk;
  FhRegistry::Entry* d = dir_entry(dir, &st);
  if (d == nullptr) co_return st;
  const std::string path = join(d->path, name);

  pvfs::PvfsFilePtr file;
  // Fast path: a data server or the MDS already interned this file and
  // holds its current size.
  if (auto fh = registry_->find_path(path)) {
    FhRegistry::Entry* e = registry_->find(*fh);
    if (e->is_dir) co_return Status::kIsDir;
    file = e->file;
  }
  // First resolve: the size comes from one gather, inside client_.open or,
  // for a new file, right after the create.
  if (file == nullptr) {
    bool must_create = false;
    try {
      file = co_await client_.open(path);
    } catch (const pvfs::PvfsError& err) {
      if (err.status() != pvfs::PvfsStatus::kNoEnt || !create) {
        co_return from_pvfs(err.status());
      }
      must_create = true;  // co_await is not permitted inside a handler
    }
    if (must_create) {
      try {
        file = co_await client_.create(path);
        co_await client_.fetch_size(file);
      } catch (const pvfs::PvfsError& err2) {
        co_return from_pvfs(err2.status());
      }
    }
  }
  *out = registry_->intern_file(path, file);
  st = co_await regather_size(*out, file);
  if (st != Status::kOk) co_return st;
  FhRegistry::Entry* e = registry_->find(*out);
  *attr = Fattr{nfs::FileType::kRegular, file->meta.handle, file->size,
                e != nullptr ? e->change : 0, 0};
  co_return Status::kOk;
}

Task<Status> PvfsBackend::remove(FileHandle dir, const std::string& name) {
  Status st = Status::kOk;
  FhRegistry::Entry* d = dir_entry(dir, &st);
  if (d == nullptr) co_return st;
  const std::string path = join(d->path, name);
  try {
    co_await client_.remove(path);
  } catch (const pvfs::PvfsError& err) {
    co_return from_pvfs(err.status());
  }
  registry_->erase(path);
  co_return Status::kOk;
}

Task<Status> PvfsBackend::rename(FileHandle src_dir, const std::string& old_name,
                                 FileHandle dst_dir,
                                 const std::string& new_name) {
  Status st = Status::kOk;
  FhRegistry::Entry* s = dir_entry(src_dir, &st);
  if (s == nullptr) co_return st;
  FhRegistry::Entry* t = dir_entry(dst_dir, &st);
  if (t == nullptr) co_return st;
  const std::string from = join(s->path, old_name);
  const std::string to = join(t->path, new_name);
  try {
    co_await client_.rename(from, to);
  } catch (const pvfs::PvfsError& err) {
    co_return from_pvfs(err.status());
  }
  registry_->rename(from, to);
  co_return Status::kOk;
}

Task<Status> PvfsBackend::readdir(FileHandle dir,
                                  std::vector<nfs::DirEntry>* out) {
  Status st = Status::kOk;
  FhRegistry::Entry* d = dir_entry(dir, &st);
  if (d == nullptr) co_return st;
  try {
    const auto entries = co_await client_.readdir(d->path);
    out->clear();
    for (const auto& [name, is_dir] : entries) {
      out->push_back(nfs::DirEntry{
          name, 0, is_dir ? nfs::FileType::kDirectory : nfs::FileType::kRegular});
    }
  } catch (const pvfs::PvfsError& err) {
    co_return from_pvfs(err.status());
  }
  co_return Status::kOk;
}

uint64_t PvfsBackend::to_file_offset(uint64_t dev_offset) const {
  const uint64_t su = stripe_view_->stripe_unit;
  const uint64_t n = stripe_view_->device_count;
  const uint64_t i = stripe_view_->device_index;
  return ((dev_offset / su) * n + i) * su + dev_offset % su;
}

Task<Status> PvfsBackend::read(FileHandle fh, uint64_t offset, uint32_t count,
                               Payload* out, bool* eof,
                               obs::TraceContext trace) {
  Status st = Status::kOk;
  FhRegistry::Entry* e = file_entry(fh, &st);
  if (e == nullptr) co_return st;
  try {
    if (!stripe_view_) {
      *out = co_await client_.read(e->file, offset, count, trace);
      *eof = (offset + out->size() >= e->file->size);
      co_return Status::kOk;
    }
    // Dense device offsets -> scattered logical reads against the PFS.
    const uint64_t su = stripe_view_->stripe_unit;
    Payload assembled;
    uint64_t pos = offset;
    const uint64_t end = offset + count;
    while (pos < end) {
      const uint64_t in_stripe = pos % su;
      const uint64_t take = std::min(su - in_stripe, end - pos);
      Payload piece =
          co_await client_.read(e->file, to_file_offset(pos), take, trace);
      const bool short_read = piece.size() < take;
      if (short_read && pos + take < end) {
        // Interior hole in the dense view: pad to keep offsets aligned.
        rpc::zero_fill(piece, take - piece.size());
      }
      assembled.append(piece);
      if (short_read && pos + take >= end) break;
      pos += take;
    }
    *out = std::move(assembled);
    *eof = (out->size() < count);
    co_return Status::kOk;
  } catch (const pvfs::PvfsError& err) {
    co_return from_pvfs(err.status());
  }
}

Task<Status> PvfsBackend::write(FileHandle fh, uint64_t offset,
                                const Payload& data, nfs::StableHow stable,
                                nfs::StableHow* committed,
                                uint64_t* post_change,
                                obs::TraceContext trace) {
  Status st = Status::kOk;
  FhRegistry::Entry* e = file_entry(fh, &st);
  if (e == nullptr) co_return st;
  try {
    if (!stripe_view_) {
      co_await client_.write(e->file, offset, data, trace);
    } else {
      // Dense device offsets -> scattered logical writes; the PVFS client's
      // buffer pool provides what parallelism there is.
      const uint64_t su = stripe_view_->stripe_unit;
      uint64_t pos = offset;
      const uint64_t end = offset + data.size();
      while (pos < end) {
        const uint64_t in_stripe = pos % su;
        const uint64_t take = std::min(su - in_stripe, end - pos);
        co_await client_.write(e->file, to_file_offset(pos),
                               data.slice(pos - offset, take), trace);
        pos += take;
      }
    }
    if (stable != nfs::StableHow::kUnstable) {
      co_await client_.fsync(e->file, trace);
    }
    ++e->change;
    *post_change = e->change;
    *committed = stable;
    co_return Status::kOk;
  } catch (const pvfs::PvfsError& err) {
    co_return from_pvfs(err.status());
  }
}

Task<Status> PvfsBackend::commit(FileHandle fh, obs::TraceContext trace) {
  Status st = Status::kOk;
  FhRegistry::Entry* e = file_entry(fh, &st);
  if (e == nullptr) co_return st;
  try {
    co_await client_.fsync(e->file, trace);
  } catch (const pvfs::PvfsError& err) {
    co_return from_pvfs(err.status());
  }
  co_return Status::kOk;
}

bool PvfsBackend::describe(FileHandle fh, PfsLayoutDescription* out) {
  FhRegistry::Entry* e = registry_->find(fh);
  if (e == nullptr || e->is_dir || e->file == nullptr) return false;
  // The PFS distribution kind becomes the layout's aggregation scheme: the
  // client-side aggregation driver then reproduces the exact placement the
  // PVFS distribution uses (Direct-pNFS identity: DS object == PFS object).
  const pvfs::FileMeta& meta = e->file->meta;
  out->params.clear();
  switch (meta.kind) {
    case pvfs::DistKind::kMirror:
      out->aggregation = nfs::AggregationType::kReplicated;
      break;
    case pvfs::DistKind::kErasure:
      out->aggregation = nfs::AggregationType::kErasureCoded;
      out->params = {meta.ec_k, meta.ec_m};
      break;
    case pvfs::DistKind::kStripe:
      out->aggregation = nfs::AggregationType::kRoundRobin;
      break;
  }
  out->stripe_unit = meta.stripe_unit;
  out->placements.clear();
  for (const auto& dfile : meta.dfiles) {
    out->placements.push_back(
        PfsLayoutDescription::Placement{dfile.server_index, dfile.object_id});
  }
  return true;
}

Task<uint64_t> PvfsBackend::on_layout_commit(FileHandle fh, uint64_t new_size) {
  FhRegistry::Entry* e = registry_->find(fh);
  if (e == nullptr || e->file == nullptr) co_return 0;
  e->file->size = std::max(e->file->size, new_size);
  // Data-server writes bypassed this backend; the LAYOUTCOMMIT is how the
  // MDS learns the file changed.
  ++e->change;
  co_return e->change;
}

}  // namespace dpnfs::core
