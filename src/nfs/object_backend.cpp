#include "nfs/object_backend.hpp"

namespace dpnfs::nfs {

using sim::Task;

Task<Status> ObjectBackend::read(FileHandle fh, uint64_t offset, uint32_t count,
                                 rpc::Payload* out, bool* eof,
                                 obs::TraceContext trace) {
  if (!store_.exists(fh.id)) {
    // Reading a never-written stripe object: empty (all data elsewhere).
    *out = rpc::Payload{};
    *eof = true;
    co_return Status::kOk;
  }
  const lfs::StoreOpClock clock(store_);
  *out = co_await store_.read(fh.id, offset, count);
  *eof = (offset + out->size() >= store_.size(fh.id));
  clock.finish(tracer_, tenants_, trace, "read", out->size(), 0);
  co_return Status::kOk;
}

Task<Status> ObjectBackend::write(FileHandle fh, uint64_t offset,
                                  const rpc::Payload& data, StableHow stable,
                                  StableHow* committed, uint64_t* post_change,
                                  obs::TraceContext trace) {
  *post_change = 0;
  const lfs::StoreOpClock clock(store_);
  co_await store_.write(fh.id, offset, data, stable != StableHow::kUnstable);
  *committed = stable;
  clock.finish(tracer_, tenants_, trace, "write", 0, data.size());
  co_return Status::kOk;
}

Task<Status> ObjectBackend::commit(FileHandle fh, obs::TraceContext trace) {
  const lfs::StoreOpClock clock(store_);
  co_await store_.commit(fh.id);
  clock.finish(tracer_, tenants_, trace, "commit", 0, 0);
  co_return Status::kOk;
}

}  // namespace dpnfs::nfs
