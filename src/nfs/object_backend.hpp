// Object backend: stripe objects in a node's lfs::ObjectStore, named by
// filehandle.
//
// The data path of a Direct-pNFS data server.  A filehandle is an object id
// the layout translator handed out; an object is created by its first write,
// and one never written reads back empty.  There is no namespace: the data
// server built on it answers every namespace op with NOTSUPP.
#pragma once

#include "lfs/object_store.hpp"
#include "nfs/backend.hpp"
#include "util/tenant.hpp"

namespace dpnfs::nfs {

class ObjectBackend final : public DataBackend {
 public:
  /// Store accesses show up in `tracer` as internal spans under the serving
  /// request (the Direct-pNFS "no extra hop" evidence), and their disk time
  /// is charged in `tenants` to the tenant that request carries.
  ObjectBackend(lfs::ObjectStore& store, obs::Tracer& tracer,
                obs::TenantLedger& tenants)
      : store_(store), tracer_(tracer), tenants_(tenants) {}

  sim::Task<Status> read(FileHandle fh, uint64_t offset, uint32_t count,
                         rpc::Payload* out, bool* eof,
                         obs::TraceContext trace = {}) override;
  sim::Task<Status> write(FileHandle fh, uint64_t offset,
                          const rpc::Payload& data, StableHow stable,
                          StableHow* committed, uint64_t* post_change,
                          obs::TraceContext trace = {}) override;
  sim::Task<Status> commit(FileHandle fh, obs::TraceContext trace = {}) override;

  /// Crash semantics: the store's write-behind buffer and page cache were
  /// volatile memory of the daemon that just died.
  void on_server_restart() override {
    store_.drop_dirty();
    store_.drop_caches();
  }

 private:
  lfs::ObjectStore& store_;
  obs::Tracer& tracer_;
  obs::TenantLedger& tenants_;
};

}  // namespace dpnfs::nfs
