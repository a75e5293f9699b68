#include "pvfs/storage_server.hpp"

#include <algorithm>

#include "sim/fault.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace dpnfs::pvfs {

using rpc::XdrDecoder;
using rpc::XdrEncoder;
using sim::Task;

namespace {
/// Disk region for the daemon's synchronous journal/metadata updates.
constexpr uint64_t kJournalPosition = 1ull << 50;
}  // namespace

PvfsStorageServer::PvfsStorageServer(rpc::RpcFabric& fabric, sim::Node& node,
                                     uint16_t port, lfs::ObjectStore& store,
                                     StorageServerConfig config)
    : fabric_(fabric), node_(node), port_(port), store_(store),
      config_(config) {
  obs::MetricsRegistry& reg = fabric.metrics();
  const std::string& n = node.name();
  m_requests_ = &reg.counter(n, "pvfs.io", "requests");
  m_bytes_read_ = &reg.counter(n, "pvfs.io", "bytes_read");
  m_bytes_written_ = &reg.counter(n, "pvfs.io", "bytes_written");
  m_commits_ = &reg.counter(n, "pvfs.io", "commits");
  rpc_server_ = std::make_unique<rpc::RpcServer>(
      fabric, node, port, config.buffers,
      [this](const rpc::CallContext& ctx, XdrDecoder& args,
             XdrEncoder& results) -> Task<void> {
        return serve(ctx, args, results);
      });
}

void PvfsStorageServer::finish_store_op(const rpc::CallContext& ctx,
                                        const char* op,
                                        const lfs::StoreOpClock& clock,
                                        uint64_t read_bytes,
                                        uint64_t write_bytes,
                                        int64_t extra_disk_ns) const {
  fabric_.tenants().account_data(ctx.trace.tenant, read_bytes, write_bytes);
  clock.finish(fabric_.tracer(), fabric_.tenants(), ctx.trace, op, read_bytes,
               write_bytes, extra_disk_ns);
}

void PvfsStorageServer::check_restart(sim::Time now) {
  const sim::FaultInjector* faults = fabric_.network().faults();
  const uint64_t instance =
      faults ? faults->boot_instance(node_.id(), port_, now) : 1;
  if (instance == boot_instance_) return;
  const bool first_sight = boot_instance_ == 0;
  boot_instance_ = instance;
  boot_verifier_ =
      faults ? faults->boot_verifier(node_.id(), port_, now)
             : (0x9E3779B97F4A7C15ull ^ ((uint64_t{node_.id()} << 16) | port_));
  if (first_sight) return;  // initial adoption, nothing was lost
  // Buffered (uncommitted) writes lived in the dead daemon's memory; the
  // journal preserved object existence and committed bytes.
  store_.drop_dirty();
  store_.drop_caches();
  ++restarts_;
  util::logf(util::LogLevel::kInfo, "pvfs.io", now,
             "%s:%u storage daemon restarted (instance %llu, verifier %016llx)",
             node_.name().c_str(), static_cast<unsigned>(port_),
             static_cast<unsigned long long>(instance),
             static_cast<unsigned long long>(boot_verifier_));
  fabric_.flight().record(
      now, node_.name(), "pvfs.io", "restart",
      util::sformat("port %u instance %llu verifier %016llx",
                    static_cast<unsigned>(port_),
                    static_cast<unsigned long long>(instance),
                    static_cast<unsigned long long>(boot_verifier_)));
}

Task<void> PvfsStorageServer::charge_cpu(uint64_t bytes) {
  co_await node_.cpu().execute(
      config_.cpu_per_request +
      static_cast<sim::Duration>(config_.cpu_ns_per_byte *
                                 static_cast<double>(bytes)));
}

Task<void> PvfsStorageServer::serve(const rpc::CallContext& ctx,
                                    XdrDecoder& args, XdrEncoder& results) {
  check_restart(node_.simulation().now());
  const auto proc = static_cast<IoProc>(ctx.header.proc);
  m_requests_->inc();
  try {
    switch (proc) {
      case IoProc::kRead:
      case IoProc::kReadv: {
        const ReadArgs a = ReadArgs::decode(proc, args);
        co_await charge_cpu(a.total_length());
        results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
        if (!store_.exists(a.object_id)) {
          for (size_t i = 0; i < a.regions.size(); ++i) {
            results.put_payload(rpc::Payload{});
          }
          co_return;
        }
        // List I/O's disk-side win: one covering span, one disk pass, sliced
        // per region — instead of one seek-and-read per region.
        uint64_t lo = UINT64_MAX, hi = 0;
        for (const IoRegion& r : a.regions) {
          lo = std::min(lo, r.offset);
          hi = std::max(hi, r.offset + r.length);
        }
        const lfs::StoreOpClock clock(store_);
        const rpc::Payload span =
            co_await store_.read(a.object_id, lo, hi - lo);
        uint64_t out_bytes = 0;
        for (const IoRegion& r : a.regions) {
          const uint64_t skip = r.offset - lo;
          const uint64_t avail =
              span.size() > skip ? std::min(r.length, span.size() - skip) : 0;
          out_bytes += avail;
          results.put_payload(span.slice(skip, avail));
        }
        finish_store_op(ctx, proc == IoProc::kRead ? "read" : "readv", clock,
                        out_bytes, 0);
        m_bytes_read_->add(out_bytes);
        co_return;
      }
      case IoProc::kWrite:
      case IoProc::kWritev: {
        const WriteArgs a = WriteArgs::decode(proc, args);
        const uint64_t total = a.data.size();
        co_await charge_cpu(total);
        m_bytes_written_->add(total);
        const lfs::StoreOpClock clock(store_);
        uint64_t pos = 0;
        for (const IoRegion& r : a.regions) {
          co_await store_.write(a.object_id, r.offset,
                                a.data.slice(pos, r.length), /*stable=*/false);
          pos += r.length;
        }
        finish_store_op(ctx, proc == IoProc::kWrite ? "write" : "writev",
                        clock, 0, total);
        results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
        // Buffered write: one verifier tells the client which daemon
        // incarnation holds the volatile bytes of every region (see
        // protocol.hpp).
        results.put_u64(boot_verifier_);
        co_return;
      }
      case IoProc::kCommit: {
        const ObjectArgs a = ObjectArgs::decode(args);
        m_commits_->inc();
        co_await charge_cpu(0);
        const lfs::StoreOpClock clock(store_);
        co_await store_.commit(a.object_id);
        // The daemon's bstream fdatasync touches the disk even when the
        // object is clean (journal/metadata update).
        const int64_t j0 = node_.simulation().now();
        co_await node_.disk().io(kJournalPosition, 4096);
        finish_store_op(ctx, "commit", clock, 0, 0,
                        node_.simulation().now() - j0);
        results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
        // Equal to the verifier of every write it covers iff no restart
        // intervened (mirrors NFS COMMIT semantics).
        results.put_u64(boot_verifier_);
        co_return;
      }
      case IoProc::kGetSize: {
        const ObjectArgs a = ObjectArgs::decode(args);
        co_await charge_cpu(0);
        results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
        results.put_u64(store_.exists(a.object_id) ? store_.size(a.object_id)
                                                   : 0);
        co_return;
      }
      case IoProc::kRemove: {
        const ObjectArgs a = ObjectArgs::decode(args);
        co_await charge_cpu(0);
        if (store_.exists(a.object_id)) store_.remove(a.object_id);
        results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
        co_return;
      }
      case IoProc::kCreate: {
        const ObjectArgs a = ObjectArgs::decode(args);
        co_await charge_cpu(0);
        if (!store_.exists(a.object_id)) store_.create(a.object_id);
        // Creating a dfile is a synchronous metadata update on the daemon.
        co_await node_.disk().io(kJournalPosition, 4096);
        results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
        co_return;
      }
      case IoProc::kTruncate: {
        const TruncateArgs a = TruncateArgs::decode(args);
        co_await charge_cpu(0);
        if (!store_.exists(a.object_id)) store_.create(a.object_id);
        store_.truncate(a.object_id, a.size);
        results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
        co_return;
      }
    }
  } catch (const PvfsError& e) {
    // A malformed region list (the codec's kInval): status only.
    results.put_u32(static_cast<uint32_t>(e.status()));
    co_return;
  }
  results.put_u32(static_cast<uint32_t>(PvfsStatus::kInval));
}

}  // namespace dpnfs::pvfs
