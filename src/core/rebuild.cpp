#include "core/rebuild.hpp"

#include <algorithm>
#include <optional>

#include "util/bytes.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/reed_solomon.hpp"

namespace dpnfs::core {

using pvfs::DfileRef;
using pvfs::encode_args;
using pvfs::FileMeta;
using pvfs::IoProc;
using pvfs::ObjectArgs;
using pvfs::PvfsError;
using pvfs::PvfsStatus;
using pvfs::ReadArgs;
using pvfs::TruncateArgs;
using pvfs::WriteArgs;
using rpc::Payload;
using rpc::XdrEncoder;
using sim::Task;

namespace {
constexpr uint32_t kPvfsVersion = 2;
}

RebuildManager::RebuildManager(rpc::RpcFabric& fabric, sim::Node& node,
                               pvfs::PvfsMetaServer& meta,
                               std::vector<rpc::RpcAddress> storage,
                               const sim::FaultInjector* injector,
                               RebuildConfig config)
    : fabric_(fabric),
      node_(node),
      meta_(meta),
      storage_(std::move(storage)),
      injector_(injector),
      config_(config),
      rpc_(fabric, node, "rebuild@SIM"),
      down_since_(storage_.size(), sim::kNever) {
  obs::MetricsRegistry& reg = fabric.metrics();
  const std::string& n = node.name();
  m_declared_dead_ = &reg.counter(n, "mds.rebuild", "dses_declared_dead");
  m_started_ = &reg.counter(n, "mds.rebuild", "rebuilds_started");
  m_completed_ = &reg.counter(n, "mds.rebuild", "rebuilds_completed");
  m_objects_ = &reg.counter(n, "mds.rebuild", "objects_rebuilt");
  m_bytes_ = &reg.counter(n, "mds.rebuild", "bytes_rebuilt");
  m_failed_ = &reg.counter(n, "mds.rebuild", "objects_failed");
}

RebuildStats RebuildManager::stats() const {
  return RebuildStats{
      .dses_declared_dead = m_declared_dead_->value(),
      .rebuilds_started = m_started_->value(),
      .rebuilds_completed = m_completed_->value(),
      .objects_rebuilt = m_objects_->value(),
      .bytes_rebuilt = m_bytes_->value(),
      .objects_failed = m_failed_->value(),
  };
}

RebuildManager::~RebuildManager() { stop_ = true; }

void RebuildManager::start() {
  if (running_ || injector_ == nullptr) return;
  running_ = true;
  stop_ = false;
  fabric_.simulation().spawn(monitor_loop());
}

bool RebuildManager::daemon_down(uint32_t index, sim::Time now) const {
  if (injector_ == nullptr || index >= storage_.size()) return false;
  const rpc::RpcAddress& a = storage_[index];
  return injector_->service_down(a.node_id, a.port, now);
}

Task<void> RebuildManager::monitor_loop() {
  while (!stop_) {
    co_await fabric_.simulation().delay(config_.check_interval);
    if (stop_) break;
    const sim::Time now = fabric_.simulation().now();
    for (uint32_t i = 0; i < storage_.size(); ++i) {
      if (!daemon_down(i, now)) {
        down_since_[i] = sim::kNever;
        continue;
      }
      if (down_since_[i] == sim::kNever) {
        down_since_[i] = now;
        continue;
      }
      if (now - down_since_[i] < config_.dead_threshold) continue;
      if (std::find(dead_.begin(), dead_.end(), i) != dead_.end()) continue;
      dead_.push_back(i);
      co_await rebuild_node(i);
    }
  }
  running_ = false;
}

Task<rpc::RpcClient::Reply> RebuildManager::io_call(uint32_t server_index,
                                                    IoProc proc,
                                                    XdrEncoder args) {
  rpc::CallOptions opts;
  opts.timeout = sim::ms(500);
  opts.max_retries = 2;
  auto reply = co_await rpc_.call(storage_.at(server_index),
                                  rpc::Program::kPvfsIo, kPvfsVersion,
                                  static_cast<uint32_t>(proc), std::move(args),
                                  opts);
  if (reply.transport != rpc::Status::kOk) {
    throw PvfsError(PvfsStatus::kIo, "rebuild RPC timed out");
  }
  co_return reply;
}

Task<Payload> RebuildManager::read_object(uint32_t server, uint64_t oid,
                                          uint64_t offset, uint64_t length) {
  const ReadArgs a{oid, {{offset, length}}};
  auto r = co_await io_call(server, a.proc(), encode_args(a));
  auto d = r.body();
  if (static_cast<PvfsStatus>(d.get_u32()) != PvfsStatus::kOk) {
    throw PvfsError(PvfsStatus::kIo, "rebuild read");
  }
  co_return d.get_payload();
}

Task<void> RebuildManager::write_object(uint32_t server, uint64_t oid,
                                        uint64_t offset, Payload data) {
  const uint64_t length = data.size();
  const WriteArgs a{oid, {{offset, length}}, std::move(data)};
  auto r = co_await io_call(server, a.proc(), encode_args(a));
  auto d = r.body();
  if (static_cast<PvfsStatus>(d.get_u32()) != PvfsStatus::kOk) {
    throw PvfsError(PvfsStatus::kIo, "rebuild write");
  }
}

Task<void> RebuildManager::pace(uint64_t bytes) {
  if (config_.rate_bytes_per_sec <= 0 || bytes == 0) co_return;
  const double sec = static_cast<double>(bytes) / config_.rate_bytes_per_sec;
  co_await fabric_.simulation().delay(
      static_cast<sim::Duration>(sec * 1e9));
}

Task<void> RebuildManager::rebuild_node(uint32_t index) {
  const sim::Time now = fabric_.simulation().now();
  m_declared_dead_->inc();
  util::logf(util::LogLevel::kWarn, "mds.rebuild", now,
             "storage daemon %u declared permanently failed", index);
  fabric_.flight().record(
      now, node_.name(), "mds.rebuild", "ds.declared_dead",
      util::sformat("storage %u (down %lld ms)", index,
                    static_cast<long long>((now - down_since_[index]) /
                                           1'000'000)));

  // A spare must exist and itself be alive.
  const uint32_t active = meta_.active_storage();
  uint32_t spare = storage_.size();  // invalid
  while (active + spares_used_ < storage_.size()) {
    const uint32_t cand = active + spares_used_;
    ++spares_used_;
    if (cand != index && !daemon_down(cand, now)) {
      spare = cand;
      break;
    }
  }
  if (spare >= storage_.size()) {
    util::logf(util::LogLevel::kError, "mds.rebuild", now,
               "no live spare for failed storage daemon %u; data stays "
               "degraded", index);
    co_return;
  }

  m_started_->inc();
  fabric_.flight().record(
      now, node_.name(), "mds.rebuild", "rebuild.start",
      util::sformat("storage %u -> spare %u", index, spare));

  // Snapshot the victim's files first: the visitor is synchronous, the
  // copies are not.  FileMeta entries are stable in the metadata tree.
  std::vector<FileMeta*> files;
  meta_.for_each_file([&](FileMeta& m) {
    for (const DfileRef& d : m.dfiles) {
      if (d.server_index == index) {
        files.push_back(&m);
        break;
      }
    }
  });

  uint64_t ok = 0, failed = 0;
  for (FileMeta* m : files) {
    for (uint32_t pos = 0; pos < m->dfiles.size(); ++pos) {
      if (m->dfiles[pos].server_index != index) continue;
      bool rebuilt = false;
      try {
        rebuilt = co_await rebuild_dfile(*m, pos, spare);
      } catch (const PvfsError& e) {
        util::logf(util::LogLevel::kError, "mds.rebuild",
                   fabric_.simulation().now(),
                   "rebuild of file %llu dfile %u failed: %s",
                   static_cast<unsigned long long>(m->handle), pos, e.what());
      }
      if (rebuilt) {
        ++ok;
        m_objects_->inc();
      } else {
        ++failed;
        m_failed_->inc();
      }
    }
  }

  m_completed_->inc();
  const sim::Time end = fabric_.simulation().now();
  util::logf(util::LogLevel::kInfo, "mds.rebuild", end,
             "rebuild of storage %u onto %u complete: %llu objects, "
             "%llu failed, %s copied",
             index, spare, static_cast<unsigned long long>(ok),
             static_cast<unsigned long long>(failed),
             util::format_bytes(m_bytes_->value()).c_str());
  fabric_.flight().record(
      end, node_.name(), "mds.rebuild", "rebuild.complete",
      util::sformat("storage %u -> spare %u, %llu objects, %llu failed", index,
                    spare, static_cast<unsigned long long>(ok),
                    static_cast<unsigned long long>(failed)));
}

Task<bool> RebuildManager::rebuild_dfile(FileMeta& meta, uint32_t pos,
                                         uint32_t spare) {
  const sim::Time now = fabric_.simulation().now();
  if (meta.kind == pvfs::DistKind::kStripe) {
    co_return false;  // no redundancy: those bytes are gone
  }

  // Logical size from the surviving daemons (PVFS keeps no size at the
  // metadata server; redundant distributions tolerate the dead entry).
  std::vector<uint64_t> sizes(meta.dfiles.size(), 0);
  for (uint32_t i = 0; i < meta.dfiles.size(); ++i) {
    if (i == pos || daemon_down(meta.dfiles[i].server_index, now)) continue;
    try {
      auto r = co_await io_call(
          meta.dfiles[i].server_index, IoProc::kGetSize,
          encode_args(ObjectArgs{meta.dfiles[i].object_id}));
      auto d = r.body();
      if (static_cast<PvfsStatus>(d.get_u32()) == PvfsStatus::kOk) {
        sizes[i] = d.get_u64();
      }
    } catch (const PvfsError&) {
      // Treated as size 0; redundancy covers the estimate.
    }
  }
  const uint64_t logical = pvfs::logical_size(meta, sizes);
  const uint64_t target = pvfs::dfile_size_for(meta, pos, logical);

  // Materialize the replacement object on the spare.
  const uint64_t oid = meta_.allocate_object();
  {
    auto r = co_await io_call(spare, IoProc::kCreate,
                              encode_args(ObjectArgs{oid}));
    auto d = r.body();
    if (static_cast<PvfsStatus>(d.get_u32()) != PvfsStatus::kOk) {
      throw PvfsError(PvfsStatus::kIo, "rebuild create");
    }
  }

  if (meta.kind == pvfs::DistKind::kMirror) {
    // Copy from the first live replica, chunk by chunk.
    uint32_t src = meta.dfiles.size();
    for (uint32_t i = 0; i < meta.dfiles.size(); ++i) {
      if (i != pos && !daemon_down(meta.dfiles[i].server_index, now) &&
          sizes[i] >= target) {
        src = i;
        break;
      }
    }
    if (src >= meta.dfiles.size()) co_return false;
    for (uint64_t off = 0; off < target; off += config_.chunk_bytes) {
      const uint64_t len = std::min(config_.chunk_bytes, target - off);
      Payload chunk = co_await read_object(meta.dfiles[src].server_index,
                                           meta.dfiles[src].object_id, off,
                                           len);
      const uint64_t copied = chunk.size();
      co_await write_object(spare, oid, off, std::move(chunk));
      m_bytes_->add(copied);
      co_await pace(copied);
    }
  } else {
    // Erasure: decode the missing shard round by round from any k live
    // shards (all shards of group g sit at dfile offset g * su).
    const uint32_t k = meta.ec_k;
    const uint32_t n = static_cast<uint32_t>(meta.dfiles.size());
    const uint64_t su = meta.stripe_unit;
    const util::ReedSolomon rs(k, meta.ec_m);
    for (uint64_t off = 0; off < target; off += su) {
      std::vector<std::optional<std::vector<std::byte>>> shards(n);
      uint32_t have = 0;
      for (uint32_t i = 0; i < n && have < k; ++i) {
        if (i == pos || daemon_down(meta.dfiles[i].server_index, now)) {
          continue;
        }
        Payload p = co_await read_object(meta.dfiles[i].server_index,
                                         meta.dfiles[i].object_id, off, su);
        std::vector<std::byte> shard(su, std::byte{0});
        const auto span = p.data();
        std::copy(span.begin(), span.end(), shard.begin());
        shards[i] = std::move(shard);
        ++have;
      }
      if (have < k || !rs.reconstruct(&shards)) co_return false;
      const uint64_t len = std::min(su, target - off);
      std::vector<std::byte> out(shards[pos]->begin(),
                                 shards[pos]->begin() + len);
      co_await write_object(spare, oid, off, Payload::inline_bytes(out));
      m_bytes_->add(len);
      co_await pace(len);
    }
  }

  co_await io_call(spare, IoProc::kTruncate,
                   encode_args(TruncateArgs{oid, target}));
  co_await io_call(spare, IoProc::kCommit, encode_args(ObjectArgs{oid}));

  // Retarget the distribution: layouts handed out from here on point at
  // the spare.
  meta.dfiles[pos] = DfileRef{spare, oid};
  co_return true;
}

}  // namespace dpnfs::core
