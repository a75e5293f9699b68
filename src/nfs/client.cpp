#include "nfs/client.hpp"

#include <algorithm>
#include <cassert>

#include "nfs/compound_reply.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/reed_solomon.hpp"

namespace dpnfs::nfs {

using rpc::Payload;
using sim::Task;

namespace {

constexpr uint32_t kNfsVersion = 4;
constexpr uint16_t kBackchannelPortBase = 4044;

uint64_t round_down(uint64_t v, uint64_t m) { return v / m * m; }
uint64_t round_up(uint64_t v, uint64_t m) { return (v + m - 1) / m * m; }

/// Splits "/a/b/c" into ("/a/b", "c").  The parent of "/x" is "/".
std::pair<std::string, std::string> split_parent(const std::string& path) {
  if (path.empty() || path[0] != '/' || path == "/") {
    throw NfsError(Status::kInval, "bad path: " + path);
  }
  const size_t slash = path.find_last_of('/');
  std::string dir = (slash == 0) ? "/" : path.substr(0, slash);
  return {std::move(dir), path.substr(slash + 1)};
}

std::vector<std::string> path_components(const std::string& path) {
  std::vector<std::string> out;
  size_t pos = 1;
  while (pos < path.size()) {
    const size_t next = path.find('/', pos);
    const size_t end = (next == std::string::npos) ? path.size() : next;
    if (end > pos) out.push_back(path.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

/// Starts a compound with its SEQUENCE op.  The session id is a placeholder:
/// call() patches the live one in before every send.
CompoundBuilder with_sequence() {
  CompoundBuilder b;
  b.add(OpCode::kSequence, SequenceArgs{SessionId{}, 0});
  return b;
}

/// SEQUENCE + PUTFH(fh): the prefix of every compound that acts on a file.
CompoundBuilder compound_for(const FileHandle& fh) {
  CompoundBuilder b = with_sequence();
  b.add(OpCode::kPutFh, PutFhArgs{fh});
  return b;
}

/// Checks the SEQUENCE and PUTFH results of a compound_for() compound.
void expect_sequence_putfh(CompoundReply& r) {
  r.expect(OpCode::kSequence);
  r.expect(OpCode::kPutFh);
}

bool redundant(const NfsClient::FileState& f) {
  return f.layout && redundant_aggregation(f.layout->aggregation);
}

}  // namespace

NfsClient::NfsClient(rpc::RpcFabric& fabric, sim::Node& node,
                     rpc::RpcAddress mds, std::string principal,
                     ClientConfig config,
                     std::shared_ptr<const AggregationRegistry> aggregations)
    : fabric_(fabric),
      node_(node),
      mds_(mds),
      rpc_(fabric, node, std::move(principal)),
      config_(config),
      aggregations_(std::move(aggregations)) {
  rpc_.set_tenant(config_.tenant_id);
  if (!aggregations_) {
    aggregations_ = std::make_shared<const AggregationRegistry>(
        AggregationRegistry::with_standard_drivers());
  }
  const std::string& n = node.name();
  const auto counter = [&](const char* component, const char* name) {
    return &fabric.metrics().counter(n, component, name);
  };
  m_hit_bytes_ = counter("client.cache", "hit_bytes");
  m_miss_bytes_ = counter("client.cache", "miss_bytes");
  m_read_bytes_ = counter("client.cache", "read_bytes");
  m_write_bytes_ = counter("client.cache", "write_bytes");
  m_readahead_fetches_ = counter("client.cache", "readahead_fetches");
  m_rpcs_ = counter("client.cache", "rpcs");
  m_sched_writes_ = counter("client.sched", "dispatched_writes");
  m_sched_bytes_ = counter("client.sched", "dispatched_bytes");
  m_sched_coalesced_extents_ = counter("client.sched", "coalesced_extents");
  m_sched_coalesced_bytes_ = counter("client.sched", "coalesced_bytes");
  m_vectored_writes_ = counter("client.sched", "vectored_writes");
  m_vectored_regions_ = counter("client.sched", "vectored_regions");
  m_vectored_bytes_ = counter("client.sched", "vectored_bytes");
  m_retries_ = counter("client.recovery", "retries");
  m_fallbacks_ = counter("client.recovery", "fallbacks");
  m_breaker_trips_ = counter("client.recovery", "breaker_trips");
  m_layout_refetches_ = counter("client.recovery", "layout_refetches");
  m_rpc_retries_ = counter("client.recovery", "rpc_retries");
  m_verifier_mismatches_ = counter("client.replay", "verifier_mismatches");
  m_replayed_extents_ = counter("client.replay", "replayed_extents");
  m_replayed_bytes_ = counter("client.replay", "replayed_bytes");
  m_session_recoveries_ = counter("client.replay", "session_recoveries");
  m_replica_reroutes_ = counter("client.redundancy", "replica_reroutes");
  m_degraded_reads_ = counter("client.redundancy", "degraded_reads");
  m_degraded_read_bytes_ = counter("client.redundancy", "degraded_read_bytes");
  m_ec_reconstructions_ = counter("client.redundancy", "ec_reconstructions");
  m_degraded_writes_ = counter("client.redundancy", "degraded_writes");
  m_degraded_commits_ = counter("client.redundancy", "degraded_commits");
  // Transport-level retries surface under this client's recovery component.
  rpc_.set_retry_counter(m_rpc_retries_);
  tx_gate_ = std::make_unique<sim::Semaphore>(fabric.simulation(), 1);
}

NfsClient::~NfsClient() = default;

ClientStats NfsClient::stats() const {
  ClientStats s;
  s.bytes_read = m_read_bytes_->value();
  s.bytes_written = m_write_bytes_->value();
  s.wire_read_bytes = m_miss_bytes_->value();
  s.wire_write_bytes =
      m_sched_bytes_->value() + (config_.data_cache ? 0 : s.bytes_written);
  s.rpcs = m_rpcs_->value();
  s.cache_hit_bytes = m_hit_bytes_->value();
  s.readahead_fetches = m_readahead_fetches_->value();
  s.sched_writes = m_sched_writes_->value();
  s.sched_coalesced_extents = m_sched_coalesced_extents_->value();
  s.sched_coalesced_bytes = m_sched_coalesced_bytes_->value();
  s.vectored_writes = m_vectored_writes_->value();
  s.vectored_regions = m_vectored_regions_->value();
  s.vectored_bytes = m_vectored_bytes_->value();
  s.recovery_retries = m_retries_->value();
  s.mds_fallbacks = m_fallbacks_->value();
  s.breaker_trips = m_breaker_trips_->value();
  s.layout_refetches = m_layout_refetches_->value();
  s.verifier_mismatches = m_verifier_mismatches_->value();
  s.replayed_extents = m_replayed_extents_->value();
  s.replayed_bytes = m_replayed_bytes_->value();
  s.session_recoveries = m_session_recoveries_->value();
  s.replica_reroutes = m_replica_reroutes_->value();
  s.degraded_reads = m_degraded_reads_->value();
  s.degraded_read_bytes = m_degraded_read_bytes_->value();
  s.ec_reconstructions = m_ec_reconstructions_->value();
  s.degraded_writes = m_degraded_writes_->value();
  s.degraded_commits = m_degraded_commits_->value();
  return s;
}

// ---------------------------------------------------------------------------
// Sessions and compound plumbing
// ---------------------------------------------------------------------------

Task<std::shared_ptr<NfsClient::Session>> NfsClient::session_for(
    rpc::RpcAddress addr) {
  while (true) {
    if (auto it = sessions_.find(addr); it != sessions_.end()) {
      co_return it->second;
    }
    if (auto it = session_creating_.find(addr); it != session_creating_.end()) {
      auto latch = it->second;
      co_await latch->wait();
      continue;  // re-check
    }
    auto latch = std::make_shared<sim::Latch>(fabric_.simulation());
    session_creating_.emplace(addr, latch);

    try {
      CompoundBuilder b;
      b.add(OpCode::kExchangeId, ExchangeIdArgs{rpc_.principal()});
      auto raw = co_await rpc_.call(addr, rpc::Program::kNfs, kNfsVersion,
                                    kProcCompound, std::move(b).finish(),
                                    call_options(addr));
      m_rpcs_->inc();
      CompoundReply r1(std::move(raw));
      const auto eid = r1.expect<ExchangeIdRes>(OpCode::kExchangeId);

      // Bind the backchannel to the MDS session only: layouts (the things a
      // server recalls) are granted there.
      uint32_t cb_port = 0;
      if (addr == mds_ && config_.enable_backchannel) {
        start_backchannel();
        if (backchannel_) cb_port = backchannel_->address().port;
      }
      CompoundBuilder b2;
      b2.add(OpCode::kCreateSession,
             CreateSessionArgs{eid.client_id, kSessionSlots, cb_port});
      auto raw2 = co_await rpc_.call(addr, rpc::Program::kNfs, kNfsVersion,
                                     kProcCompound, std::move(b2).finish(),
                                     call_options(addr));
      m_rpcs_->inc();
      CompoundReply r2(std::move(raw2));
      const auto cs = r2.expect<CreateSessionRes>(OpCode::kCreateSession);

      auto session = std::make_shared<Session>();
      session->id = cs.session;
      session->slots = std::make_unique<sim::Semaphore>(
          fabric_.simulation(), std::max<uint32_t>(1, cs.max_slots));
      sessions_[addr] = session;
      session_creating_.erase(addr);
      latch->set();
      co_return session;
    } catch (...) {
      // Wake anyone parked on the latch; they retry (and likely fail the
      // same way) instead of hanging forever on a dead server.
      session_creating_.erase(addr);
      latch->set();
      throw;
    }
  }
}

/// Call policy for `addr`: data-server calls carry the configured deadline
/// and transport retry budget; MDS calls keep the unbounded legacy behavior
/// (the MDS is the recovery path — timing it out has nowhere to go).
rpc::CallOptions NfsClient::call_options(const rpc::RpcAddress& addr) const {
  rpc::CallOptions opts;
  if (addr == mds_) {
    if (config_.mds_timeout > 0) {
      opts.timeout = config_.mds_timeout;
      opts.max_retries = config_.ds_rpc_retries;
      opts.backoff = config_.mds_timeout / 4;
    }
  } else if (config_.ds_timeout > 0) {
    opts.timeout = config_.ds_timeout;
    opts.max_retries = config_.ds_rpc_retries;
    opts.backoff = config_.ds_timeout / 4;
  }
  return opts;
}

namespace {

/// The SEQUENCE result is always the compound's first; its status tells us
/// whether the server recognized our session.  Returns kOk for replies that
/// cannot be peeked (transport failures surface via CompoundReply instead).
Status peek_sequence_status(const rpc::RpcClient::Reply& reply) {
  if (!reply.ok()) return Status::kOk;
  try {
    rpc::XdrDecoder dec = reply.body();
    if (dec.get_u32() == 0) return Status::kOk;
    const OpResultHeader h = OpResultHeader::decode(dec);
    return h.op == OpCode::kSequence ? h.status : Status::kOk;
  } catch (const rpc::XdrError&) {
    return Status::kOk;
  }
}

}  // namespace

void NfsClient::session_lost(const rpc::RpcAddress& addr,
                             const SessionId& sid) {
  if (auto it = sessions_.find(addr);
      it != sessions_.end() && it->second->id == sid) {
    sessions_.erase(it);
  }
  m_session_recoveries_->inc();
  if (addr == mds_) {
    // The MDS restarted: layouts and open stateids it granted died with it.
    // Layouts are re-fetched once per file at the next data-path entry;
    // opens degrade to the anonymous stateid (the revived server holds no
    // open state to match, and CLOSE would only earn a BAD_STATEID).
    for (auto& [ino, f] : files_) {
      if (f->layout) f->layout_stale = true;
      f->server_opens = 0;
      f->open_stateids.clear();
    }
  }
  util::logf(util::LogLevel::kInfo, "nfs.client", fabric_.simulation().now(),
             "session %llu to node %u port %u lost (server restart); "
             "re-establishing",
             static_cast<unsigned long long>(sid.id), addr.node_id,
             static_cast<unsigned>(addr.port));
  flight_event("session.lost",
               util::sformat("session %llu node %u port %u",
                             static_cast<unsigned long long>(sid.id),
                             addr.node_id, static_cast<unsigned>(addr.port)));
}

Task<rpc::RpcClient::Reply> NfsClient::call(rpc::RpcAddress addr,
                                            CompoundBuilder builder,
                                            uint64_t data_bytes,
                                            obs::TraceContext trace_parent) {
  // Attempts to revive a session against a restarted server before the
  // BADSESSION/GRACE answer surfaces to the caller as an error.
  constexpr uint32_t kSessionRetries = 3;
  rpc::XdrEncoder encoded = std::move(builder).finish();
  for (uint32_t attempt = 0;; ++attempt) {
    std::shared_ptr<Session> s = co_await session_for(addr);
    // Every compound starts with SEQUENCE, so the session id sits at a fixed
    // offset: [0,4) op count, [4,8) opcode, [8,16) session id.  Patching it
    // here (instead of trusting the id baked in at build time) lets a
    // re-established session re-send the identical compound.
    rpc::XdrEncoder msg = encoded;
    msg.patch_u32(8, static_cast<uint32_t>(s->id.id >> 32));
    msg.patch_u32(12, static_cast<uint32_t>(s->id.id & 0xFFFFFFFFu));
    co_await s->slots->acquire();
    const auto cpu = config_.cpu_per_rpc +
                     static_cast<sim::Duration>(config_.cpu_ns_per_byte *
                                                static_cast<double>(data_bytes));
    co_await node_.cpu().execute(cpu);
    m_rpcs_->inc();
    rpc::CallOptions opts = call_options(addr);
    opts.parent = trace_parent;
    auto reply = co_await rpc_.call(addr, rpc::Program::kNfs, kNfsVersion,
                                    kProcCompound, std::move(msg), opts);
    s->slots->release();
    if (attempt < kSessionRetries) {
      const Status seq = peek_sequence_status(reply);
      if (seq == Status::kBadSession || seq == Status::kGrace) {
        session_lost(addr, s->id);
        continue;
      }
    }
    co_return reply;
  }
}

void NfsClient::flight_event(const char* kind,
                             const std::string& detail) const {
  fabric_.flight().record(fabric_.simulation().now(), node_.name(),
                          "nfs.client", kind, detail);
}

// ---------------------------------------------------------------------------
// Mount and path resolution
// ---------------------------------------------------------------------------

Task<void> NfsClient::mount() {
  if (mounted_) co_return;
  CompoundBuilder b = with_sequence();
  b.add(OpCode::kPutRootFh);
  b.add(OpCode::kGetFh);
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  r.expect(OpCode::kSequence);
  r.expect(OpCode::kPutRootFh);
  root_fh_ = r.expect<GetFhRes>(OpCode::kGetFh).fh;
  dentry_cache_["/"] = root_fh_;

  if (config_.pnfs_enabled) {
    CompoundBuilder b2 = with_sequence();
    b2.add(OpCode::kPutRootFh);
    b2.add(OpCode::kGetDeviceList);
    CompoundReply r2(co_await call(mds_, std::move(b2), 0));
    r2.expect(OpCode::kSequence);
    r2.expect(OpCode::kPutRootFh);
    if (r2.try_next(OpCode::kGetDeviceList) == Status::kOk) {
      const auto res = GetDeviceListRes::decode(r2.dec());
      for (const auto& d : res.devices) {
        devices_[d.device] = rpc::RpcAddress{d.node_id, d.port};
      }
    }
  }
  mounted_ = true;
}

Task<FileHandle> NfsClient::resolve(const std::string& path) {
  if (auto it = dentry_cache_.find(path); it != dentry_cache_.end()) {
    co_return it->second;
  }
  // Deepest cached ancestor.
  const auto comps = path_components(path);
  std::string cur = "/";
  FileHandle cur_fh = root_fh_;
  size_t start = 0;
  {
    std::string probe = "";
    for (size_t i = 0; i < comps.size(); ++i) {
      probe += "/" + comps[i];
      auto it = dentry_cache_.find(probe);
      if (it == dentry_cache_.end()) break;
      cur = probe;
      cur_fh = it->second;
      start = i + 1;
    }
  }
  if (start == comps.size()) co_return cur_fh;

  CompoundBuilder b = compound_for(cur_fh);
  for (size_t i = start; i < comps.size(); ++i) {
    b.add(OpCode::kLookup, LookupArgs{comps[i]});
    b.add(OpCode::kGetFh);
  }
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  expect_sequence_putfh(r);
  std::string walked = (cur == "/") ? "" : cur;
  FileHandle fh = cur_fh;
  for (size_t i = start; i < comps.size(); ++i) {
    r.expect(OpCode::kLookup);
    fh = r.expect<GetFhRes>(OpCode::kGetFh).fh;
    walked += "/" + comps[i];
    dentry_cache_[walked] = fh;
  }
  co_return fh;
}

void NfsClient::invalidate_dentries(const std::string& prefix) {
  auto it = dentry_cache_.lower_bound(prefix);
  while (it != dentry_cache_.end() && it->first.rfind(prefix, 0) == 0) {
    it = dentry_cache_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------------

void NfsClient::start_backchannel() {
  if (backchannel_) return;
  // Pick the first free port in the backchannel range (several clients may
  // share one simulated node in tests).
  for (uint16_t port = kBackchannelPortBase; port < kBackchannelPortBase + 256;
       ++port) {
    try {
      backchannel_ = std::make_unique<rpc::RpcServer>(
          fabric_, node_, port, /*workers=*/2,
          [this](const rpc::CallContext& ctx, rpc::XdrDecoder& args,
                 rpc::XdrEncoder& results) -> Task<void> {
            return serve_callback(ctx, args, results);
          });
      backchannel_->start();
      return;
    } catch (const std::logic_error&) {
      continue;  // port taken
    }
  }
  util::logf(util::LogLevel::kWarn, "nfs.client", fabric_.simulation().now(),
             "no free backchannel port; layout recalls disabled");
}

Task<void> NfsClient::serve_callback(const rpc::CallContext& ctx,
                                     rpc::XdrDecoder& args,
                                     rpc::XdrEncoder& results) {
  (void)results;
  switch (ctx.header.proc) {
    case kProcCbLayoutRecall: {
      const auto a = CbLayoutRecallArgs::decode(args);
      ++recalls_served_;
      // Flush everything that went through this layout, then drop it;
      // further I/O flows through the MDS (or re-fetches a layout at the
      // next open).  Snapshot the FilePtr before suspending: the flush
      // co_awaits, and a concurrent close + drop_caches can erase map
      // entries out from under a live files_ iterator.
      FilePtr file;
      uint64_t ino = 0;
      for (auto& [id, state] : files_) {
        if (!(state->fh == a.fh) || !state->layout) continue;
        file = state;
        ino = id;
        break;
      }
      if (file) {
        for (int round = 0; round < 4; ++round) {
          co_await flush_dirty(file, /*only_full_chunks=*/false, /*wait=*/true);
          co_await commit_unstable(*file);
          if (file->dirty.empty() && file->unstable_targets.empty()) break;
        }
        file->layout.reset();
        util::logf(util::LogLevel::kInfo, "nfs.client",
                   fabric_.simulation().now(), "layout for fileid %llu recalled",
                   static_cast<unsigned long long>(ino));
      }
      co_return;
    }
    case kProcCbRecallDelegation: {
      const auto a = CbRecallDelegationArgs::decode(args);
      ++delegation_recalls_served_;
      for (auto& [ino, state] : files_) {
        if (!(state->fh == a.fh) || !state->read_delegation) continue;
        state->read_delegation = false;
        util::logf(util::LogLevel::kInfo, "nfs.client",
                   fabric_.simulation().now(),
                   "read delegation for fileid %llu recalled",
                   static_cast<unsigned long long>(ino));
        break;
      }
      co_return;
    }
    default:
      throw NfsError(Status::kNotSupp, "unknown callback procedure");
  }
}

Task<void> NfsClient::truncate(const std::string& path, uint64_t size) {
  const FileHandle fh = co_await resolve(path);
  CompoundBuilder b = compound_for(fh);
  b.add(OpCode::kSetattr, SetattrArgs{true, size});
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  expect_sequence_putfh(r);
  r.expect(OpCode::kSetattr);
  // Our own cached view of the file, if any, must shrink too.
  for (auto& [ino, state] : files_) {
    if (!(state->fh == fh)) continue;
    if (size < state->size) {
      const uint64_t valid_before = state->valid.total_length();
      state->valid.subtract(size, ~0ull);
      account_cached(-static_cast<int64_t>(valid_before -
                                           state->valid.total_length()));
      remove_dirty(*state, size, ~0ull);
      state->content.drop(size, ~0ull);
      // Truncated bytes need no replay either.
      for (auto& [idx, t] : state->commit_targets) {
        t.uncommitted.subtract(size, ~0ull);
      }
    }
    state->size = size;
    break;
  }
}

Task<void> NfsClient::mkdir(const std::string& path) {
  const auto [dir, name] = split_parent(path);
  const FileHandle parent = co_await resolve(dir);
  CompoundBuilder b = compound_for(parent);
  b.add(OpCode::kCreate, CreateArgs{name});
  b.add(OpCode::kGetFh);
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  expect_sequence_putfh(r);
  r.expect(OpCode::kCreate);
  dentry_cache_[path] = r.expect<GetFhRes>(OpCode::kGetFh).fh;
}

Task<void> NfsClient::remove(const std::string& path) {
  const auto [dir, name] = split_parent(path);
  const FileHandle parent = co_await resolve(dir);
  CompoundBuilder b = compound_for(parent);
  b.add(OpCode::kRemove, RemoveArgs{name});
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  expect_sequence_putfh(r);
  r.expect(OpCode::kRemove);
  invalidate_dentries(path);
}

Task<void> NfsClient::rename(const std::string& from, const std::string& to) {
  const auto [src_dir, old_name] = split_parent(from);
  const auto [dst_dir, new_name] = split_parent(to);
  const FileHandle src = co_await resolve(src_dir);
  const FileHandle dst = co_await resolve(dst_dir);
  CompoundBuilder b = compound_for(src);
  b.add(OpCode::kSaveFh);
  b.add(OpCode::kPutFh, PutFhArgs{dst});
  b.add(OpCode::kRename, RenameArgs{old_name, new_name});
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  expect_sequence_putfh(r);
  r.expect(OpCode::kSaveFh);
  r.expect(OpCode::kPutFh);
  r.expect(OpCode::kRename);
  invalidate_dentries(from);
  invalidate_dentries(to);
}

Task<std::vector<DirEntry>> NfsClient::readdir(const std::string& path) {
  const FileHandle dir = co_await resolve(path);
  CompoundBuilder b = compound_for(dir);
  b.add(OpCode::kReaddir);
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  expect_sequence_putfh(r);
  co_return r.expect<ReaddirRes>(OpCode::kReaddir).entries;
}

Task<Fattr> NfsClient::stat(const std::string& path) {
  const FileHandle fh = co_await resolve(path);
  CompoundBuilder b = compound_for(fh);
  b.add(OpCode::kGetattr);
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  expect_sequence_putfh(r);
  co_return r.expect<GetattrRes>(OpCode::kGetattr).attr;
}

// ---------------------------------------------------------------------------
// Open / close
// ---------------------------------------------------------------------------

Task<NfsClient::FilePtr> NfsClient::open(const std::string& path, bool create,
                                         bool read_only) {
  // Delegation fast path: a held read delegation makes re-opens purely
  // local — no RPC, guaranteed-fresh cache.
  if (!create && read_only) {
    if (auto it = dentry_cache_.find(path); it != dentry_cache_.end()) {
      for (auto& [ino, state] : files_) {
        if (state->fh == it->second && state->read_delegation) {
          ++state->open_count;
          state->last_use = ++lru_clock_;
          co_return state;
        }
      }
    }
  }

  const auto [dir, name] = split_parent(path);
  const FileHandle parent = co_await resolve(dir);
  CompoundBuilder b = compound_for(parent);
  b.add(OpCode::kOpen,
        OpenArgs{name, create,
                 read_only ? ShareAccess::kRead : ShareAccess::kBoth});
  b.add(OpCode::kGetFh);
  if (config_.pnfs_enabled) {
    b.add(OpCode::kLayoutGet,
          LayoutGetArgs{read_only ? LayoutIoMode::kRead
                                  : LayoutIoMode::kReadWrite,
                        0, ~0ull});
  }
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  expect_sequence_putfh(r);
  const auto open_res = r.expect<OpenRes>(OpCode::kOpen);
  const FileHandle fh = r.expect<GetFhRes>(OpCode::kGetFh).fh;

  std::optional<FileLayout> layout;
  if (config_.pnfs_enabled && r.try_next(OpCode::kLayoutGet) == Status::kOk) {
    FileLayout l = LayoutGetRes::decode(r.dec()).layout;
    if (layout_usable(l)) {
      layout = std::move(l);
    } else {
      util::logf(util::LogLevel::kWarn, "nfs.client",
                 fabric_.simulation().now(),
                 "layout for %s unusable (driver/devices); falling back to MDS I/O",
                 path.c_str());
    }
  }

  auto it = files_.find(open_res.attr.fileid);
  if (it == files_.end()) {
    auto state = std::make_shared<FileState>();
    state->fh = fh;
    state->stateid = open_res.stateid;
    state->attr = open_res.attr;
    state->size = open_res.attr.size;
    state->layout = std::move(layout);
    state->open_count = 1;
    // server_opens incremented below, with the reopen path.
    it = files_.emplace(open_res.attr.fileid, std::move(state)).first;
  } else {
    FileState& st = *it->second;
    // Close-to-open consistency: cached data from a previous open stays
    // valid only if the server-side file is unchanged.  A held read
    // delegation guarantees freshness without the comparison.
    if (st.open_count == 0 && !st.read_delegation &&
        (open_res.attr.change != st.attr.change ||
         open_res.attr.size != st.size)) {
      invalidate_clean(st);
      st.size = open_res.attr.size;
    }
    st.attr = open_res.attr;
    ++st.open_count;
    st.stateid = open_res.stateid;
    if (!st.layout) st.layout = std::move(layout);
  }
  ++it->second->server_opens;
  it->second->open_stateids.push_back(open_res.stateid);
  if (open_res.delegation == DelegationType::kRead) {
    it->second->read_delegation = true;
  }
  it->second->path = path;
  dentry_cache_[path] = fh;
  co_return it->second;
}

bool NfsClient::file_has_delegation(const FilePtr& file) const {
  return file->read_delegation;
}

Task<void> NfsClient::close(FilePtr file) {
  co_await fsync(file);

  if (file->open_count > 0) --file->open_count;
  // Delegation-elided opens have no server stateid; send CLOSE only while
  // the server holds more opens than we have handles left.
  Fattr fresh = file->attr;
  if (file->server_opens > file->open_count) {
    // Retire the newest still-live OPEN stateid (LIFO).  With concurrent
    // handles on one file the server holds one stateid per OPEN; presenting
    // the same one twice earns NFS4ERR_BAD_STATEID.
    Stateid closing = file->stateid;
    if (!file->open_stateids.empty()) {
      closing = file->open_stateids.back();
      file->open_stateids.pop_back();
      file->stateid =
          file->open_stateids.empty() ? closing : file->open_stateids.back();
    }
    CompoundBuilder b = compound_for(file->fh);
    b.add(OpCode::kGetattr);  // refresh change/size for close-to-open caching
    b.add(OpCode::kClose, CloseArgs{closing});
    CompoundReply r(co_await call(mds_, std::move(b), 0));
    expect_sequence_putfh(r);
    fresh = r.expect<GetattrRes>(OpCode::kGetattr).attr;
    r.expect(OpCode::kClose);
    --file->server_opens;
  }

  if (file->open_count == 0) {
    // The page cache survives close (Linux semantics): clean data stays for
    // the next open, subject to close-to-open revalidation against these
    // freshly fetched attributes, and to LRU eviction.  If the attributes
    // already show someone else's changes, drop the cache now.
    if (!file->read_delegation && (fresh.change != file->attr.change ||
                                   fresh.size != file->size)) {
      invalidate_clean(*file);
    }
    file->attr = fresh;
    file->size = fresh.size;
    file->expected_seq_offset = 0;
    file->readahead_high = 0;
  }
}

void NfsClient::invalidate_clean(FileState& st) {
  // The cache shrinks to the pinned set, whatever part of it was valid.
  const uint64_t before = st.valid.total_length();
  drop_clean(st);
  account_cached(static_cast<int64_t>(st.valid.total_length() - before));
}

uint64_t NfsClient::file_size(const FilePtr& file) const { return file->size; }

void NfsClient::drop_caches() {
  for (auto it = files_.begin(); it != files_.end();) {
    FileState& st = *it->second;
    if (st.open_count == 0 && st.pinned().empty()) {
      account_cached(-static_cast<int64_t>(st.valid.total_length()));
      it = files_.erase(it);
      continue;
    }
    account_cached(-static_cast<int64_t>(drop_clean(st)));
    ++it;
  }
}

bool NfsClient::file_has_layout(const FilePtr& file) const {
  return file->layout.has_value();
}

// ---------------------------------------------------------------------------
// I/O routing
// ---------------------------------------------------------------------------

NfsClient::IoSlice NfsClient::mds_slice(const FileState& f, uint64_t offset,
                                        uint64_t length) const {
  IoSlice slice;
  slice.device_index = IoSlice::kMds;
  slice.addr = mds_;
  slice.fh = f.fh;
  // Under a delegation-elided open there is no server-side open stateid;
  // reads ride the anonymous stateid (the delegation stateid, in effect).
  slice.stateid = f.server_opens > 0 ? f.stateid : kAnonymousStateid;
  slice.target_offset = offset;
  slice.file_offset = offset;
  slice.length = length;
  return slice;
}

std::vector<NfsClient::IoSlice> NfsClient::route(FileState& f, uint64_t offset,
                                                 uint64_t length,
                                                 bool for_write) {
  std::vector<IoSlice> out;
  if (f.layout) {
    const AggregationDriver* driver = aggregations_->find(f.layout->aggregation);
    assert(driver != nullptr);  // checked at open
    const auto segments = for_write
                              ? driver->map_write(*f.layout, offset, length)
                              : driver->map_read(*f.layout, offset, length);
    out.reserve(segments.size());
    const bool redundant_layout = redundant(f);
    for (const auto& seg : segments) {
      IoSlice slice;
      aim_at_device(f, slice, seg.device_index);
      slice.stateid = kDataServerStateid;
      slice.target_offset = seg.dev_offset;
      slice.file_offset = seg.file_offset;
      slice.length = seg.length;
      slice.parity = seg.parity;
      if (!for_write && redundant_layout &&
          device_unhealthy(f, seg.device_index, seg.file_offset,
                           seg.file_offset + seg.length)) {
        // Health-aware replica selection: route the read to a surviving
        // copy up front instead of burning retries on a sick device.
        // Erasure-coded layouts have no same-bytes replica; their slices go
        // out unchanged and reconstruct in recover()'s redundancy rung.
        if (remap_replica(f, slice, seg.device_index)) {
          m_replica_reroutes_->inc();
        }
        out.push_back(slice);
        continue;
      }
      if (config_.mds_fallback && !redundant_layout && !slice.parity &&
          breaker_open(slice.addr)) {
        // Open breaker: don't even try the sick DS, proxy through the MDS.
        // Redundant layouts never take this path — their surviving copies
        // or parity serve the bytes via the degraded rungs instead.
        slice = mds_slice(f, seg.file_offset, seg.length);
        m_fallbacks_->inc();
        flight_event(
            "mds.fallback",
            util::sformat("fileid %llu dev %zu %llu+%llu",
                          static_cast<unsigned long long>(f.attr.fileid),
                          seg.device_index,
                          static_cast<unsigned long long>(seg.file_offset),
                          static_cast<unsigned long long>(seg.length)));
      }
      out.push_back(slice);
    }
    return out;
  }
  out.push_back(mds_slice(f, offset, length));
  return out;
}

// ---------------------------------------------------------------------------
// Data-server health and failure recovery
// ---------------------------------------------------------------------------

bool NfsClient::breaker_open(const rpc::RpcAddress& addr) const {
  const auto it = ds_health_.find(addr);
  return it != ds_health_.end() &&
         fabric_.simulation().now() < it->second.open_until;
}

void NfsClient::record_ds_result(const rpc::RpcAddress& addr, bool ok) {
  DsHealth& h = ds_health_[addr];
  if (ok) {
    h.consecutive_failures = 0;
    h.open_until = 0;
    return;
  }
  ++h.consecutive_failures;
  if (h.consecutive_failures == config_.breaker_threshold) {
    h.open_until = fabric_.simulation().now() + config_.breaker_reset;
    m_breaker_trips_->inc();
    util::logf(util::LogLevel::kWarn, "nfs.client", fabric_.simulation().now(),
               "circuit breaker opened for DS node %u port %u",
               addr.node_id, static_cast<unsigned>(addr.port));
    flight_event("breaker.trip",
                 util::sformat("ds node %u port %u until %lld ns", addr.node_id,
                               static_cast<unsigned>(addr.port),
                               static_cast<long long>(h.open_until)));
  }
}

bool NfsClient::layout_usable(const FileLayout& l) const {
  bool ok = l.valid() && aggregations_->find(l.aggregation) != nullptr;
  for (const auto& d : l.devices) ok &= devices_.contains(d);
  return ok;
}

Task<void> NfsClient::refetch_layout(FileState& f, bool force) {
  if (!config_.pnfs_enabled || !f.layout) co_return;
  const sim::Time now = fabric_.simulation().now();
  if (!force && f.layout_refetched_at >= 0 &&
      now - f.layout_refetched_at < config_.breaker_reset) {
    co_return;  // refreshed recently; don't hammer the MDS per failed slice
  }
  f.layout_refetched_at = now;
  m_layout_refetches_->inc();
  flight_event("layout.refetch",
               util::sformat("fileid %llu%s",
                             static_cast<unsigned long long>(f.attr.fileid),
                             force ? " forced" : ""));
  try {
    CompoundBuilder b = compound_for(f.fh);
    b.add(OpCode::kLayoutGet,
          LayoutGetArgs{LayoutIoMode::kReadWrite, 0, ~0ull});
    CompoundReply r(co_await call(mds_, std::move(b), 0));
    expect_sequence_putfh(r);
    if (r.try_next(OpCode::kLayoutGet) == Status::kOk) {
      FileLayout l = LayoutGetRes::decode(r.dec()).layout;
      if (layout_usable(l)) f.layout = std::move(l);
    }
  } catch (const NfsError&) {
    // Keep the stale layout; per-slice fallback still makes progress.
  }
}

Task<void> NfsClient::ensure_layout_fresh(FileState& f) {
  if (!f.layout_stale) co_return;
  // Exactly one LAYOUTGET per stale file, even if the refresh fails (the
  // stale layout then keeps serving; per-slice recovery handles fallout).
  f.layout_stale = false;
  co_await refetch_layout(f, /*force=*/true);
}

void NfsClient::note_unstable_write(FileState& f, const IoSlice& slice,
                                    uint64_t verifier) {
  f.unstable_targets.insert(slice.device_index);
  auto& t = f.commit_targets[slice.device_index];
  if (t.verifier_known && t.verifier != verifier) {
    // The target restarted between two of our WRITEs: everything retained
    // under the old verifier sat in volatile memory of the dead incarnation.
    // Re-dirty it now — minus the range this WRITE just (re)covered.
    t.uncommitted.subtract(slice.file_offset,
                           slice.file_offset + slice.length);
    redirty_lost(f, slice.device_index);
  }
  t.verifier_known = true;
  t.verifier = verifier;
  t.uncommitted.add(slice.file_offset, slice.file_offset + slice.length);
}

void NfsClient::redirty_lost(FileState& f, size_t target) {
  auto it = f.commit_targets.find(target);
  m_verifier_mismatches_->inc();
  if (it == f.commit_targets.end() || it->second.uncommitted.empty()) return;
  uint64_t bytes = 0;
  uint64_t extents = 0;
  for (const auto& iv : it->second.uncommitted.intervals()) {
    add_dirty(f, iv.start, iv.end);
    bytes += iv.length();
    ++extents;
  }
  it->second.uncommitted.clear();
  m_replayed_extents_->add(extents);
  m_replayed_bytes_->add(bytes);
  obs::Tracer& tracer = fabric_.tracer();
  const obs::TraceContext ctx = tracer.begin({});
  obs::Span span;
  span.trace_id = ctx.trace_id;
  span.span_id = ctx.span_id;
  span.kind = obs::SpanKind::kInternal;
  span.name = "wb.replay/" +
              (target == IoSlice::kMds ? std::string("mds")
                                       : "dev" + std::to_string(target));
  span.node = node_.name();
  span.start = fabric_.simulation().now();
  span.end = fabric_.simulation().now();
  span.bytes_out = bytes;
  tracer.record(std::move(span));
  flight_event(
      "wb.replay",
      util::sformat("fileid %llu target %lld %llu bytes %llu extents",
                    static_cast<unsigned long long>(f.attr.fileid),
                    static_cast<long long>(static_cast<int64_t>(target)),
                    static_cast<unsigned long long>(bytes),
                    static_cast<unsigned long long>(extents)));
  util::logf(util::LogLevel::kWarn, "nfs.client", fabric_.simulation().now(),
             "write verifier changed for fileid %llu target %lld: replaying "
             "%llu bytes in %llu extents",
             static_cast<unsigned long long>(f.attr.fileid),
             static_cast<long long>(static_cast<int64_t>(target)),
             static_cast<unsigned long long>(bytes),
             static_cast<unsigned long long>(extents));
}

// ---------------------------------------------------------------------------
// Redundancy: replica reroute, degraded reads, erasure reconstruction
// ---------------------------------------------------------------------------

namespace {

/// The contiguous device-index span [base, base+count) holding the same
/// bytes as device `avoid` under a mirror-style layout.  False for layouts
/// without same-bytes replicas (erasure coding reconstructs instead).
bool replica_span(const FileLayout& l, size_t avoid, size_t* base,
                  size_t* count) {
  switch (l.aggregation) {
    case AggregationType::kReplicated:
      *base = 0;
      *count = l.devices.size();
      return true;
    case AggregationType::kNested: {
      if (l.params.empty() || l.params[0] == 0) return false;
      const size_t g = static_cast<size_t>(l.params[0]);
      *base = avoid / g * g;
      *count = g;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

void NfsClient::aim_at_device(const FileState& f, IoSlice& slice,
                              size_t dev) const {
  slice.device_index = dev;
  slice.addr = devices_.at(f.layout->devices[dev]);
  slice.fh = f.layout->fhs[dev];
}

bool NfsClient::device_unhealthy(const FileState& f, size_t device,
                                 uint64_t start, uint64_t end) const {
  if (!f.layout || device >= f.layout->devices.size()) return false;
  const auto it = devices_.find(f.layout->devices[device]);
  if (it == devices_.end()) return true;
  if (breaker_open(it->second)) return true;
  const auto d = f.degraded.find(device);
  return d != f.degraded.end() && d->second.intersects(start, end);
}

bool NfsClient::remap_replica(const FileState& f, IoSlice& slice,
                              size_t avoid) const {
  if (!f.layout) return false;
  size_t base = 0;
  size_t count = 0;
  if (!replica_span(*f.layout, avoid, &base, &count)) return false;
  // Rotate from the avoided device so concurrent degraded readers spread
  // across the surviving copies.  Replicas hold the same bytes at the same
  // device offset, so only the identity fields change.
  for (size_t i = 1; i < count; ++i) {
    const size_t cand = base + ((avoid - base) + i) % count;
    if (cand >= f.layout->devices.size()) continue;
    if (device_unhealthy(f, cand, slice.file_offset,
                         slice.file_offset + slice.length)) {
      continue;
    }
    aim_at_device(f, slice, cand);
    return true;
  }
  return false;
}

Task<bool> NfsClient::ec_reconstruct_block(FileState& f, const IoSlice& slice,
                                           Payload& block) {
  const auto geo = EcGeometry::from(*f.layout);
  if (!geo) co_return false;
  const uint64_t su = geo->su;
  const uint64_t stripe = slice.file_offset / su;
  const size_t want = static_cast<size_t>(stripe % geo->k);
  const uint64_t grp = stripe / geo->k;
  const uint64_t grp_start = grp * geo->group_bytes();
  const uint64_t grp_end = grp_start + geo->group_bytes();
  const size_t n = static_cast<size_t>(geo->k + geo->m);

  // Gather su-sized shards of the group from any k healthy devices.  Every
  // shard of group g — data and parity alike — sits at device offset g*su;
  // short reads zero-fill, matching the zero padding the writer encoded
  // over.
  std::vector<std::optional<std::vector<std::byte>>> shards(n);
  uint64_t have = 0;
  for (size_t dev = 0; dev < n && have < geo->k; ++dev) {
    if (dev == want) continue;
    if (device_unhealthy(f, dev, grp_start, grp_end)) continue;
    IoSlice sh;
    aim_at_device(f, sh, dev);
    sh.stateid = kDataServerStateid;
    sh.target_offset = grp * su;
    sh.file_offset = dev < geo->k ? grp_start + dev * su : grp_start;
    sh.length = su;
    try {
      Payload p = co_await read_slice_op(f, sh);
      record_ds_result(sh.addr, true);
      const auto span = p.data();
      std::vector<std::byte> bytes(static_cast<size_t>(su), std::byte{0});
      std::copy(span.begin(), span.end(), bytes.begin());
      shards[dev] = std::move(bytes);
      ++have;
    } catch (const NfsError&) {
      record_ds_result(sh.addr, false);
    }
  }
  if (have < geo->k) co_return false;

  util::ReedSolomon rs(static_cast<uint32_t>(geo->k),
                       static_cast<uint32_t>(geo->m));
  if (!rs.reconstruct(&shards) || !shards[want]) co_return false;
  block = Payload::inline_bytes(std::move(*shards[want]));
  m_ec_reconstructions_->inc();
  co_return true;
}

Task<bool> NfsClient::degraded_read(FileState& f, IoSlice slice, Payload& out) {
  const size_t home = slice.device_index;
  bool served = false;
  if (f.layout->aggregation == AggregationType::kErasureCoded) {
    // Reconstruct su-block by su-block: a merged slice can span several
    // stripes of the home device.
    const auto geo = EcGeometry::from(*f.layout);
    if (!geo) co_return false;
    Payload assembled;
    uint64_t pos = slice.file_offset;
    const uint64_t end = pos + slice.length;
    while (pos < end) {
      const uint64_t block_start = pos / geo->su * geo->su;
      const uint64_t take = std::min(geo->su - (pos - block_start), end - pos);
      IoSlice sub = slice;
      sub.file_offset = pos;
      sub.length = take;
      Payload block;
      if (!co_await ec_reconstruct_block(f, sub, block)) co_return false;
      assembled.append(block.slice(pos - block_start, take));
      pos += take;
    }
    out = std::move(assembled);
    served = true;
  } else {
    size_t base = 0;
    size_t count = 0;
    if (!replica_span(*f.layout, home, &base, &count)) co_return false;
    for (size_t i = 1; i < count && !served; ++i) {
      const size_t cand = base + ((home - base) + i) % count;
      if (cand >= f.layout->devices.size()) continue;
      if (device_unhealthy(f, cand, slice.file_offset,
                           slice.file_offset + slice.length)) {
        continue;
      }
      IoSlice alt = slice;
      aim_at_device(f, alt, cand);
      try {
        out = co_await read_slice_op(f, alt);
        record_ds_result(alt.addr, true);
        served = true;
      } catch (const NfsError&) {
        record_ds_result(alt.addr, false);
      }
    }
  }
  if (!served) co_return false;
  m_degraded_reads_->inc();
  m_degraded_read_bytes_->add(slice.length);
  flight_event("degraded.read",
               util::sformat("fileid %llu dev %zu %llu+%llu",
                             static_cast<unsigned long long>(f.attr.fileid),
                             home,
                             static_cast<unsigned long long>(slice.file_offset),
                             static_cast<unsigned long long>(slice.length)));
  co_return true;
}

void NfsClient::note_degraded_write(FileState& f, const IoSlice& slice) {
  uint64_t end = slice.file_offset + slice.length;
  if (slice.parity && f.layout) {
    // A lost parity block degrades the whole stripe group it covers: any
    // reconstruction sourcing this device over those file bytes would mix
    // stale parity with fresh data.
    if (const auto geo = EcGeometry::from(*f.layout)) {
      end = slice.file_offset + slice.length * geo->k;
    }
  }
  f.degraded[slice.device_index].add(slice.file_offset, end);
  m_degraded_writes_->inc();
  flight_event("degraded.write",
               util::sformat("fileid %llu dev %zu %llu+%llu%s",
                             static_cast<unsigned long long>(f.attr.fileid),
                             slice.device_index,
                             static_cast<unsigned long long>(slice.file_offset),
                             static_cast<unsigned long long>(
                                 end - slice.file_offset),
                             slice.parity ? " parity" : ""));
  util::logf(util::LogLevel::kWarn, "nfs.client", fabric_.simulation().now(),
             "degraded write: fileid %llu dev %zu [%llu, %llu) absorbed by "
             "surviving redundancy",
             static_cast<unsigned long long>(f.attr.fileid),
             slice.device_index,
             static_cast<unsigned long long>(slice.file_offset),
             static_cast<unsigned long long>(end));
}

Task<Payload> NfsClient::read_slice_op(FileState& f, const IoSlice& slice) {
  (void)f;
  // A short reply means one of two things, and they need opposite handling:
  // EOF on the stripe object (a hole — the missing tail genuinely reads as
  // zeros) vs. a mid-object short READ (the server returned fewer bytes than
  // exist — re-issue for the missing tail, never fabricate zeros).
  Payload out;
  bool eof = false;
  while (out.size() < slice.length && !eof) {
    const uint64_t got = out.size();
    const uint64_t want = slice.length - got;
    CompoundBuilder b = compound_for(slice.fh);
    b.add(OpCode::kRead, ReadArgs{slice.stateid, slice.target_offset + got,
                                  static_cast<uint32_t>(want)});
    CompoundReply r(co_await call(slice.addr, std::move(b), want));
    expect_sequence_putfh(r);
    auto res = r.expect<ReadRes>(OpCode::kRead);
    if (res.data.size() > want) {
      throw NfsError(Status::kIo, "overlong READ reply");
    }
    if (res.data.size() == 0 && !res.eof) {
      throw NfsError(Status::kIo, "zero-byte READ reply before EOF");
    }
    eof = res.eof;
    out.append(std::move(res.data));
  }
  if (out.size() < slice.length) zero_fill(out, slice.length - out.size());
  co_return out;
}

Task<std::vector<Payload>> NfsClient::read_vector_op(
    FileState& f, const std::vector<IoSlice>& slices) {
  const IoSlice& first = slices.front();
  std::vector<IoRegion> regions;
  regions.reserve(slices.size());
  uint64_t total = 0;
  for (const IoSlice& sl : slices) {
    regions.push_back({sl.target_offset, static_cast<uint32_t>(sl.length)});
    total += sl.length;
  }
  CompoundBuilder b = compound_for(first.fh);
  ReadArgs a{first.stateid, std::move(regions)};
  b.add(a.opcode(), a);
  CompoundReply r(co_await call(first.addr, std::move(b), total));
  expect_sequence_putfh(r);
  auto res = r.expect<ReadvRes>(OpCode::kReadv);
  if (res.lengths.size() != slices.size()) {
    throw NfsError(Status::kIo, "READV reply region count mismatch");
  }
  std::vector<Payload> out(slices.size());
  uint64_t pos = 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    const uint64_t got = res.lengths[i];
    if (got > slices[i].length) {
      throw NfsError(Status::kIo, "overlong READV region");
    }
    out[i] = res.data.slice(pos, got);
    pos += got;
    if (got == slices[i].length) continue;
    const uint64_t missing = slices[i].length - got;
    if (res.eof && i + 1 == slices.size()) {
      // Hole at end-of-file: the missing tail genuinely reads as zeros.
      zero_fill(out[i], missing);
    } else {
      // Short region that is not the EOF tail: re-issue it alone —
      // read_slice_op distinguishes mid-object short READs from holes.
      IoSlice tail = slices[i];
      tail.target_offset += got;
      tail.file_offset += got;
      tail.length = missing;
      out[i].append(co_await read_slice_op(f, tail));
    }
  }
  co_return out;
}

Task<void> NfsClient::write_vector_op(FileState& f,
                                      const std::vector<IoSlice>& slices,
                                      Payload data,
                                      obs::TraceContext trace_parent) {
  const IoSlice& first = slices.front();
  const uint64_t total = data.size();
  CompoundBuilder b = compound_for(first.fh);
  std::vector<IoRegion> regions;
  regions.reserve(slices.size());
  for (const IoSlice& sl : slices) {
    regions.push_back({sl.target_offset, static_cast<uint32_t>(sl.length)});
  }
  WriteArgs a{first.stateid, std::move(regions), StableHow::kUnstable,
              std::move(data)};
  const OpCode op = a.opcode();
  b.add(op, a);
  CompoundReply r(
      co_await call(first.addr, std::move(b), total, trace_parent));
  expect_sequence_putfh(r);
  const auto res = r.expect<WriteRes>(op);
  if (res.committed == StableHow::kUnstable) {
    // The reply's single verifier covers every region of the list.
    for (const IoSlice& sl : slices) note_unstable_write(f, sl, res.verifier);
  }
  // MDS-path writes move the file's change attribute; track it so our own
  // I/O does not look like someone else's at revalidation time.
  if (first.device_index == IoSlice::kMds && res.post_change != 0) {
    f.attr.change = std::max(f.attr.change, res.post_change);
  }
}

Task<uint64_t> NfsClient::commit_op(rpc::RpcAddress addr, FileHandle fh) {
  CompoundBuilder b = compound_for(fh);
  b.add(OpCode::kCommit, CommitArgs{0, 0});
  CompoundReply r(co_await call(addr, std::move(b), 0));
  expect_sequence_putfh(r);
  co_return r.expect<CommitRes>(OpCode::kCommit).verifier;
}

template <typename Attempt, typename Absorb>
Task<void> NfsClient::recover(FileState& f, IoSlice slice,
                              RecoveryPolicy policy, Attempt attempt,
                              Absorb absorb, StatusCollector& errors) {
  const bool via_ds = slice.device_index != IoSlice::kMds;
  // Known-unhealthy home device (open breaker, or a degraded range a dead
  // incarnation never received): let the surviving redundancy take the
  // slice instead of burning the retry budget.
  if (policy.absorb_up_front && via_ds && redundant(f) &&
      device_unhealthy(f, slice.device_index, slice.file_offset,
                       slice.file_offset + slice.length) &&
      co_await absorb()) {
    co_return;
  }
  Status fail = Status::kOk;
  for (uint32_t n = 0;; ++n) {
    try {
      co_await attempt(slice);
      if (via_ds) record_ds_result(slice.addr, true);
      co_return;
    } catch (const NfsError& e) {
      fail = e.status();
    }
    if (!via_ds) {
      errors.record(fail);
      co_return;
    }
    record_ds_result(slice.addr, false);
    if (n >= config_.slice_retries || breaker_open(slice.addr)) break;
    m_retries_->inc();  // same DS, next attempt
  }
  // Redundancy rung: a surviving replica, k-of-n reconstruction or the
  // degraded set covers the slice without the home DS, and without the MDS.
  if (redundant(f) && co_await absorb()) co_return;
  if (!policy.may_fall_back || !config_.mds_fallback) {
    errors.record(fail);
    co_return;
  }
  // Proxy the byte range through the MDS: the plain-NFSv4 path.
  if (policy.refetch_before_fallback) co_await refetch_layout(f);
  m_fallbacks_->inc();
  try {
    co_await attempt(mds_slice(f, slice.file_offset, slice.length));
  } catch (const NfsError& e) {
    errors.record(e.status());
  }
}

// run_read_slice and run_write_slice are not coroutines: the steps they
// hand to recover() hold by value what the call's parameters carry, so
// recover()'s frame is the only one a slice operation adds.
Task<void> NfsClient::run_read_slice(FileState& f, IoSlice slice, Payload& out,
                                     StatusCollector& errors) {
  // A degraded read that fails up front still leaves the home DS to try.
  return recover(
      f, slice, RecoveryPolicy{.absorb_up_front = true},
      [this, &f, &out](const IoSlice& s) -> Task<void> {
        out = co_await read_slice_op(f, s);
      },
      [this, &f, &out, slice] { return degraded_read(f, slice, out); },
      errors);
}

Task<void> NfsClient::run_write_slice(FileState& f, IoSlice slice,
                                      Payload piece, StatusCollector& errors,
                                      obs::TraceContext trace_parent) {
  // Surviving redundancy absorbs the write: the device's stale range joins
  // the degraded set so reads route around it.  Parity payloads are derived
  // bytes; proxying them through the MDS would overwrite file content.
  const RecoveryPolicy policy{.absorb_up_front = true,
                              .may_fall_back = !slice.parity};
  return recover(
      f, slice, policy,
      [this, &f, piece = std::move(piece),
       trace_parent](const IoSlice& s) -> Task<void> {
        const std::vector<IoSlice> one{s};
        co_await write_vector_op(f, one, piece, trace_parent);
      },
      [this, &f, slice]() -> Task<bool> {
        note_degraded_write(f, slice);
        co_return true;
      },
      errors);
}

Task<void> NfsClient::run_write_vector(FileState& f,
                                       std::vector<IoSlice> slices,
                                       Payload data, StatusCollector& errors,
                                       obs::TraceContext trace_parent) {
  if (slices.size() == 1) {
    co_return co_await run_write_slice(f, slices.front(), std::move(data),
                                       errors, trace_parent);
  }
  const bool via_ds = slices.front().device_index != IoSlice::kMds;
  try {
    co_await write_vector_op(f, slices, data, trace_parent);
    if (via_ds) record_ds_result(slices.front().addr, true);
    co_return;
  } catch (const NfsError&) {
    if (via_ds) record_ds_result(slices.front().addr, false);
  }
  // Degrade region-by-region: each slice gets the full single-range ladder
  // (same-DS retries, layout refetch, MDS fallback) and its own error slot.
  uint64_t pos = 0;
  for (const IoSlice& sl : slices) {
    Payload piece = data.slice(pos, sl.length);
    pos += sl.length;
    co_await run_write_slice(f, sl, std::move(piece), errors, trace_parent);
  }
}

Task<void> NfsClient::run_read_vector(FileState& f, std::vector<IoSlice> slices,
                                      std::vector<Payload>& out,
                                      StatusCollector& errors) {
  if (slices.size() == 1) {
    co_return co_await run_read_slice(f, slices.front(), out[0], errors);
  }
  const bool via_ds = slices.front().device_index != IoSlice::kMds;
  try {
    out = co_await read_vector_op(f, slices);
    if (via_ds) record_ds_result(slices.front().addr, true);
    co_return;
  } catch (const NfsError&) {
    if (via_ds) record_ds_result(slices.front().addr, false);
  }
  sim::WaitGroup wg(fabric_.simulation());
  for (size_t i = 0; i < slices.size(); ++i) {
    wg.spawn(run_read_slice(f, slices[i], out[i], errors));
  }
  co_await wg.wait();
}

Task<void> NfsClient::run_commit_target(FileState& f, size_t device_index,
                                        StatusCollector& errors,
                                        uint64_t* verifier_out) {
  // A target whose layout was recalled has no DS left to address: it
  // commits straight through the MDS, once.
  IoSlice target = mds_slice(f, 0, 0);
  if (device_index != IoSlice::kMds && f.layout) {
    aim_at_device(f, target, device_index);
  }
  // An MDS COMMIT flushes the whole file through the parallel FS — a
  // superset of the stripe commit that failed.  The MDS verifier never
  // matches the DS verifier recorded at WRITE time, so the caller replays
  // the retained extents — conservative but safe when the DS's fate is
  // unknown.
  co_await recover(
      f, target, RecoveryPolicy{.refetch_before_fallback = false},
      [&](const IoSlice& s) -> Task<void> {
        const uint64_t v = co_await commit_op(s.addr, s.fh);
        if (verifier_out != nullptr) *verifier_out = v;
      },
      [&]() -> Task<bool> {
        // The target is gone and its volatile bytes with it.  Move the
        // retained ranges into the degraded set — the surviving redundancy
        // holds the data — and drop the target so fsync converges.
        if (auto it = f.commit_targets.find(device_index);
            it != f.commit_targets.end()) {
          for (const auto& iv : it->second.uncommitted.intervals()) {
            f.degraded[device_index].add(iv.start, iv.end);
          }
          f.commit_targets.erase(it);
        }
        m_degraded_commits_->inc();
        flight_event(
            "degraded.commit",
            util::sformat("fileid %llu dev %zu",
                          static_cast<unsigned long long>(f.attr.fileid),
                          device_index));
        co_return true;
      },
      errors);
}

Task<Payload> NfsClient::read_slices(FileState& f, uint64_t offset,
                                     uint64_t length) {
  co_await ensure_layout_fresh(f);
  const auto slices = route(f, offset, length, /*for_write=*/false);
  std::vector<Payload> results(slices.size());
  StatusCollector errors;
  sim::WaitGroup wg(fabric_.simulation());
  for (size_t i = 0; i < slices.size(); ++i) {
    wg.spawn(run_read_slice(f, slices[i], results[i], errors));
  }
  co_await wg.wait();
  errors.throw_if_failed("READ");

  Payload assembled;
  for (auto& piece : results) assembled.append(std::move(piece));
  m_miss_bytes_->add(assembled.size());
  co_return assembled;
}

Task<void> NfsClient::write_slices(FileState& f, uint64_t offset,
                                   const Payload& data) {
  co_await ensure_layout_fresh(f);
  const auto slices = route(f, offset, data.size(), /*for_write=*/true);
  StatusCollector errors;
  sim::WaitGroup wg(fabric_.simulation());
  for (const auto& slice : slices) {
    Payload piece = data.slice(slice.file_offset - offset, slice.length);
    wg.spawn(run_write_slice(f, slice, std::move(piece), errors));
  }
  co_await wg.wait();
  errors.throw_if_failed("WRITE");
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Task<Payload> NfsClient::read(FilePtr file, uint64_t offset, uint64_t length) {
  file->last_use = ++lru_clock_;
  if (offset >= file->size || length == 0) co_return Payload{};
  const uint64_t end = std::min(file->size, offset + length);
  const uint64_t want = end - offset;

  co_await node_.cpu().execute(static_cast<sim::Duration>(
      config_.cpu_ns_per_byte * static_cast<double>(want)));

  if (!config_.data_cache) {
    Payload p = co_await read_slices(*file, offset, want);
    m_read_bytes_->add(p.size());
    // Sequential detection still applies (kernel readahead exists even for
    // O_DIRECT-less uncached mode is moot — without a cache there is nowhere
    // to put readahead data, so skip it).
    co_return p;
  }

  // Fill the gaps; wait out any overlapping in-flight fetches (readahead or
  // a concurrent reader).  A read that never issues its own fetch counts as
  // a cache hit — it was served by the cache or by readahead it piggybacked.
  bool fetched = false;
  while (true) {
    const auto gaps = file->valid.gaps(offset, end);
    if (gaps.empty()) break;
    auto latch = find_inflight_overlap(*file, gaps.front().start,
                                       gaps.front().end);
    if (latch != nullptr) {
      co_await latch->wait();
      continue;
    }
    fetched = true;
    // Fetch every missing piece of the span in one call: fetch_range walks
    // the gaps itself and, with list I/O on, folds strided misses bound for
    // the same server into vectored READs.
    co_await fetch_range(file, gaps.front().start, gaps.back().end);
  }
  if (!fetched) m_hit_bytes_->add(want);

  Payload out = file->content.load(offset, want);
  m_read_bytes_->add(out.size());

  // Sequential readahead.  The window ends on an rsize boundary, so every
  // extension after the first is a whole number of rsize-aligned chunks and
  // the wire sees rsize-sized READs, not request-sized dribbles.
  if (offset == file->expected_seq_offset && config_.readahead_window > 0) {
    const uint64_t target = std::min<uint64_t>(
        file->size,
        round_down(end + static_cast<uint64_t>(config_.readahead_window) *
                             config_.rsize,
                   config_.rsize));
    const uint64_t from = std::max(end, file->readahead_high);
    if (target > from) {
      file->readahead_high = target;
      fabric_.simulation().spawn(readahead(file, from, target));
    }
  }
  file->expected_seq_offset = end;
  co_return out;
}

Task<void> NfsClient::readahead(FilePtr file, uint64_t from, uint64_t to) {
  // The file can shrink (truncate) between scheduling and execution; clamp
  // to the server-reported size so readahead never issues a READ that is
  // guaranteed to come back empty.
  to = std::min(to, file->size);
  if (from >= to) co_return;
  try {
    const uint64_t fetched = co_await fetch_range(file, from, to);
    // Count only readaheads that really hit the wire; ranges that were
    // already cached or in flight are not fetches.
    if (fetched > 0) m_readahead_fetches_->inc();
  } catch (const NfsError&) {
    // Readahead failures are harmless; the demand read will retry and
    // surface the error.
  }
}

std::shared_ptr<sim::Latch> NfsClient::find_inflight_overlap(FileState& f,
                                                             uint64_t start,
                                                             uint64_t end) {
  auto it = f.inflight.lower_bound(start);
  if (it != f.inflight.begin()) {
    auto prev = std::prev(it);
    if (prev->second.first > start) return prev->second.second;
  }
  if (it != f.inflight.end() && it->first < end) return it->second.second;
  return nullptr;
}

Task<uint64_t> NfsClient::fetch_range(FilePtr file, uint64_t start,
                                      uint64_t end) {
  // Demand fetches are page-granular (like the Linux page cache); only the
  // readahead path asks for ranges big enough to fill rsize-sized READs.
  start = round_down(start, kPageBytes);
  end = std::min(round_up(end, kPageBytes), file->size);
  if (start >= end) co_return 0;

  struct Fetch {
    uint64_t start;
    uint64_t len;
    std::shared_ptr<sim::Latch> latch;
  };
  std::vector<Fetch> fetches;
  for (const auto& gap : file->valid.gaps(start, end)) {
    // Skip parts someone else is already fetching; our caller re-checks and
    // waits on their latch.
    uint64_t pos = gap.start;
    while (pos < gap.end) {
      uint64_t piece_end = gap.end;
      auto it = file->inflight.lower_bound(pos);
      if (it != file->inflight.begin() && std::prev(it)->second.first > pos) {
        pos = std::prev(it)->second.first;  // inside an in-flight range
        continue;
      }
      if (it != file->inflight.end() && it->first < piece_end) {
        piece_end = it->first;
      }
      if (piece_end <= pos) break;
      // Split into READs that end on rsize boundaries: with rsize equal to
      // the stripe unit, no READ straddles two data servers.
      while (pos < piece_end) {
        const uint64_t n =
            std::min(round_down(pos, config_.rsize) + config_.rsize, piece_end) -
            pos;
        auto latch = std::make_shared<sim::Latch>(fabric_.simulation());
        file->inflight.emplace(pos, std::make_pair(pos + n, latch));
        fetches.push_back(Fetch{pos, n, std::move(latch)});
        pos += n;
      }
    }
  }

  StatusCollector errors;
  uint64_t fetched = 0;

  // List I/O read batching: when the span needs several distinct fetches
  // (strided misses — a dense demand read or readahead always collapses to
  // rsize-sized pieces), route them all up front and fold the slices bound
  // for the same server into vectored READs of up to rsize total bytes.
  if (config_.listio_max_regions > 1 && fetches.size() > 1) {
    co_await ensure_layout_fresh(*file);
    struct SliceRef {
      size_t fetch_idx;
      IoSlice slice;
    };
    std::vector<SliceRef> refs;
    std::vector<uint32_t> remaining(fetches.size(), 0);
    for (size_t i = 0; i < fetches.size(); ++i) {
      for (const IoSlice& s :
           route(*file, fetches[i].start, fetches[i].len, /*for_write=*/false)) {
        refs.push_back({i, s});
        ++remaining[i];
      }
    }
    // Group per device (one filehandle per compound), then split each group
    // into region- and byte-capped batches, preserving offset order.
    std::map<size_t, std::vector<SliceRef>> groups;
    for (auto& r : refs) groups[r.slice.device_index].push_back(r);
    std::vector<std::vector<SliceRef>> batches;
    for (auto& [dev, group] : groups) {
      std::vector<SliceRef> cur;
      uint64_t bytes = 0;
      for (auto& r : group) {
        if (!cur.empty() && (cur.size() >= config_.listio_max_regions ||
                             bytes + r.slice.length > config_.rsize)) {
          batches.push_back(std::move(cur));
          cur.clear();
          bytes = 0;
        }
        cur.push_back(r);
        bytes += r.slice.length;
      }
      if (!cur.empty()) batches.push_back(std::move(cur));
    }

    sim::WaitGroup wg(fabric_.simulation());
    for (auto& batch : batches) {
      wg.spawn([](NfsClient& self, FilePtr file, std::vector<SliceRef> b,
                  StatusCollector& errors, uint64_t& fetched,
                  std::vector<uint32_t>& remaining,
                  std::vector<Fetch>& fetches) -> Task<void> {
        std::vector<IoSlice> slices;
        slices.reserve(b.size());
        for (auto& r : b) slices.push_back(r.slice);
        std::vector<Payload> out(slices.size());
        co_await self.run_read_vector(*file, std::move(slices), out, errors);
        uint64_t got = 0;
        for (size_t i = 0; i < b.size(); ++i) {
          const IoSlice& s = b[i].slice;
          if (out[i].size() > 0) {
            got += out[i].size();
            fetched += out[i].size();
            file->content.store(s.file_offset, out[i]);
            self.add_valid(*file, s.file_offset, s.file_offset + out[i].size());
          }
          if (--remaining[b[i].fetch_idx] == 0) {
            Fetch& f = fetches[b[i].fetch_idx];
            file->inflight.erase(f.start);
            f.latch->set();
          }
        }
        self.m_miss_bytes_->add(got);
      }(*this, file, std::move(batch), errors, fetched, remaining, fetches));
    }
    co_await wg.wait();
    evict_clean_if_needed();
    errors.throw_if_failed("fetch_range");
    co_return fetched;
  }

  sim::WaitGroup wg(fabric_.simulation());
  for (auto& fetch : fetches) {
    wg.spawn([](NfsClient& self, FilePtr file, Fetch f, StatusCollector& errors,
                uint64_t& fetched) -> Task<void> {
      try {
        Payload data = co_await self.read_slices(*file, f.start, f.len);
        fetched += data.size();
        file->content.store(f.start, data);
        self.add_valid(*file, f.start, f.start + data.size());
      } catch (const NfsError& e) {
        errors.record(e.status());
      }
      file->inflight.erase(f.start);
      f.latch->set();
    }(*this, file, std::move(fetch), errors, fetched));
  }
  co_await wg.wait();
  evict_clean_if_needed();
  errors.throw_if_failed("fetch_range");
  co_return fetched;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Task<void> NfsClient::write(FilePtr file, uint64_t offset, Payload data) {
  file->last_use = ++lru_clock_;
  const uint64_t len = data.size();
  if (len == 0) co_return;
  const uint64_t end = offset + len;

  co_await node_.cpu().execute(static_cast<sim::Duration>(
      config_.cpu_ns_per_byte * static_cast<double>(len)));

  const bool ec = file->layout &&
                  file->layout->aggregation == AggregationType::kErasureCoded;
  if (!config_.data_cache) {
    if (ec) {
      // Parity is computed over whole stripe groups from cached content;
      // a write-through client has no group to encode from.
      throw NfsError(Status::kInval,
                     "erasure-coded layouts require the data cache");
    }
    co_await write_slices(*file, offset, data);
    file->size = std::max(file->size, end);
    file->size_dirty = true;
    m_write_bytes_->add(len);
    co_return;
  }

  file->content.store(offset, data);
  add_valid(*file, offset, end);
  add_dirty(*file, offset, end);
  file->size = std::max(file->size, end);
  file->size_dirty = true;
  m_write_bytes_->add(len);

  // Write-back: push out every fully-dirty wsize chunk asynchronously (a
  // bounded pipeline of in-flight WRITEs, like the kernel flusher).
  // Erasure-coded files skip the eager chunk flush: flushing partial
  // groups would recompute and rewrite parity once per chunk instead of
  // once per group at fsync.
  if (!ec) co_await flush_dirty(file, /*only_full_chunks=*/true, /*wait=*/false);

  if (dirty_bytes_ > config_.dirty_limit_bytes) {
    // Over the dirty limit: the writer blocks until its data is on the wire
    // (memory-pressure throttling).
    co_await flush_dirty(file, /*only_full_chunks=*/false, /*wait=*/true);
  }
  evict_clean_if_needed();
}

// ---------------------------------------------------------------------------
// Per-data-server write-back scheduler
// ---------------------------------------------------------------------------

NfsClient::DsSched& NfsClient::sched_for(const rpc::RpcAddress& addr) {
  auto it = scheds_.find(addr);
  if (it != scheds_.end()) return it->second;
  DsSched sched;
  sched.window = std::make_unique<sim::Semaphore>(
      fabric_.simulation(), std::max<uint32_t>(1, config_.wb_window_per_ds));
  sched.label =
      (addr == mds_) ? "mds" : "ds" + std::to_string(addr.node_id);
  obs::MetricsRegistry& reg = fabric_.metrics();
  const std::string& n = node_.name();
  sched.m_queue_depth =
      &reg.gauge(n, "client.sched", "queue_depth_" + sched.label);
  sched.m_queue_peak =
      &reg.gauge(n, "client.sched", "queue_depth_peak_" + sched.label);
  sched.m_window_inflight =
      &reg.gauge(n, "client.sched", "window_inflight_" + sched.label);
  return scheds_.emplace(addr, std::move(sched)).first->second;
}

void NfsClient::note_sched_queue(DsSched& sched) {
  uint64_t depth = 0;
  for (const auto& [ino, q] : sched.queues) depth += q.size();
  sched.m_queue_depth->set(static_cast<double>(depth));
  if (static_cast<double>(depth) > sched.queue_peak) {
    sched.queue_peak = static_cast<double>(depth);
    sched.m_queue_peak->set(sched.queue_peak);
  }
}

void NfsClient::enqueue_writeback(const FilePtr& file, IoSlice slice,
                                  Payload data) {
  DsSched& sched = sched_for(slice.addr);
  auto& q = sched.queues[file->attr.fileid];
  const uint64_t start = slice.target_offset;
  const uint64_t end = start + slice.length;

  // Newest data wins: trim every queued extent the new bytes overlap down
  // to its surviving head/tail and re-push those.  The queue stays disjoint,
  // so dispatch order can never resurrect stale bytes.
  while (auto hit = q.pop_overlap(start, end)) {
    const uint64_t old_start = hit->start;
    const uint64_t old_end = hit->start + hit->length;
    if (old_start < start) {
      const uint64_t head = start - old_start;
      q.push(old_start, head, hit->value.sub(0, head));
    }
    if (old_end > end) {
      const uint64_t tail = old_end - end;
      q.push(end, tail, hit->value.sub(end - old_start, tail));
    }
  }

  QueuedWrite item;
  item.file = file;
  item.slice = slice;
  item.data = std::move(data);
  item.enqueued_at = fabric_.simulation().now();
  q.push(start, slice.length, std::move(item));
  note_sched_queue(sched);

  // The worker is scheduled, not run inline, so every extent of this flush
  // is queued before the first dispatch — that's what makes runs mergeable.
  file->wb_inflight->spawn(wb_worker(file, slice.addr));
}

Task<void> NfsClient::wb_worker(FilePtr file, rpc::RpcAddress addr) {
  DsSched& sched = sched_for(addr);  // stable: scheds_ entries never erased
  const uint64_t ino = file->attr.fileid;
  for (;;) {
    {
      auto qit = sched.queues.find(ino);
      if (qit == sched.queues.end() || qit->second.empty()) co_return;
    }
    co_await sched.window->acquire();
    // Re-check: a sibling worker may have drained the queue while this one
    // waited for a window slot.
    auto qit = sched.queues.find(ino);
    if (qit == sched.queues.end() || qit->second.empty()) {
      if (qit != sched.queues.end()) sched.queues.erase(qit);
      sched.window->release();
      co_return;
    }

    const auto merge_ok = [this](const QueuedWrite& prev,
                                 const QueuedWrite& next) {
      // Adjacent in the target's address space (ExtentQueue's invariant)
      // AND contiguous in file space through the same route: the merged
      // WRITE must be one valid slice on both axes.
      return config_.coalesce_writes &&
             next.slice.device_index == prev.slice.device_index &&
             next.slice.file_offset ==
                 prev.slice.file_offset + prev.slice.length;
    };
    const auto splitter = [](QueuedWrite& v, uint64_t head_len) {
      QueuedWrite head = v.sub(0, head_len);
      v = v.sub(head_len, v.slice.length - head_len);
      return head;
    };
    WriteRun run = qit->second.pop_run(config_.wsize, merge_ok, splitter);
    if (qit->second.empty()) sched.queues.erase(qit);
    note_sched_queue(sched);
    if (run.empty()) {
      sched.window->release();
      continue;
    }
    QueuedWrite first = fold_run(run);
    const IoSlice s = first.slice;
    sim::Time first_enq = first.enqueued_at;

    // List I/O: fold further runs from the same queue — mutually
    // non-adjacent by construction, or pop_run would have merged them —
    // into one vectored WRITEV of up to wsize total bytes.  Contiguity is
    // no longer the price of batching strided extents.
    std::vector<IoSlice> slices{s};
    std::vector<Payload> payloads;
    payloads.push_back(std::move(first.data));
    uint64_t total = s.length;
    if (config_.coalesce_writes && config_.listio_max_regions > 1) {
      while (slices.size() < config_.listio_max_regions &&
             total < config_.wsize) {
        auto more = sched.queues.find(ino);
        if (more == sched.queues.end() || more->second.empty()) break;
        WriteRun run2 =
            more->second.pop_run(config_.wsize - total, merge_ok, splitter);
        if (more->second.empty()) sched.queues.erase(more);
        if (run2.empty()) break;
        QueuedWrite next = fold_run(run2);
        if (next.slice.device_index != s.device_index) {
          // Same DS address, different route (different filehandle): a
          // compound holds one PUTFH, so requeue for the next dispatch.
          const uint64_t at = next.slice.target_offset;
          const uint64_t len = next.slice.length;
          sched.queues[ino].push(at, len, std::move(next));
          break;
        }
        first_enq = std::min(first_enq, next.enqueued_at);
        slices.push_back(next.slice);
        payloads.push_back(std::move(next.data));
        total += next.slice.length;
      }
      note_sched_queue(sched);
    }
    if (slices.size() > 1) {
      m_vectored_writes_->inc();
      m_vectored_regions_->add(slices.size());
      m_vectored_bytes_->add(total);
    }

    ++sched.inflight;
    sched.m_window_inflight->set(static_cast<double>(sched.inflight));

    // NIC admission pacing: hold a transmit token for this WRITE's estimated
    // serialization time, then hand it on while the RPC is still in flight.
    // Dispatches across all per-DS pipelines thus stagger at wire rate —
    // keeping server disk work overlapped with later transmissions instead
    // of bunched after a convoy of time-sliced transfers — and a slow or
    // dead DS holds the gate for one wire-time at most.
    co_await tx_gate_->acquire();
    {
      sim::Simulation& sim = fabric_.simulation();
      const double nic_bps = node_.nic().params().bytes_per_sec;
      const sim::Duration wire = sim::duration_for_bytes(total, nic_bps);
      sim.spawn([](sim::Simulation& sim, sim::Semaphore& gate,
                   sim::Duration d) -> Task<void> {
        co_await sim.delay(d);
        gate.release();
      }(sim, *tx_gate_, wire));
    }

    // Root an internal span over queue-entry -> WRITE-done so analyze_trace
    // can attribute client-queue time per DS; the WRITE RPC below becomes
    // its child hop.
    const obs::TraceContext ctx = fabric_.tracer().begin({});
    const sim::Time dispatched_at = fabric_.simulation().now();

    StatusCollector errors;
    // `payloads` keeps each region's bytes for re-dirtying if the WRITE
    // fails; the wire payload is their scatter-gather concatenation.
    Payload data;
    for (const Payload& p : payloads) data.append(p);
    co_await run_write_vector(*file, slices, std::move(data), errors, ctx);
    if (errors.failed()) {
      file->wb_error = true;
      // A failed write-back keeps its pages dirty (kernel semantics): the
      // bytes were claimed from the dirty set at flush time, so put them
      // back — except where a newer write already re-dirtied the range.
      for (size_t i = 0; i < slices.size(); ++i) {
        if (slices[i].parity) {
          // Parity payloads are derived, never file bytes: restoring them
          // into the cache would corrupt content.  Re-dirty the stripe
          // group they cover so the next flush recomputes data + parity.
          uint64_t span = slices[i].length;
          if (file->layout) {
            if (const auto geo = EcGeometry::from(*file->layout)) {
              span = slices[i].length * geo->k;
            }
          }
          const uint64_t gs = slices[i].file_offset;
          const uint64_t ge = std::min(file->size, gs + span);
          if (ge > gs) add_dirty(*file, gs, ge);
          continue;
        }
        const uint64_t ws = slices[i].file_offset;
        const uint64_t we = ws + slices[i].length;
        for (const auto& gap : file->dirty.gaps(ws, we)) {
          file->content.store(gap.start,
                              payloads[i].slice(gap.start - ws, gap.length()));
          add_valid(*file, gap.start, gap.end);
          add_dirty(*file, gap.start, gap.end);
        }
      }
    }
    m_sched_writes_->inc();
    m_sched_bytes_->add(total);

    obs::Span span;
    span.trace_id = ctx.trace_id;
    span.span_id = ctx.span_id;
    span.kind = obs::SpanKind::kInternal;
    span.name = "wb.sched/" + sched.label;
    span.node = node_.name();
    span.start = first_enq;
    span.end = fabric_.simulation().now();
    span.queue_wait = dispatched_at - first_enq;
    span.bytes_out = total;
    span.error = errors.failed();
    fabric_.tracer().record(std::move(span));

    if (!errors.failed() && config_.wb_commit_backlog != 0) {
      uint64_t& backlog = sched.uncommitted[ino];
      backlog += total;
      if (backlog >= config_.wb_commit_backlog &&
          !sched.commit_inflight.contains(ino)) {
        // Enough unstable bytes parked at this DS: start its disk flush
        // now, under the remaining transmissions, instead of letting it
        // all pile up behind fsync's final COMMIT.
        file->wb_inflight->spawn(
            wb_background_commit(file, addr, s.device_index));
      }
    }

    --sched.inflight;
    sched.m_window_inflight->set(static_cast<double>(sched.inflight));
    sched.window->release();
  }
}

NfsClient::QueuedWrite NfsClient::QueuedWrite::sub(uint64_t skip,
                                                   uint64_t len) const {
  QueuedWrite piece = *this;
  piece.slice.target_offset += skip;
  piece.slice.file_offset += skip;
  piece.slice.length = len;
  piece.data = data.slice(skip, len);
  return piece;
}

NfsClient::QueuedWrite NfsClient::fold_run(WriteRun& run) {
  QueuedWrite out = std::move(run.front().value);
  for (size_t i = 1; i < run.size(); ++i) {
    QueuedWrite& qw = run[i].value;
    out.slice.length += qw.slice.length;
    out.data.append(std::move(qw.data));
    out.enqueued_at = std::min(out.enqueued_at, qw.enqueued_at);
    m_sched_coalesced_extents_->inc();
    m_sched_coalesced_bytes_->add(qw.slice.length);
  }
  return out;
}

Task<void> NfsClient::wb_background_commit(FilePtr file, rpc::RpcAddress addr,
                                           size_t device_index) {
  DsSched& sched = sched_for(addr);
  const uint64_t ino = file->attr.fileid;
  sched.commit_inflight.insert(ino);
  // Bytes completing while this COMMIT is in flight are not covered by it;
  // they accumulate toward the next trigger.
  sched.uncommitted[ino] = 0;
  StatusCollector errors;  // best-effort: fsync's COMMIT retries stragglers
  co_await run_commit_target(*file, device_index, errors);
  sched.commit_inflight.erase(ino);
}

Task<void> NfsClient::flush_dirty(FilePtr file, bool only_full_chunks,
                                  bool wait_completion) {
  co_await ensure_layout_fresh(*file);
  if (!file->wb_inflight) {
    file->wb_inflight = std::make_unique<sim::WaitGroup>(fabric_.simulation());
  }
  if (file->layout &&
      file->layout->aggregation == AggregationType::kErasureCoded) {
    // Group-granular flush: data and parity leave together.
    co_await flush_dirty_ec(file);
  } else {
    const uint64_t chunk = config_.wsize;
    std::vector<util::IntervalSet::Interval> ranges;
    for (const auto& iv : file->dirty.intervals()) {
      if (only_full_chunks) {
        const uint64_t cs = round_up(iv.start, chunk);
        const uint64_t ce = round_down(iv.end, chunk);
        if (ce > cs) ranges.push_back({cs, ce});
      } else {
        ranges.push_back(iv);
      }
    }
    // Claim the ranges before suspending so concurrent flushes don't repeat
    // the work, then route each range and queue the pieces on their data
    // servers' pipelines.  Content is loaded at queueing time: once
    // claimed, the bytes look clean and are fair game for eviction.
    for (const auto& r : ranges) remove_dirty(*file, r.start, r.end);
    for (const auto& r : ranges) {
      enqueue_range(file, r.start, r.end, /*for_write=*/true);
    }
  }
  if (wait_completion) co_await await_writeback(*file);
}

void NfsClient::enqueue_range(const FilePtr& file, uint64_t start,
                              uint64_t end, bool for_write) {
  for (const IoSlice& s : route(*file, start, end - start, for_write)) {
    for (uint64_t pos = 0; pos < s.length; pos += config_.wsize) {
      IoSlice piece = s;
      piece.target_offset += pos;
      piece.file_offset += pos;
      piece.length = std::min<uint64_t>(config_.wsize, s.length - pos);
      Payload data = file->content.load(piece.file_offset, piece.length);
      enqueue_writeback(file, piece, std::move(data));
    }
  }
}

Task<void> NfsClient::await_writeback(FileState& f) {
  co_await f.wb_inflight->wait();
  if (f.wb_error) {
    f.wb_error = false;
    throw NfsError(Status::kIo, "flush");
  }
}

Task<void> NfsClient::flush_dirty_ec(FilePtr file) {
  FileState& f = *file;
  const auto geo = f.layout ? EcGeometry::from(*f.layout) : std::nullopt;
  if (!geo) throw NfsError(Status::kInval, "malformed erasure-coded layout");
  const uint64_t gb = geo->group_bytes();
  const uint64_t su = geo->su;

  // Snapshot the touched stripe groups; groups dirtied while this flush
  // runs belong to the next one.
  std::vector<uint64_t> group_starts;
  for (const auto& iv : f.dirty.intervals()) {
    for (uint64_t gs = round_down(iv.start, gb); gs < iv.end; gs += gb) {
      if (group_starts.empty() || group_starts.back() != gs) {
        group_starts.push_back(gs);
      }
    }
  }

  util::ReedSolomon rs(static_cast<uint32_t>(geo->k),
                       static_cast<uint32_t>(geo->m));
  for (const uint64_t gs : group_starts) {
    const uint64_t ge = gs + gb;
    // Read-modify-write: parity covers the whole group, so resident-but-
    // invalid bytes below EOF must be fetched before encoding.  This can
    // suspend; the group's bytes stay dirty — and thus pinned — until the
    // synchronous claim below.
    if (std::min<uint64_t>(ge, f.size) > gs &&
        !f.valid.covers(gs, std::min<uint64_t>(ge, f.size))) {
      co_await fetch_range(file, gs, std::min<uint64_t>(ge, f.size));
    }
    const uint64_t data_end = std::min<uint64_t>(ge, f.size);
    const auto todo = f.dirty.intersection(gs, ge);
    if (todo.empty()) continue;  // a concurrent flush claimed this group
    remove_dirty(f, gs, ge);

    // Encode the group's parity from the zero-padded cached shards.  All of
    // [gs, data_end) is valid here, and no suspension separates the claim
    // above from the loads below.  Virtual content (benchmarks) yields
    // virtual parity: sizes are billed, bytes never materialize.
    std::vector<Payload> parity;
    if (data_end > gs && f.content.tainted(gs, data_end)) {
      for (uint64_t j = 0; j < geo->m; ++j) {
        parity.push_back(Payload::virtual_bytes(su));
      }
    } else {
      std::vector<std::vector<std::byte>> shards(static_cast<size_t>(geo->k));
      for (uint64_t p = 0; p < geo->k; ++p) {
        auto& shard = shards[static_cast<size_t>(p)];
        shard.assign(static_cast<size_t>(su), std::byte{0});
        const uint64_t ss = gs + p * su;
        const uint64_t se = std::min(ss + su, data_end);
        if (se > ss) {
          Payload chunk = f.content.load(ss, se - ss);
          const auto span = chunk.data();
          std::copy(span.begin(), span.end(), shard.begin());
        }
      }
      std::vector<std::vector<std::byte>> pbytes;
      rs.encode(shards, &pbytes);
      for (auto& pb : pbytes) {
        parity.push_back(Payload::inline_bytes(std::move(pb)));
      }
    }

    // Data: exactly the claimed dirty ranges, wsize-chunked through the
    // data mapping (the EC driver's map_read is the data half of its
    // map_write).
    for (const auto& div : todo) {
      enqueue_range(file, div.start, div.end, /*for_write=*/false);
    }
    // Parity: the EC driver's parity segments for this group, one whole-su
    // block per parity device in device order (route never diverts a
    // write slice of a redundant layout).
    size_t j = 0;
    for (const IoSlice& ps : route(f, gs, gb, /*for_write=*/true)) {
      if (ps.parity) enqueue_writeback(file, ps, std::move(parity[j++]));
    }
  }
}

Task<void> NfsClient::commit_unstable(FileState& f) {
  if (f.unstable_targets.empty()) co_return;
  co_await ensure_layout_fresh(f);
  const std::set<size_t> targets = std::exchange(f.unstable_targets, {});
  // Snapshot what each COMMIT is about to cover: ranges written during the
  // COMMIT's flight belong to the next one.
  std::map<size_t, util::IntervalSet> covered;
  std::map<size_t, uint64_t> verifiers;
  for (size_t idx : targets) {
    if (auto it = f.commit_targets.find(idx); it != f.commit_targets.end()) {
      covered[idx] = it->second.uncommitted;
    }
    verifiers[idx] = 0;
  }
  StatusCollector errors;
  sim::WaitGroup wg(fabric_.simulation());
  for (size_t idx : targets) {
    wg.spawn(run_commit_target(f, idx, errors, &verifiers[idx]));
  }
  co_await wg.wait();
  if (errors.failed()) {
    // Put the targets back: a later fsync must re-COMMIT them, or their
    // retained extents would never be retired (or replayed).
    for (size_t idx : targets) f.unstable_targets.insert(idx);
    errors.throw_if_failed("COMMIT");
  }
  for (size_t idx : targets) {
    auto it = f.commit_targets.find(idx);
    if (it == f.commit_targets.end()) continue;
    FileState::TargetCommitState& t = it->second;
    if (t.verifier_known && verifiers[idx] != t.verifier) {
      // The server restarted (or the COMMIT degraded to another server):
      // the reply's verifier does not vouch for our WRITEs.  Replay.
      redirty_lost(f, idx);
      f.commit_targets.erase(it);
      continue;
    }
    // Matching verifier: the covered ranges are durable.
    for (const auto& iv : covered[idx].intervals()) {
      t.uncommitted.subtract(iv.start, iv.end);
    }
    if (t.uncommitted.empty()) f.commit_targets.erase(it);
  }
  // Everything written so far is now stable; reset the background-COMMIT
  // backlog so the next write burst starts counting from zero.
  for (auto& [addr, sched] : scheds_) sched.uncommitted.erase(f.attr.fileid);
}

Task<void> NfsClient::fsync(FilePtr file) {
  // Flush + COMMIT until quiescent: a COMMIT that discovers a restarted
  // server re-dirties the retained extents, which the next round re-writes
  // (against the revived incarnation) and re-commits.  One round suffices
  // per restart; the bound only guards against a server that crash-loops
  // faster than we can replay.
  constexpr int kMaxRounds = 8;
  for (int round = 0;; ++round) {
    bool transient_error = false;
    try {
      co_await flush_dirty(file, /*only_full_chunks=*/false, /*wait=*/true);
      co_await commit_unstable(*file);
    } catch (const NfsError&) {
      // Transient write-back/COMMIT failure (a server mid-restart): the
      // failed pages were re-dirtied, the un-committed targets re-queued.
      // Back off one deadline and re-drive; only a persistent outage
      // (every round failing) surfaces to the caller.
      if (round >= kMaxRounds) throw;
      transient_error = true;
    }
    if (transient_error && config_.ds_timeout > 0) {
      co_await fabric_.simulation().delay(config_.ds_timeout);
    }
    if (file->dirty.empty() && file->unstable_targets.empty()) break;
    if (round == kMaxRounds) {
      throw NfsError(Status::kIo, "fsync: replay did not converge");
    }
  }
  if (file->size_dirty && file->layout) {
    CompoundBuilder b = compound_for(file->fh);
    b.add(OpCode::kLayoutCommit, LayoutCommitArgs{file->size, true});
    CompoundReply r(co_await call(mds_, std::move(b), 0));
    expect_sequence_putfh(r);
    const auto lc = r.expect<LayoutCommitRes>(OpCode::kLayoutCommit);
    if (lc.post_change != 0) {
      file->attr.change = std::max(file->attr.change, lc.post_change);
    }
  }
  file->size_dirty = false;
}

// ---------------------------------------------------------------------------
// Cache accounting
// ---------------------------------------------------------------------------

void NfsClient::add_valid(FileState& f, uint64_t start, uint64_t end) {
  const uint64_t before = f.valid.total_length();
  f.valid.add(start, end);
  account_cached(static_cast<int64_t>(f.valid.total_length() - before));
}

void NfsClient::add_dirty(FileState& f, uint64_t start, uint64_t end) {
  const uint64_t before = f.dirty.total_length();
  f.dirty.add(start, end);
  dirty_bytes_ += f.dirty.total_length() - before;
}

void NfsClient::remove_dirty(FileState& f, uint64_t start, uint64_t end) {
  const uint64_t before = f.dirty.total_length();
  f.dirty.subtract(start, end);
  dirty_bytes_ -= before - f.dirty.total_length();
}

void NfsClient::account_cached(int64_t delta) {
  if (delta >= 0) {
    cached_bytes_ += static_cast<uint64_t>(delta);
  } else {
    cached_bytes_ -= std::min<uint64_t>(cached_bytes_,
                                        static_cast<uint64_t>(-delta));
  }
}

uint64_t NfsClient::drop_clean(FileState& st) {
  // Pinned ranges survive: dropping a retained range would discard the
  // only copy a restart replay needs.
  const util::IntervalSet pin = st.pinned();
  uint64_t dropped = 0;
  for (const auto& iv : st.valid.intervals()) {
    for (const auto& clean : pin.gaps(iv.start, iv.end)) {
      st.content.drop(clean.start, clean.end);
      dropped += clean.length();
    }
  }
  st.valid = pin;
  st.readahead_high = 0;
  return dropped;
}

void NfsClient::evict_clean_if_needed() {
  while (cached_bytes_ > config_.cache_limit_bytes) {
    // Victim: least-recently-used file with evictable bytes.  Pinned ranges
    // (dirty + retained uncommitted writes) are not evictable.
    FileState* victim = nullptr;
    for (auto& [ino, state] : files_) {
      const uint64_t clean =
          state->valid.total_length() - state->pinned().total_length();
      if (clean == 0) continue;
      if (victim == nullptr || state->last_use < victim->last_use) {
        victim = state.get();
      }
    }
    if (victim == nullptr) break;  // everything is pinned: nothing to evict
    const uint64_t evicted = drop_clean(*victim);
    account_cached(-static_cast<int64_t>(evicted));
    if (evicted == 0) break;
  }
}

}  // namespace dpnfs::nfs
