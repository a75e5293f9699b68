#include "nfs/server.hpp"

#include "sim/fault.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace dpnfs::nfs {

using rpc::XdrDecoder;
using rpc::XdrEncoder;
using sim::Task;

NfsServer::NfsServer(rpc::RpcFabric& fabric, sim::Node& node, uint16_t port,
                     Backend& backend, LayoutSource* layouts,
                     ServerConfig config)
    : NfsServer(fabric, node, port, backend, &backend, layouts, config) {}

std::unique_ptr<NfsServer> NfsServer::data_server(rpc::RpcFabric& fabric,
                                                  sim::Node& node,
                                                  uint16_t port,
                                                  DataBackend& data,
                                                  ServerConfig config) {
  return std::unique_ptr<NfsServer>(
      new NfsServer(fabric, node, port, data, nullptr, nullptr, config));
}

NfsServer::NfsServer(rpc::RpcFabric& fabric, sim::Node& node, uint16_t port,
                     DataBackend& data, Backend* names, LayoutSource* layouts,
                     ServerConfig config)
    : fabric_(fabric),
      node_(node),
      port_(port),
      data_(data),
      names_(names),
      layouts_(layouts),
      config_(config) {
  obs::MetricsRegistry& reg = fabric.metrics();
  const std::string& n = node.name();
  m_compounds_ = &reg.counter(n, "nfs.server", "compounds");
  m_read_bytes_ = &reg.counter(n, "nfs.server", "read_bytes");
  m_write_bytes_ = &reg.counter(n, "nfs.server", "write_bytes");
  m_layouts_recalled_ = &reg.counter(n, "nfs.server", "layout_recalls");
  m_delegation_recalls_ = &reg.counter(n, "nfs.server", "delegation_recalls");
  rpc_server_ = std::make_unique<rpc::RpcServer>(
      fabric, node, port, config.worker_threads,
      [this](const rpc::CallContext& ctx, XdrDecoder& args,
             XdrEncoder& results) -> Task<void> {
        return serve(ctx, args, results);
      });
}

uint64_t NfsServer::current_instance(sim::Time now) const {
  const sim::FaultInjector* faults = fabric_.network().faults();
  return faults != nullptr ? faults->boot_instance(node_.id(), port_, now) : 1;
}

uint64_t NfsServer::current_verifier(sim::Time now) const {
  const sim::FaultInjector* faults = fabric_.network().faults();
  if (faults != nullptr) return faults->boot_verifier(node_.id(), port_, now);
  // Fault-free runs: any stable nonzero cookie will do.
  const uint64_t x =
      0x9E3779B97F4A7C15ull ^ ((uint64_t{node_.id()} << 16) | port_);
  return x == 0 ? 1 : x;
}

void NfsServer::check_restart(sim::Time now) {
  const uint64_t instance = current_instance(now);
  if (instance == boot_instance_) return;
  const bool first_sight = boot_instance_ == 0;
  boot_instance_ = instance;
  boot_verifier_ = current_verifier(now);
  if (first_sight) return;  // initial adoption, nothing was lost
  // The previous incarnation's volatile state died with it: sessions, open
  // state, layout and delegation bookkeeping, and the backend's unflushed
  // write-behind data.  Clients find out through NFS4ERR_BADSESSION /
  // NFS4ERR_GRACE and through the changed write verifier.
  sessions_.clear();
  backchannels_.clear();
  layout_holders_.clear();
  delegation_holders_.clear();
  write_opens_.clear();
  open_states_.clear();
  data_.on_server_restart();
  if (config_.grace_period > 0) grace_until_ = now + config_.grace_period;
  ++restarts_;
  util::logf(util::LogLevel::kInfo, "nfs.server", now,
             "%s:%u restarted (instance %llu, verifier %016llx)",
             node_.name().c_str(), port_,
             static_cast<unsigned long long>(instance),
             static_cast<unsigned long long>(boot_verifier_));
  obs::FlightRecorder& flight = fabric_.flight();
  flight.record(now, node_.name(), "nfs.server", "restart",
                util::sformat("port %u instance %llu verifier %016llx", port_,
                              static_cast<unsigned long long>(instance),
                              static_cast<unsigned long long>(boot_verifier_)));
  if (config_.grace_period > 0) {
    flight.record(now, node_.name(), "nfs.server", "grace.enter",
                  util::sformat("port %u until %lld ns", port_,
                                static_cast<long long>(grace_until_)));
    grace_logged_ = false;
  }
}

Task<void> NfsServer::charge_cpu(uint64_t data_bytes) {
  const auto work =
      config_.cpu_per_op +
      static_cast<sim::Duration>(config_.cpu_ns_per_byte *
                                 static_cast<double>(data_bytes));
  co_await node_.cpu().execute(work);
}

Task<void> NfsServer::send_recalls(FileHandle fh, std::set<uint64_t> holders,
                                   uint32_t proc) {
  if (!cb_client_) {
    cb_client_ = std::make_unique<rpc::RpcClient>(fabric_, node_,
                                                  node_.name() + "-cb@SIM");
  }
  // Recall every holder concurrently; each CB reply implies the client has
  // flushed (if needed) and dropped the recalled state — a compressed
  // CB_*RECALL + *RETURN exchange; see DESIGN.md.
  sim::WaitGroup wg(fabric_.simulation());
  for (uint64_t session : holders) {
    auto addr_it = backchannels_.find(session);
    if (addr_it == backchannels_.end()) continue;
    wg.spawn([](NfsServer& self, rpc::RpcAddress addr, FileHandle fh,
                uint32_t proc) -> Task<void> {
      XdrEncoder args;
      fh.encode(args);
      auto reply = co_await self.cb_client_->call(addr, rpc::Program::kNfs, 4,
                                                  proc, std::move(args));
      if (reply.status != rpc::ReplyStatus::kAccepted) {
        util::logf(util::LogLevel::kWarn, "nfs.server",
                   self.fabric_.simulation().now(),
                   "callback recall rejected by client");
      }
    }(*this, addr_it->second, fh, proc));
  }
  co_await wg.wait();
}

Task<void> NfsServer::recall_layouts(FileHandle fh) {
  auto it = layout_holders_.find(fh.id);
  if (it == layout_holders_.end()) co_return;
  std::set<uint64_t> holders = std::move(it->second);
  layout_holders_.erase(it);
  m_layouts_recalled_->add(holders.size());
  co_await send_recalls(fh, std::move(holders), kProcCbLayoutRecall);
}

Task<void> NfsServer::recall_delegations(FileHandle fh, uint64_t keep_session) {
  auto it = delegation_holders_.find(fh.id);
  if (it == delegation_holders_.end()) co_return;
  std::set<uint64_t> holders;
  for (uint64_t s : it->second) {
    if (s != keep_session) holders.insert(s);
  }
  if (holders.empty()) co_return;
  if (keep_session != 0 && it->second.contains(keep_session)) {
    it->second = {keep_session};
  } else {
    delegation_holders_.erase(it);
  }
  m_delegation_recalls_->add(holders.size());
  co_await send_recalls(fh, std::move(holders), kProcCbRecallDelegation);
}

bool NfsServer::stateid_ok(const Stateid& sid) const {
  if (sid == kAnonymousStateid) return true;
  if (sid == kDataServerStateid) return true;  // pNFS data-path access
  return open_states_.contains(sid.id);
}

Task<void> NfsServer::serve(const rpc::CallContext& ctx, XdrDecoder& args,
                            XdrEncoder& results) {
  m_compounds_->inc();
  check_restart(fabric_.simulation().now());
  if (!grace_logged_ && !in_grace(fabric_.simulation().now())) {
    grace_logged_ = true;
    fabric_.flight().record(
        fabric_.simulation().now(), node_.name(), "nfs.server", "grace.exit",
        util::sformat("port %u instance %llu", unsigned{port_},
                      static_cast<unsigned long long>(boot_instance_)));
  }
  const uint32_t op_count = args.get_u32();
  if (op_count > 64) throw rpc::XdrError("compound too long");

  // Result layout: u32 count (back-patched), then per-op results.
  const size_t count_pos = results.encoded_size();
  results.put_u32(0);

  // Credential check (RPCSEC_GSS stand-in): reject the whole compound.
  if (!config_.required_principal_suffix.empty() && op_count > 0) {
    const std::string& who = ctx.header.principal;
    const std::string& suffix = config_.required_principal_suffix;
    const bool ok = who.size() >= suffix.size() &&
                    who.compare(who.size() - suffix.size(), suffix.size(),
                                suffix) == 0;
    if (!ok) {
      const auto op = static_cast<OpCode>(args.get_u32());
      OpResultHeader{op, Status::kPerm}.encode(results);
      results.patch_u32(count_pos, 1);
      util::logf(util::LogLevel::kWarn, "nfs.server",
                 fabric_.simulation().now(), "rejected principal '%s'",
                 who.c_str());
      co_return;
    }
  }

  uint32_t executed = 0;
  FileHandle current_fh{};
  FileHandle saved_fh{};
  uint64_t session = 0;
  for (uint32_t i = 0; i < op_count; ++i) {
    const auto op = static_cast<OpCode>(args.get_u32());
    const size_t header_pos = results.encoded_size();
    OpResultHeader{op, Status::kOk}.encode(results);
    const Status st =
        co_await dispatch(op, ctx, args, results, current_fh, saved_fh, session);
    ++executed;
    if (st != Status::kOk) {
      // Re-patch the status; any partial result body was written before the
      // failure was known, so ops must encode results only on success.
      results.patch_u32(header_pos + 4, static_cast<uint32_t>(st));
      util::logf(util::LogLevel::kDebug, "nfs.server",
                 fabric_.simulation().now(), "%s -> %s on %s",
                 opcode_name(op), status_name(st), node_.name().c_str());
      break;
    }
  }
  results.patch_u32(count_pos, executed);
}

Task<Status> NfsServer::dispatch(OpCode op, const rpc::CallContext& ctx,
                                 XdrDecoder& args, XdrEncoder& results,
                                 FileHandle& current_fh, FileHandle& saved_fh,
                                 uint64_t& session) {
  // Data servers accept only the pNFS data path: READ/WRITE/COMMIT plus
  // session management and filehandle ops (paper §3.4).  Past this filter,
  // every op that reaches the namespace runs on a server that has one.
  if (names_ == nullptr) {
    switch (op) {
      case OpCode::kSequence:
      case OpCode::kExchangeId:
      case OpCode::kCreateSession:
      case OpCode::kPutFh:
      case OpCode::kRead:
      case OpCode::kWrite:
      case OpCode::kReadv:
      case OpCode::kWritev:
      case OpCode::kCommit:
        break;
      default:
        co_return Status::kNotSupp;
    }
  }

  switch (op) {
    case OpCode::kExchangeId: {
      (void)ExchangeIdArgs::decode(args);
      co_await charge_cpu(0);
      ExchangeIdRes{next_client_id_++}.encode(results);
      co_return Status::kOk;
    }
    case OpCode::kCreateSession: {
      const auto a = CreateSessionArgs::decode(args);
      co_await charge_cpu(0);
      const uint64_t sid = next_session_id_++;
      sessions_.insert(sid);
      if (a.callback_port != 0) {
        backchannels_[sid] = rpc::RpcAddress{
            ctx.client_node, static_cast<uint16_t>(a.callback_port)};
      }
      const uint32_t slots =
          std::min(a.requested_slots, kSessionSlots);
      CreateSessionRes{SessionId{sid}, slots}.encode(results);
      co_return Status::kOk;
    }
    case OpCode::kSequence: {
      const auto a = SequenceArgs::decode(args);
      if (!sessions_.contains(a.session.id)) {
        // During the post-restart grace window an unknown session means
        // "this server rebooted under you": NFS4ERR_GRACE tells the client
        // to re-establish state and reclaim, rather than treat its session
        // as administratively revoked.
        co_return in_grace(fabric_.simulation().now()) ? Status::kGrace
                                                       : Status::kBadSession;
      }
      session = a.session.id;
      co_return Status::kOk;
    }
    case OpCode::kPutRootFh:
      current_fh = names_->root_fh();
      co_return Status::kOk;
    case OpCode::kPutFh:
      current_fh = PutFhArgs::decode(args).fh;
      co_return Status::kOk;
    case OpCode::kGetFh:
      GetFhRes{current_fh}.encode(results);
      co_return Status::kOk;
    case OpCode::kSaveFh:
      saved_fh = current_fh;
      co_return Status::kOk;
    case OpCode::kRestoreFh:
      current_fh = saved_fh;
      co_return Status::kOk;
    case OpCode::kLookup: {
      const auto a = LookupArgs::decode(args);
      co_await charge_cpu(0);
      FileHandle out;
      const Status st = co_await names_->lookup(current_fh, a.name, &out);
      if (st == Status::kOk) current_fh = out;
      co_return st;
    }
    case OpCode::kGetattr: {
      co_await charge_cpu(0);
      Fattr attr;
      const Status st = co_await names_->getattr(current_fh, &attr);
      if (st == Status::kOk) GetattrRes{attr}.encode(results);
      co_return st;
    }
    case OpCode::kSetattr: {
      const auto a = SetattrArgs::decode(args);
      co_await charge_cpu(0);
      if (!a.set_size) co_return Status::kOk;
      // A size change conflicts with outstanding layouts and delegations:
      // recall them before mutating (RFC 5661 §12.5.5 flavour).
      co_await recall_layouts(current_fh);
      co_await recall_delegations(current_fh, 0);
      co_return co_await names_->set_size(current_fh, a.size);
    }
    case OpCode::kCreate: {
      const auto a = CreateArgs::decode(args);
      co_await charge_cpu(0);
      FileHandle out;
      const Status st = co_await names_->mkdir(current_fh, a.name, &out);
      if (st == Status::kOk) current_fh = out;
      co_return st;
    }
    case OpCode::kOpen: {
      const auto a = OpenArgs::decode(args);
      co_await charge_cpu(0);
      FileHandle out;
      Fattr attr;
      const Status st =
          co_await names_->open(current_fh, a.name, a.create, &out, &attr);
      if (st != Status::kOk) co_return st;
      current_fh = out;
      const bool for_write = a.share != ShareAccess::kRead;
      if (for_write) {
        // A writer conflicts with everyone else's read delegations.
        co_await recall_delegations(out, session);
        ++write_opens_[out.id];
      }
      const Stateid sid{next_stateid_++};
      open_states_.emplace(sid.id, OpenState{out, for_write});
      // Grant a read delegation to read-only openers when nobody writes
      // and the session has a backchannel to recall it through.
      DelegationType delegation = DelegationType::kNone;
      if (!for_write && session != 0 && backchannels_.contains(session) &&
          write_opens_[out.id] == 0) {
        delegation = DelegationType::kRead;
        delegation_holders_[out.id].insert(session);
      }
      OpenRes{sid, attr, delegation}.encode(results);
      co_return Status::kOk;
    }
    case OpCode::kClose: {
      const auto a = CloseArgs::decode(args);
      co_await charge_cpu(0);
      auto it = open_states_.find(a.stateid.id);
      if (it == open_states_.end()) co_return Status::kBadStateid;
      if (it->second.write) {
        auto wit = write_opens_.find(it->second.fh.id);
        if (wit != write_opens_.end() && --wit->second == 0) {
          write_opens_.erase(wit);
        }
      }
      open_states_.erase(it);
      co_return Status::kOk;
    }
    case OpCode::kRemove: {
      const auto a = RemoveArgs::decode(args);
      co_await charge_cpu(0);
      // Recall any layouts and delegations for the victim before unlinking.
      FileHandle victim;
      if (co_await names_->lookup(current_fh, a.name, &victim) == Status::kOk) {
        co_await recall_layouts(victim);
        co_await recall_delegations(victim, 0);
      }
      co_return co_await names_->remove(current_fh, a.name);
    }
    case OpCode::kRename: {
      const auto a = RenameArgs::decode(args);
      co_await charge_cpu(0);
      co_return co_await names_->rename(saved_fh, a.old_name, current_fh,
                                        a.new_name);
    }
    case OpCode::kReaddir: {
      co_await charge_cpu(0);
      std::vector<DirEntry> entries;
      const Status st = co_await names_->readdir(current_fh, &entries);
      if (st == Status::kOk) ReaddirRes{std::move(entries)}.encode(results);
      co_return st;
    }
    case OpCode::kRead:
    case OpCode::kReadv: {
      const auto a = op == OpCode::kRead ? ReadArgs::decode(args)
                                         : ReadArgs::decode_vectored(args);
      if (!stateid_ok(a.stateid)) co_return Status::kBadStateid;
      co_await charge_cpu(a.total_count());
      ReadvRes res;
      for (const IoRegion& r : a.regions) {
        rpc::Payload data;
        bool eof = false;
        const Status st = co_await data_.read(current_fh, r.offset, r.count,
                                              &data, &eof, ctx.trace);
        if (st != Status::kOk) co_return st;
        res.eof = res.eof || eof;
        res.lengths.push_back(static_cast<uint32_t>(data.size()));
        res.data.append(std::move(data));
      }
      m_read_bytes_->add(res.data.size());
      fabric_.tenants().account_data(ctx.trace.tenant, res.data.size(), 0);
      if (op == OpCode::kRead) {
        ReadRes{res.eof, std::move(res.data)}.encode(results);
      } else {
        res.encode(results);
      }
      co_return Status::kOk;
    }
    case OpCode::kWrite:
    case OpCode::kWritev: {
      const auto a = op == OpCode::kWrite ? WriteArgs::decode(args)
                                          : WriteArgs::decode_vectored(args);
      if (!stateid_ok(a.stateid)) co_return Status::kBadStateid;
      // MDS-path writes conflict with other clients' read delegations.
      if (names_ != nullptr && delegation_holders_.contains(current_fh.id)) {
        co_await recall_delegations(current_fh, session);
      }
      co_await charge_cpu(a.data.size());
      // One stable_how in and, in the reply, one (weakest-across-regions)
      // stability and one boot verifier covering every region of the list.
      StableHow committed = StableHow::kFileSync;
      uint64_t post_change = 0;
      uint64_t pos = 0;
      for (const IoRegion& r : a.regions) {
        StableHow c = a.stable;
        uint64_t pc = 0;
        const Status st = co_await data_.write(current_fh, r.offset,
                                               a.data.slice(pos, r.count),
                                               a.stable, &c, &pc, ctx.trace);
        if (st != Status::kOk) co_return st;
        pos += r.count;
        committed = std::min(committed, c);
        post_change = std::max(post_change, pc);
      }
      m_write_bytes_->add(a.data.size());
      fabric_.tenants().account_data(ctx.trace.tenant, 0, a.data.size());
      WriteRes{a.data.size(), committed, post_change, boot_verifier_}
          .encode(results);
      co_return Status::kOk;
    }
    case OpCode::kCommit: {
      (void)CommitArgs::decode(args);
      co_await charge_cpu(0);
      const Status st = co_await data_.commit(current_fh, ctx.trace);
      // The verifier is re-read *after* the commit ran: if this instance
      // died mid-commit and revived, the reply must carry the incarnation
      // that actually holds (or lost) the data.
      check_restart(fabric_.simulation().now());
      if (st == Status::kOk) CommitRes{boot_verifier_}.encode(results);
      co_return st;
    }
    case OpCode::kGetDeviceList:
    case OpCode::kGetDeviceInfo: {
      co_await charge_cpu(0);
      if (layouts_ == nullptr) co_return Status::kNotSupp;
      std::vector<DeviceEntry> devices;
      const Status st = co_await layouts_->get_device_list(&devices);
      if (st == Status::kOk) GetDeviceListRes{std::move(devices)}.encode(results);
      co_return st;
    }
    case OpCode::kLayoutGet: {
      const auto a = LayoutGetArgs::decode(args);
      co_await charge_cpu(0);
      if (layouts_ == nullptr) co_return Status::kLayoutUnavailable;
      // A read-write layout means the holder may write through the data
      // servers, bypassing this server: recall others' read delegations.
      if (a.iomode == LayoutIoMode::kReadWrite) {
        co_await recall_delegations(current_fh, session);
      }
      FileLayout layout;
      const Status st = co_await layouts_->layout_get(current_fh, a.iomode, &layout);
      if (st == Status::kOk) {
        if (session != 0 && backchannels_.contains(session)) {
          layout_holders_[current_fh.id].insert(session);
        }
        LayoutGetRes{std::move(layout)}.encode(results);
      }
      co_return st;
    }
    case OpCode::kLayoutCommit: {
      const auto a = LayoutCommitArgs::decode(args);
      co_await charge_cpu(0);
      if (layouts_ == nullptr) co_return Status::kNotSupp;
      uint64_t post_change = 0;
      const Status st = co_await layouts_->layout_commit(
          current_fh, a.new_size, a.size_changed, &post_change);
      if (st == Status::kOk) LayoutCommitRes{post_change}.encode(results);
      co_return st;
    }
    case OpCode::kLayoutReturn: {
      (void)LayoutReturnArgs::decode(args);
      co_await charge_cpu(0);
      if (layouts_ == nullptr) co_return Status::kNotSupp;
      if (session != 0) {
        auto it = layout_holders_.find(current_fh.id);
        if (it != layout_holders_.end()) {
          it->second.erase(session);
          if (it->second.empty()) layout_holders_.erase(it);
        }
      }
      co_return co_await layouts_->layout_return(current_fh);
    }
  }
  co_return Status::kNotSupp;
}

}  // namespace dpnfs::nfs
