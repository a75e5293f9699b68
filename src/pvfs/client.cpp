#include "pvfs/client.hpp"

#include <algorithm>

#include "sim/sync.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace dpnfs::pvfs {

using rpc::Payload;
using rpc::XdrDecoder;
using rpc::XdrEncoder;
using sim::Task;

namespace {
constexpr uint32_t kPvfsVersion = 2;

/// Arguments of a metadata procedure naming one path.
XdrEncoder path_arg(const std::string& path) {
  XdrEncoder args;
  args.put_string(path);
  return args;
}
}  // namespace

PvfsClient::PvfsClient(rpc::RpcFabric& fabric, sim::Node& node,
                       rpc::RpcAddress meta,
                       std::vector<rpc::RpcAddress> storage,
                       std::string principal, PvfsClientConfig config)
    : fabric_(fabric),
      node_(node),
      meta_(meta),
      storage_(std::move(storage)),
      rpc_(fabric, node, std::move(principal)),
      config_(config),
      buffers_(fabric.simulation(), config.buffer_count),
      daemons_(storage_.size()) {
  rpc_.set_tenant(config_.tenant_id);
  obs::MetricsRegistry& reg = fabric.metrics();
  const std::string& n = node.name();
  m_verifier_mismatches_ =
      &reg.counter(n, "client.replay", "verifier_mismatches");
  m_replayed_extents_ = &reg.counter(n, "client.replay", "replayed_extents");
  m_replayed_bytes_ = &reg.counter(n, "client.replay", "replayed_bytes");
}

PvfsClientStats PvfsClient::stats() const {
  return PvfsClientStats{
      .bytes_read = bytes_read_,
      .bytes_written = bytes_written_,
      .storage_requests = storage_requests_,
      .verifier_mismatches = m_verifier_mismatches_->value(),
      .replayed_extents = m_replayed_extents_->value(),
      .replayed_bytes = m_replayed_bytes_->value(),
  };
}

PvfsStatus PvfsClient::reply_status(XdrDecoder& dec) {
  const uint32_t raw = dec.get_u32();
  return static_cast<PvfsStatus>(raw);
}

XdrDecoder PvfsClient::ok_results(const rpc::RpcClient::Reply& reply,
                                  const char* what) {
  XdrDecoder dec = reply.body();
  if (reply_status(dec) != PvfsStatus::kOk) {
    throw PvfsError(PvfsStatus::kIo, what);
  }
  return dec;
}

template <typename MakeTask>
Task<uint32_t> PvfsClient::fan_out(size_t n, MakeTask make_task) {
  sim::WaitGroup wg(fabric_.simulation());
  uint32_t failures = 0;
  for (size_t i = 0; i < n; ++i) {
    wg.spawn([](Task<void> task, uint32_t& failures) -> Task<void> {
      try {
        co_await task;
      } catch (const PvfsError&) {
        ++failures;
      }
    }(make_task(i), failures));
  }
  co_await wg.wait();
  co_return failures;
}

Task<rpc::RpcClient::Reply> PvfsClient::meta_call(MetaProc proc,
                                                  XdrEncoder args,
                                                  std::string what) {
  co_await node_.cpu().execute(config_.cpu_per_request);
  if (config_.vfs_meta_latency > 0) {
    co_await fabric_.simulation().delay(config_.vfs_meta_latency);
  }
  rpc::CallOptions opts;
  opts.timeout = config_.meta_timeout;
  opts.max_retries = config_.meta_retries > 0 ? config_.meta_retries - 1 : 0;
  auto reply = co_await rpc_.call(meta_, rpc::Program::kPvfsMeta, kPvfsVersion,
                                  static_cast<uint32_t>(proc), std::move(args),
                                  opts);
  if (reply.transport != rpc::Status::kOk) {
    throw PvfsError(PvfsStatus::kIo, "meta RPC timed out");
  }
  if (reply.status != rpc::ReplyStatus::kAccepted) {
    throw PvfsError(PvfsStatus::kIo, "meta RPC rejected by the server");
  }
  XdrDecoder dec = reply.body();
  const PvfsStatus st = reply_status(dec);
  if (st != PvfsStatus::kOk) throw PvfsError(st, what);
  reply.body_offset += sizeof(uint32_t);  // body() now starts past the status
  co_return reply;
}

Task<rpc::RpcClient::Reply> PvfsClient::io_call(uint32_t server_index,
                                                IoProc proc, XdrEncoder args,
                                                uint64_t data_bytes,
                                                obs::TraceContext trace) {
  co_await buffers_.acquire();
  ++storage_requests_;
  co_await node_.cpu().execute(
      config_.cpu_per_request +
      static_cast<sim::Duration>(config_.cpu_ns_per_byte *
                                 static_cast<double>(data_bytes)));
  rpc::CallOptions opts;
  opts.timeout = config_.io_timeout;
  opts.max_retries = config_.io_retries > 0 ? config_.io_retries - 1 : 0;
  opts.parent = trace;
  auto reply = co_await rpc_.call(storage_.at(server_index),
                                  rpc::Program::kPvfsIo, kPvfsVersion,
                                  static_cast<uint32_t>(proc), std::move(args),
                                  opts);
  buffers_.release();
  if (reply.transport != rpc::Status::kOk) {
    throw PvfsError(PvfsStatus::kIo, "storage RPC timed out");
  }
  if (reply.status != rpc::ReplyStatus::kAccepted) {
    throw PvfsError(PvfsStatus::kIo, "storage RPC rejected by the server");
  }
  co_return reply;
}

Task<void> PvfsClient::checked_call(uint32_t server_index, IoProc proc,
                                    XdrEncoder args, const char* what) {
  auto reply = co_await io_call(server_index, proc, std::move(args), 0);
  (void)ok_results(reply, what);
}

std::vector<PvfsClient::Piece> PvfsClient::cut_pieces(
    const std::vector<StripeExtent>& extents) const {
  std::vector<Piece> pieces;
  for (const auto& ext : extents) {
    for (uint64_t done = 0; done < ext.length;) {
      const uint64_t n = std::min(config_.buffer_size, ext.length - done);
      pieces.push_back(Piece{ext.dfile_index, ext.file_offset + done,
                             IoRegion{ext.dfile_offset + done, n}, Payload{}});
      done += n;
    }
  }
  return pieces;
}

std::vector<std::vector<size_t>> PvfsClient::batch_pieces(
    const std::vector<Piece>& pieces) const {
  std::map<uint32_t, std::vector<size_t>> by_dfile;
  for (size_t i = 0; i < pieces.size(); ++i) {
    by_dfile[pieces[i].dfile_index].push_back(i);
  }
  const uint64_t max_regions =
      std::max<uint32_t>(config_.listio_max_regions, 1);
  std::vector<std::vector<size_t>> batches;
  for (const auto& [dfile_index, idxs] : by_dfile) {
    std::vector<size_t> cur;
    uint64_t bytes = 0;
    for (size_t i : idxs) {
      const uint64_t len = pieces[i].region.length;
      if (!cur.empty() &&
          (cur.size() >= max_regions || bytes + len > config_.buffer_size)) {
        batches.push_back(std::move(cur));
        cur.clear();
        bytes = 0;
      }
      cur.push_back(i);
      bytes += len;
    }
    if (!cur.empty()) batches.push_back(std::move(cur));
  }
  return batches;
}

Task<void> PvfsClient::read_regions(DfileRef dfile, std::vector<Piece>& pieces,
                                    const std::vector<size_t>& idx,
                                    obs::TraceContext trace) {
  ReadArgs a{dfile.object_id, {}};
  for (size_t i : idx) a.regions.push_back(pieces[i].region);
  auto reply = co_await io_call(dfile.server_index, a.proc(), encode_args(a),
                                a.total_length(), trace);
  XdrDecoder dec = ok_results(reply, "read");
  for (size_t i : idx) {
    // Holes in a dfile read as zeros up to the region's requested length.
    Payload& p = pieces[i].data;
    p = dec.get_payload();
    if (p.size() < pieces[i].region.length) {
      zero_fill(p, pieces[i].region.length - p.size());
    }
  }
}

Task<uint64_t> PvfsClient::write_regions(DfileRef dfile,
                                         const std::vector<Piece>& pieces,
                                         const std::vector<size_t>& idx,
                                         obs::TraceContext trace) {
  WriteArgs a{dfile.object_id, {}, {}};
  for (size_t i : idx) {
    a.regions.push_back(pieces[i].region);
    a.data.append(pieces[i].data);
  }
  auto reply = co_await io_call(dfile.server_index, a.proc(), encode_args(a),
                                a.data.size(), trace);
  co_return ok_results(reply, "write").get_u64();
}

// ---------------------------------------------------------------------------
// Crash recovery: write verifiers and replay
// ---------------------------------------------------------------------------

void PvfsClient::trim_range(PieceMap& pieces, uint64_t offset, uint64_t len) {
  if (len == 0 || pieces.empty()) return;
  const uint64_t end = offset + len;
  auto it = pieces.upper_bound(offset);
  if (it != pieces.begin()) --it;
  while (it != pieces.end() && it->first < end) {
    const uint64_t po = it->first;
    const uint64_t pe = po + it->second.data.size();
    if (pe <= offset) {
      ++it;
      continue;
    }
    RetainedPiece head;
    RetainedPiece tail;
    if (po < offset) {
      head.seq = it->second.seq;
      head.data = it->second.data.slice(0, offset - po);
    }
    if (pe > end) {
      tail.seq = it->second.seq;
      tail.data = it->second.data.slice(end - po, pe - end);
    }
    it = pieces.erase(it);
    if (head.data.size() > 0) pieces.emplace(po, std::move(head));
    if (tail.data.size() > 0) it = pieces.emplace(end, std::move(tail)).first;
  }
}

void PvfsClient::retain_piece(uint32_t server_index, uint64_t object_id,
                              uint64_t dfile_offset, Payload piece) {
  const uint64_t len = piece.size();
  if (len == 0) return;
  DaemonState& d = daemons_.at(server_index);
  // This write supersedes whatever it overlaps: older retained bytes of the
  // same incarnation and stale bytes awaiting replay (the daemon now holds
  // fresher data for the range).
  trim_range(d.retained[object_id], dfile_offset, len);
  auto sit = d.stale.find(object_id);
  if (sit != d.stale.end()) {
    trim_range(sit->second, dfile_offset, len);
    if (sit->second.empty()) d.stale.erase(sit);
  }
  d.retained[object_id].emplace(dfile_offset,
                                RetainedPiece{++retain_seq_, std::move(piece)});
}

void PvfsClient::note_daemon_verifier(uint32_t server_index,
                                      uint64_t verifier) {
  DaemonState& d = daemons_.at(server_index);
  if (!d.verifier_known) {
    d.verifier_known = true;
    d.verifier = verifier;
    return;
  }
  if (d.verifier == verifier) return;
  // The daemon restarted: every byte it buffered for us died with the old
  // incarnation.  Requeue our retained copies for replay.
  m_verifier_mismatches_->inc();
  const uint64_t old_verifier = d.verifier;
  uint64_t moved = 0;
  for (auto& [oid, pieces] : d.retained) {
    PieceMap& stale = d.stale[oid];
    for (auto& [off, piece] : pieces) {
      trim_range(stale, off, piece.data.size());
      moved += piece.data.size();
      stale.emplace(off, std::move(piece));
    }
  }
  d.retained.clear();
  d.verifier = verifier;
  util::logf(util::LogLevel::kWarn, "pvfs.client", node_.simulation().now(),
             "%s: daemon %u write verifier changed (%016llx -> %016llx), "
             "%llu uncommitted bytes queued for replay",
             node_.name().c_str(), static_cast<unsigned>(server_index),
             static_cast<unsigned long long>(old_verifier),
             static_cast<unsigned long long>(verifier),
             static_cast<unsigned long long>(moved));
  fabric_.flight().record(
      node_.simulation().now(), node_.name(), "pvfs.client",
      "verifier.mismatch",
      util::sformat("daemon %u %016llx -> %016llx, %llu bytes queued",
                    static_cast<unsigned>(server_index),
                    static_cast<unsigned long long>(old_verifier),
                    static_cast<unsigned long long>(verifier),
                    static_cast<unsigned long long>(moved)));
}

void PvfsClient::drop_replay_state() {
  for (DaemonState& d : daemons_) {
    d.retained.clear();
    d.stale.clear();
    // Verifiers survive: they identify *daemon* incarnations, which did not
    // restart just because this client's host did.
  }
}

Task<uint64_t> PvfsClient::replay_stale(PvfsFilePtr file,
                                        obs::TraceContext trace) {
  uint64_t replayed = 0;
  for (const auto& dfile : file->meta.dfiles) {
    DaemonState& d = daemons_.at(dfile.server_index);
    auto sit = d.stale.find(dfile.object_id);
    if (sit == d.stale.end() || sit->second.empty()) continue;
    // Fold the orphaned pieces into list writes (the region list of the
    // dead incarnation's writes, re-sent wholesale).
    std::vector<Piece> pieces;
    for (auto& [off, piece] : sit->second) {
      const uint64_t len = piece.data.size();
      pieces.push_back(Piece{0, 0, IoRegion{off, len}, std::move(piece.data)});
    }
    d.stale.erase(sit);
    for (const std::vector<size_t>& idx : batch_pieces(pieces)) {
      uint64_t verifier = 0;
      try {
        verifier = co_await write_regions(dfile, pieces, idx, trace);
      } catch (...) {
        // Preserve this batch and every not-yet-attempted piece: they are
        // the only copy of the data.  A later fsync retries.
        PieceMap& stale = d.stale[dfile.object_id];
        for (size_t i = idx.front(); i < pieces.size(); ++i) {
          const IoRegion& r = pieces[i].region;
          trim_range(stale, r.offset, r.length);
          stale.emplace(r.offset, RetainedPiece{0, std::move(pieces[i].data)});
        }
        throw;
      }
      uint64_t bytes = 0;
      for (size_t i : idx) bytes += pieces[i].region.length;
      replayed += idx.size();
      m_replayed_extents_->add(idx.size());
      m_replayed_bytes_->add(bytes);
      fabric_.flight().record(
          node_.simulation().now(), node_.name(), "pvfs.client", "wb.replay",
          util::sformat("daemon %u object %llu %llu bytes %zu extents",
                        static_cast<unsigned>(dfile.server_index),
                        static_cast<unsigned long long>(dfile.object_id),
                        static_cast<unsigned long long>(bytes), idx.size()));
      note_daemon_verifier(dfile.server_index, verifier);
      for (size_t i : idx) {
        retain_piece(dfile.server_index, dfile.object_id,
                     pieces[i].region.offset, std::move(pieces[i].data));
      }
    }
  }
  co_return replayed;
}

// ---------------------------------------------------------------------------
// Namespace
// ---------------------------------------------------------------------------

Task<void> PvfsClient::mkdir(const std::string& path) {
  co_await meta_call(MetaProc::kMkdir, path_arg(path), "mkdir " + path);
}

Task<void> PvfsClient::remove(const std::string& path) {
  auto reply = co_await meta_call(MetaProc::kRemove, path_arg(path),
                                  "remove " + path);
  auto dec = reply.body();
  const FileMeta removed = FileMeta::decode(dec);
  if (removed.handle == 0) co_return;  // was a directory
  // Client-driven reaping of storage objects.  Best effort: a leaked object
  // is not a correctness issue, so every failure is ignored.
  co_await fan_out(removed.dfiles.size(), [&](size_t i) {
    const DfileRef& dfile = removed.dfiles[i];
    return checked_call(dfile.server_index, IoProc::kRemove,
                        encode_args(ObjectArgs{dfile.object_id}), "remove");
  });
}

Task<void> PvfsClient::rename(const std::string& from, const std::string& to) {
  XdrEncoder args = path_arg(from);
  args.put_string(to);
  co_await meta_call(MetaProc::kRename, std::move(args), "rename " + from);
}

Task<std::vector<std::pair<std::string, bool>>> PvfsClient::readdir(
    const std::string& path) {
  auto reply = co_await meta_call(MetaProc::kReaddir, path_arg(path),
                                  "readdir " + path);
  auto dec = reply.body();
  const uint32_t n = dec.get_u32();
  std::vector<std::pair<std::string, bool>> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name = dec.get_string();
    const bool is_dir = dec.get_bool();
    out.emplace_back(std::move(name), is_dir);
  }
  co_return out;
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

Task<PvfsFilePtr> PvfsClient::create(const std::string& path) {
  auto reply = co_await meta_call(MetaProc::kCreate, path_arg(path),
                                  "create " + path);
  auto dec = reply.body();
  auto file = std::make_shared<PvfsFile>();
  file->meta = FileMeta::decode(dec);
  file->size = 0;
  // Create the dfile objects on every storage node (PVFS2 allocates the
  // full distribution eagerly at create time).
  const uint32_t failures =
      co_await fan_out(file->meta.dfiles.size(), [&](size_t i) {
        const DfileRef& dfile = file->meta.dfiles[i];
        return checked_call(dfile.server_index, IoProc::kCreate,
                            encode_args(ObjectArgs{dfile.object_id}),
                            "create");
      });
  // Redundant distributions survive creates against dead daemons up to the
  // redundancy level; rebuild re-materializes the missing objects.
  uint32_t tolerated = 0;
  switch (file->meta.kind) {
    case DistKind::kMirror:
      tolerated = static_cast<uint32_t>(file->meta.dfiles.size()) - 1;
      break;
    case DistKind::kErasure:
      tolerated = file->meta.ec_m;
      break;
    case DistKind::kStripe:
      break;
  }
  if (failures > tolerated) {
    throw PvfsError(PvfsStatus::kIo, "create dfiles " + path);
  }
  co_return file;
}

Task<PvfsFilePtr> PvfsClient::open(const std::string& path) {
  auto reply = co_await meta_call(MetaProc::kLookup, path_arg(path),
                                  "open " + path);
  auto dec = reply.body();
  auto file = std::make_shared<PvfsFile>();
  file->meta = FileMeta::decode(dec);
  file->size = co_await fetch_size(file);
  co_return file;
}

Task<uint64_t> PvfsClient::fetch_size(PvfsFilePtr file) {
  // PVFS2-style attribute gathering: query every storage node.  A daemon
  // answering with an error status reports size 0; only a failed call
  // counts as a failure.
  const std::vector<DfileRef>& dfiles = file->meta.dfiles;
  std::vector<uint64_t> sizes(dfiles.size(), 0);
  const uint32_t failures =
      co_await fan_out(dfiles.size(), [&](size_t i) -> Task<void> {
        auto reply = co_await io_call(
            dfiles[i].server_index, IoProc::kGetSize,
            encode_args(ObjectArgs{dfiles[i].object_id}), 0);
        auto dec = reply.body();
        if (reply_status(dec) == PvfsStatus::kOk) sizes[i] = dec.get_u64();
      });
  // A missing dfile size would silently shrink the logical size and truncate
  // reads — surface the failure instead.  Redundant distributions tolerate
  // unreachable daemons: surviving replicas/shards still bound the size (the
  // MDS-side LAYOUTCOMMIT size floor covers the final-stripe ambiguity).
  if (failures > 0 && file->meta.kind == DistKind::kStripe) {
    throw PvfsError(PvfsStatus::kIo, "getattr size gather");
  }
  uint64_t logical = logical_size(file->meta, sizes);
  if (file->meta.kind != DistKind::kStripe) {
    // Keep the known size as a floor: a dead daemon's dfile may have held
    // the file tail (the MDS's LAYOUTCOMMIT floor flows in via file->size).
    logical = std::max(logical, file->size);
  }
  file->size = logical;
  co_return file->size;
}

Task<Payload> PvfsClient::read(PvfsFilePtr file, uint64_t offset,
                               uint64_t length, obs::TraceContext trace) {
  if (offset >= file->size) co_return Payload{};
  const uint64_t end = std::min(file->size, offset + length);
  std::vector<Piece> pieces =
      cut_pieces(map_stripes(file->meta, offset, end - offset));
  const auto batches = batch_pieces(pieces);
  const uint32_t failures = co_await fan_out(batches.size(), [&](size_t b) {
    const Piece& first = pieces[batches[b].front()];
    return read_regions(file->meta.dfiles[first.dfile_index], pieces,
                        batches[b], trace);
  });
  if (failures > 0) throw PvfsError(PvfsStatus::kIo, "read");

  Payload out;
  for (Piece& piece : pieces) out.append(std::move(piece.data));
  bytes_read_ += out.size();
  co_return out;
}

Task<void> PvfsClient::write(PvfsFilePtr file, uint64_t offset, Payload data,
                             obs::TraceContext trace) {
  const uint64_t len = data.size();
  std::vector<Piece> pieces =
      cut_pieces(map_stripes_write(file->meta, offset, len));
  for (Piece& piece : pieces) {
    piece.data = data.slice(piece.file_offset - offset, piece.region.length);
  }
  const auto batches = batch_pieces(pieces);
  const uint32_t failures =
      co_await fan_out(batches.size(), [&](size_t b) -> Task<void> {
        const std::vector<size_t>& idx = batches[b];
        const DfileRef dfile =
            file->meta.dfiles[pieces[idx.front()].dfile_index];
        const uint64_t verifier =
            co_await write_regions(dfile, pieces, idx, trace);
        // The daemon buffered the bytes; keep our copies until a commit by
        // the same incarnation makes them durable.  One verifier covers the
        // whole region list.
        note_daemon_verifier(dfile.server_index, verifier);
        for (size_t i : idx) {
          retain_piece(dfile.server_index, dfile.object_id,
                       pieces[i].region.offset, std::move(pieces[i].data));
        }
      });
  if (failures > 0) throw PvfsError(PvfsStatus::kIo, "write");
  file->size = std::max(file->size, offset + len);
  bytes_written_ += len;
}

Task<void> PvfsClient::fsync(PvfsFilePtr file, obs::TraceContext trace) {
  // fsync drives the commit/replay loop: re-send pieces orphaned by daemon
  // restarts, then commit every dfile and check the returned write verifier
  // against the incarnation that buffered our writes.  A mismatch means the
  // buffered bytes died with the old incarnation — requeue and go again.
  constexpr int kMaxRounds = 8;
  const std::vector<DfileRef>& dfiles = file->meta.dfiles;
  for (int round = 0; round < kMaxRounds; ++round) {
    co_await replay_stale(file, trace);

    bool mismatch = false;
    // Pieces retained after this point raced the commit and may not be
    // covered by it — only retire ones whose write reply already arrived.
    const uint64_t cutoff = retain_seq_;
    const uint32_t failures =
        co_await fan_out(dfiles.size(), [&](size_t i) -> Task<void> {
          const DfileRef dfile = dfiles[i];
          auto reply = co_await io_call(
              dfile.server_index, IoProc::kCommit,
              encode_args(ObjectArgs{dfile.object_id}), 0, trace);
          const uint64_t verifier = ok_results(reply, "commit").get_u64();
          DaemonState& ds = daemons_.at(dfile.server_index);
          const bool known = ds.verifier_known;
          const uint64_t expected = ds.verifier;
          note_daemon_verifier(dfile.server_index, verifier);
          if (known && expected != verifier) {
            mismatch = true;  // retained pieces just moved to the stale set
            co_return;
          }
          // Commit covered everything the daemon buffered before it was
          // issued: retire those pieces.
          auto rit = ds.retained.find(dfile.object_id);
          if (rit != ds.retained.end()) {
            for (auto pit = rit->second.begin(); pit != rit->second.end();) {
              pit = (pit->second.seq <= cutoff) ? rit->second.erase(pit)
                                                : ++pit;
            }
            if (rit->second.empty()) ds.retained.erase(rit);
          }
        });
    if (failures > 0) throw PvfsError(PvfsStatus::kIo, "fsync");

    bool pending = mismatch;
    for (const auto& dfile : dfiles) {
      const DaemonState& ds = daemons_.at(dfile.server_index);
      auto sit = ds.stale.find(dfile.object_id);
      if (sit != ds.stale.end() && !sit->second.empty()) pending = true;
    }
    if (!pending) co_return;
  }
  throw PvfsError(PvfsStatus::kIo, "fsync: replay did not converge");
}

Task<void> PvfsClient::close(PvfsFilePtr file) { co_await fsync(file); }

Task<void> PvfsClient::truncate(PvfsFilePtr file, uint64_t size) {
  const FileMeta& meta = file->meta;
  const uint32_t failures = co_await fan_out(meta.dfiles.size(), [&](size_t i) {
    const DfileRef& dfile = meta.dfiles[i];
    // Bytes of dfile i that lie below `size` under the distribution.
    const uint64_t dsize =
        dfile_size_for(meta, static_cast<uint32_t>(i), size);
    // Replay must not resurrect bytes above the new end of the dfile.
    DaemonState& ds = daemons_.at(dfile.server_index);
    for (auto* by_object : {&ds.retained, &ds.stale}) {
      auto it = by_object->find(dfile.object_id);
      if (it != by_object->end()) trim_range(it->second, dsize, ~0ull - dsize);
    }
    return checked_call(dfile.server_index, IoProc::kTruncate,
                        encode_args(TruncateArgs{dfile.object_id, dsize}),
                        "truncate");
  });
  if (failures > 0) throw PvfsError(PvfsStatus::kIo, "truncate");
  file->size = size;
}

}  // namespace dpnfs::pvfs
