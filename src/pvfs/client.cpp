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
}

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
  if (obs::MetricsRegistry* reg = fabric.metrics()) {
    const std::string& n = node.name();
    m_verifier_mismatches_ =
        &reg->counter(n, "client.replay", "verifier_mismatches");
    m_replayed_extents_ = &reg->counter(n, "client.replay", "replayed_extents");
    m_replayed_bytes_ = &reg->counter(n, "client.replay", "replayed_bytes");
  } else {
    m_verifier_mismatches_ = &obs::MetricsRegistry::null_counter();
    m_replayed_extents_ = &obs::MetricsRegistry::null_counter();
    m_replayed_bytes_ = &obs::MetricsRegistry::null_counter();
  }
}

PvfsStatus PvfsClient::reply_status(XdrDecoder& dec) {
  const uint32_t raw = dec.get_u32();
  return static_cast<PvfsStatus>(raw);
}

Task<rpc::RpcClient::Reply> PvfsClient::meta_call(MetaProc proc,
                                                  XdrEncoder args) {
  ++stats_.meta_requests;
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
  co_return reply;
}

Task<rpc::RpcClient::Reply> PvfsClient::io_call(uint32_t server_index,
                                                IoProc proc, XdrEncoder args,
                                                uint64_t data_bytes,
                                                obs::TraceContext trace) {
  co_await buffers_.acquire();
  ++stats_.storage_requests;
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

Task<std::vector<Payload>> PvfsClient::read_regions(
    const DfileRef& dfile, const std::vector<IoRange>& regions,
    obs::TraceContext trace) {
  uint64_t total = 0;
  for (const IoRange& r : regions) total += r.length;
  XdrEncoder a;
  a.put_u64(dfile.object_id);
  std::vector<Payload> out(regions.size());
  if (regions.size() == 1) {
    a.put_u64(regions[0].offset);
    a.put_u64(regions[0].length);
    auto r = co_await io_call(dfile.server_index, IoProc::kRead, std::move(a),
                              total, trace);
    auto d = r.body();
    if (reply_status(d) != PvfsStatus::kOk) {
      throw PvfsError(PvfsStatus::kIo, "read");
    }
    out[0] = d.get_payload();
  } else {
    a.put_u32(static_cast<uint32_t>(regions.size()));
    for (const IoRange& r : regions) {
      a.put_u64(r.offset);
      a.put_u64(r.length);
    }
    ++stats_.vectored_requests;
    stats_.vectored_regions += regions.size();
    stats_.vectored_bytes += total;
    auto r = co_await io_call(dfile.server_index, IoProc::kReadv, std::move(a),
                              total, trace);
    auto d = r.body();
    if (reply_status(d) != PvfsStatus::kOk) {
      throw PvfsError(PvfsStatus::kIo, "readv");
    }
    for (Payload& p : out) p = d.get_payload();
  }
  // Holes in a dfile read as zeros up to each region's requested length.
  for (size_t i = 0; i < regions.size(); ++i) {
    if (out[i].size() < regions[i].length) {
      const uint64_t missing = regions[i].length - out[i].size();
      if (out[i].is_inline()) {
        out[i].append(Payload::inline_bytes(
            std::vector<std::byte>(missing, std::byte{0})));
      } else {
        out[i].append(Payload::virtual_bytes(missing));
      }
    }
  }
  co_return out;
}

Task<uint64_t> PvfsClient::write_regions(const DfileRef& dfile,
                                         const std::vector<IoRange>& regions,
                                         Payload data, obs::TraceContext trace) {
  const uint64_t total = data.size();
  XdrEncoder a;
  a.put_u64(dfile.object_id);
  IoProc proc = IoProc::kWrite;
  if (regions.size() == 1) {
    a.put_u64(regions[0].offset);
  } else {
    proc = IoProc::kWritev;
    a.put_u32(static_cast<uint32_t>(regions.size()));
    for (const IoRange& r : regions) {
      a.put_u64(r.offset);
      a.put_u64(r.length);
    }
    ++stats_.vectored_requests;
    stats_.vectored_regions += regions.size();
    stats_.vectored_bytes += total;
  }
  a.put_payload(data);
  auto r = co_await io_call(dfile.server_index, proc, std::move(a), total,
                            trace);
  auto d = r.body();
  if (reply_status(d) != PvfsStatus::kOk) {
    throw PvfsError(PvfsStatus::kIo, "write");
  }
  co_return d.get_u64();
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
  ++stats_.verifier_mismatches;
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
  if (obs::FlightRecorder* flight = fabric_.flight()) {
    flight->record(node_.simulation().now(), node_.name(), "pvfs.client",
                   "verifier.mismatch",
                   util::sformat("daemon %u %016llx -> %016llx, %llu bytes "
                                 "queued",
                                 static_cast<unsigned>(server_index),
                                 static_cast<unsigned long long>(old_verifier),
                                 static_cast<unsigned long long>(verifier),
                                 static_cast<unsigned long long>(moved)));
  }
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
    PieceMap pieces = std::move(sit->second);
    d.stale.erase(sit);
    const uint64_t max_regions =
        config_.listio_enabled
            ? std::max<uint32_t>(config_.listio_max_regions, 1)
            : 1;
    while (!pieces.empty()) {
      // Fold the next run of orphaned pieces into one vectored replay (the
      // region list of the dead incarnation's writes, re-sent wholesale).
      std::vector<IoRange> regions;
      std::vector<Payload> datas;
      Payload body;
      uint64_t bytes = 0;
      while (!pieces.empty() && regions.size() < max_regions) {
        auto pit = pieces.begin();
        const uint64_t poff = pit->first;
        const uint64_t plen = pit->second.data.size();
        if (!regions.empty() && bytes + plen > config_.buffer_size) break;
        Payload p = std::move(pit->second.data);
        pieces.erase(pit);
        regions.push_back({poff, plen});
        body.append(p);
        bytes += plen;
        datas.push_back(std::move(p));
      }
      try {
        const uint64_t verifier =
            co_await write_regions(dfile, regions, std::move(body), trace);
        replayed += regions.size();
        stats_.replayed_extents += regions.size();
        stats_.replayed_bytes += bytes;
        m_replayed_extents_->add(regions.size());
        m_replayed_bytes_->add(bytes);
        if (obs::FlightRecorder* flight = fabric_.flight()) {
          flight->record(node_.simulation().now(), node_.name(),
                         "pvfs.client", "wb.replay",
                         util::sformat("daemon %u object %llu %llu bytes "
                                       "%zu extents",
                                       static_cast<unsigned>(
                                           dfile.server_index),
                                       static_cast<unsigned long long>(
                                           dfile.object_id),
                                       static_cast<unsigned long long>(bytes),
                                       regions.size()));
        }
        note_daemon_verifier(dfile.server_index, verifier);
        for (size_t i = 0; i < regions.size(); ++i) {
          retain_piece(dfile.server_index, dfile.object_id, regions[i].offset,
                       std::move(datas[i]));
        }
      } catch (...) {
        // Preserve this batch and every not-yet-attempted piece: they are
        // the only copy of the data.  A later fsync retries.
        PieceMap& stale = daemons_.at(dfile.server_index).stale[dfile.object_id];
        for (size_t i = 0; i < regions.size(); ++i) {
          trim_range(stale, regions[i].offset, regions[i].length);
          stale.emplace(regions[i].offset, RetainedPiece{0, std::move(datas[i])});
        }
        for (auto& [ro, rest] : pieces) {
          trim_range(stale, ro, rest.data.size());
          stale.emplace(ro, std::move(rest));
        }
        throw;
      }
    }
  }
  co_return replayed;
}

// ---------------------------------------------------------------------------
// Namespace
// ---------------------------------------------------------------------------

Task<void> PvfsClient::mkdir(const std::string& path) {
  XdrEncoder args;
  args.put_string(path);
  auto reply = co_await meta_call(MetaProc::kMkdir, std::move(args));
  auto dec = reply.body();
  const PvfsStatus st = reply_status(dec);
  if (st != PvfsStatus::kOk) throw PvfsError(st, "mkdir " + path);
}

Task<void> PvfsClient::remove(const std::string& path) {
  XdrEncoder args;
  args.put_string(path);
  auto reply = co_await meta_call(MetaProc::kRemove, std::move(args));
  auto dec = reply.body();
  const PvfsStatus st = reply_status(dec);
  if (st != PvfsStatus::kOk) throw PvfsError(st, "remove " + path);
  const FileMeta removed = FileMeta::decode(dec);
  if (removed.handle == 0) co_return;  // was a directory
  // Client-driven reaping of storage objects.
  sim::WaitGroup wg(fabric_.simulation());
  for (const auto& dfile : removed.dfiles) {
    wg.spawn([](PvfsClient& self, DfileRef dfile) -> Task<void> {
      XdrEncoder a;
      a.put_u64(dfile.object_id);
      try {
        auto r = co_await self.io_call(dfile.server_index, IoProc::kRemove,
                                       std::move(a), 0);
        auto d = r.body();
        (void)reply_status(d);
      } catch (const PvfsError&) {
        // Best-effort reaping; a leaked object is not a correctness issue.
      }
    }(*this, dfile));
  }
  co_await wg.wait();
}

Task<void> PvfsClient::rename(const std::string& from, const std::string& to) {
  XdrEncoder args;
  args.put_string(from);
  args.put_string(to);
  auto reply = co_await meta_call(MetaProc::kRename, std::move(args));
  auto dec = reply.body();
  const PvfsStatus st = reply_status(dec);
  if (st != PvfsStatus::kOk) throw PvfsError(st, "rename " + from);
}

Task<std::vector<std::pair<std::string, bool>>> PvfsClient::readdir(
    const std::string& path) {
  XdrEncoder args;
  args.put_string(path);
  auto reply = co_await meta_call(MetaProc::kReaddir, std::move(args));
  auto dec = reply.body();
  const PvfsStatus st = reply_status(dec);
  if (st != PvfsStatus::kOk) throw PvfsError(st, "readdir " + path);
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
  XdrEncoder args;
  args.put_string(path);
  auto reply = co_await meta_call(MetaProc::kCreate, std::move(args));
  auto dec = reply.body();
  const PvfsStatus st = reply_status(dec);
  if (st != PvfsStatus::kOk) throw PvfsError(st, "create " + path);
  auto file = std::make_shared<PvfsFile>();
  file->meta = FileMeta::decode(dec);
  file->size = 0;
  // Create the dfile objects on every storage node (PVFS2 allocates the
  // full distribution eagerly at create time).
  sim::WaitGroup wg(fabric_.simulation());
  uint32_t failures = 0;
  for (const auto& dfile : file->meta.dfiles) {
    wg.spawn([](PvfsClient& self, const DfileRef dfile,
                uint32_t& failures) -> Task<void> {
      XdrEncoder a;
      a.put_u64(dfile.object_id);
      try {
        auto r = co_await self.io_call(dfile.server_index, IoProc::kCreate,
                                       std::move(a), 0);
        auto d = r.body();
        if (reply_status(d) != PvfsStatus::kOk) ++failures;
      } catch (const PvfsError&) {
        ++failures;
      }
    }(*this, dfile, failures));
  }
  co_await wg.wait();
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
  XdrEncoder args;
  args.put_string(path);
  auto reply = co_await meta_call(MetaProc::kLookup, std::move(args));
  auto dec = reply.body();
  const PvfsStatus st = reply_status(dec);
  if (st != PvfsStatus::kOk) throw PvfsError(st, "open " + path);
  auto file = std::make_shared<PvfsFile>();
  file->meta = FileMeta::decode(dec);
  file->size = co_await fetch_size(file);
  co_return file;
}

Task<uint64_t> PvfsClient::fetch_size(PvfsFilePtr file) {
  // PVFS2-style attribute gathering: query every storage node.
  std::vector<uint64_t> sizes(file->meta.dfiles.size(), 0);
  sim::WaitGroup wg(fabric_.simulation());
  bool failed = false;
  for (size_t i = 0; i < file->meta.dfiles.size(); ++i) {
    wg.spawn([](PvfsClient& self, const DfileRef dfile, uint64_t& out,
                bool& failed) -> Task<void> {
      XdrEncoder a;
      a.put_u64(dfile.object_id);
      try {
        auto r = co_await self.io_call(dfile.server_index, IoProc::kGetSize,
                                       std::move(a), 0);
        auto d = r.body();
        if (reply_status(d) == PvfsStatus::kOk) out = d.get_u64();
      } catch (const PvfsError&) {
        failed = true;
      }
    }(*this, file->meta.dfiles[i], sizes[i], failed));
  }
  co_await wg.wait();
  // A missing dfile size would silently shrink the logical size and truncate
  // reads — surface the failure instead.  Redundant distributions tolerate
  // unreachable daemons: surviving replicas/shards still bound the size (the
  // MDS-side LAYOUTCOMMIT size floor covers the final-stripe ambiguity).
  if (failed && file->meta.kind == DistKind::kStripe) {
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
  const auto extents = map_stripes(file->meta, offset, end - offset);

  // Split each extent into buffer_size requests; the pool bounds parallelism.
  struct Piece {
    uint32_t dfile_index;
    uint64_t dfile_offset;
    uint64_t file_offset;
    uint64_t length;
    Payload result;
  };
  std::vector<Piece> pieces;
  for (const auto& ext : extents) {
    uint64_t done = 0;
    while (done < ext.length) {
      const uint64_t n = std::min(config_.buffer_size, ext.length - done);
      pieces.push_back(Piece{ext.dfile_index, ext.dfile_offset + done,
                             ext.file_offset + done, n, Payload{}});
      done += n;
    }
  }

  // List I/O: fold the pieces of each dfile into vectored requests of up to
  // listio_max_regions regions / buffer_size bytes.  A 1-element batch goes
  // out as the classic kRead, so the batching is free for sequential I/O.
  std::map<uint32_t, std::vector<size_t>> by_dfile;
  for (size_t i = 0; i < pieces.size(); ++i) {
    by_dfile[pieces[i].dfile_index].push_back(i);
  }
  const uint64_t max_regions =
      config_.listio_enabled ? std::max<uint32_t>(config_.listio_max_regions, 1)
                             : 1;
  std::vector<std::vector<size_t>> batches;
  for (auto& [dfi, idxs] : by_dfile) {
    std::vector<size_t> cur;
    uint64_t bytes = 0;
    for (size_t i : idxs) {
      if (!cur.empty() && (cur.size() >= max_regions ||
                           bytes + pieces[i].length > config_.buffer_size)) {
        batches.push_back(std::move(cur));
        cur.clear();
        bytes = 0;
      }
      cur.push_back(i);
      bytes += pieces[i].length;
    }
    if (!cur.empty()) batches.push_back(std::move(cur));
  }

  sim::WaitGroup wg(fabric_.simulation());
  bool failed = false;
  for (auto& batch : batches) {
    wg.spawn([](PvfsClient& self, const FileMeta& meta,
                std::vector<Piece>& pieces, std::vector<size_t> idx,
                bool& failed, const obs::TraceContext trace) -> Task<void> {
      const DfileRef& dfile = meta.dfiles[pieces[idx[0]].dfile_index];
      std::vector<IoRange> regions;
      regions.reserve(idx.size());
      for (size_t i : idx) {
        regions.push_back({pieces[i].dfile_offset, pieces[i].length});
      }
      try {
        auto out = co_await self.read_regions(dfile, regions, trace);
        for (size_t k = 0; k < idx.size(); ++k) {
          pieces[idx[k]].result = std::move(out[k]);
        }
      } catch (const PvfsError&) {
        failed = true;
      }
    }(*this, file->meta, pieces, std::move(batch), failed, trace));
  }
  co_await wg.wait();
  if (failed) throw PvfsError(PvfsStatus::kIo, "read");

  Payload out;
  for (auto& piece : pieces) out.append(piece.result);
  stats_.bytes_read += out.size();
  co_return out;
}

Task<void> PvfsClient::write(PvfsFilePtr file, uint64_t offset, Payload data,
                             obs::TraceContext trace) {
  const uint64_t len = data.size();
  const auto extents = map_stripes_write(file->meta, offset, len);

  struct WritePiece {
    uint32_t dfile_index;
    uint64_t dfile_offset;
    Payload data;
  };
  std::vector<WritePiece> pieces;
  for (const auto& ext : extents) {
    uint64_t done = 0;
    while (done < ext.length) {
      const uint64_t n = std::min(config_.buffer_size, ext.length - done);
      pieces.push_back(WritePiece{
          ext.dfile_index, ext.dfile_offset + done,
          data.slice(ext.file_offset - offset + done, n)});
      done += n;
    }
  }

  // Same per-dfile folding as read(): each batch is one kWrite (1 region)
  // or one kWritev (many regions under one verifier).
  std::map<uint32_t, std::vector<size_t>> by_dfile;
  for (size_t i = 0; i < pieces.size(); ++i) {
    by_dfile[pieces[i].dfile_index].push_back(i);
  }
  const uint64_t max_regions =
      config_.listio_enabled ? std::max<uint32_t>(config_.listio_max_regions, 1)
                             : 1;
  std::vector<std::vector<size_t>> batches;
  for (auto& [dfi, idxs] : by_dfile) {
    std::vector<size_t> cur;
    uint64_t bytes = 0;
    for (size_t i : idxs) {
      if (!cur.empty() && (cur.size() >= max_regions ||
                           bytes + pieces[i].data.size() > config_.buffer_size)) {
        batches.push_back(std::move(cur));
        cur.clear();
        bytes = 0;
      }
      cur.push_back(i);
      bytes += pieces[i].data.size();
    }
    if (!cur.empty()) batches.push_back(std::move(cur));
  }

  sim::WaitGroup wg(fabric_.simulation());
  bool failed = false;
  for (auto& batch : batches) {
    wg.spawn([](PvfsClient& self, const FileMeta& meta,
                std::vector<WritePiece>& pieces, std::vector<size_t> idx,
                bool& failed, const obs::TraceContext trace) -> Task<void> {
      const DfileRef& dfile = meta.dfiles[pieces[idx[0]].dfile_index];
      std::vector<IoRange> regions;
      regions.reserve(idx.size());
      Payload body;
      for (size_t i : idx) {
        regions.push_back({pieces[i].dfile_offset, pieces[i].data.size()});
        body.append(pieces[i].data);
      }
      try {
        const uint64_t verifier =
            co_await self.write_regions(dfile, regions, std::move(body), trace);
        // The daemon buffered the bytes; keep our copies until a commit by
        // the same incarnation makes them durable.  One verifier covers the
        // whole region list.
        self.note_daemon_verifier(dfile.server_index, verifier);
        for (size_t i : idx) {
          self.retain_piece(dfile.server_index, dfile.object_id,
                            pieces[i].dfile_offset, std::move(pieces[i].data));
        }
      } catch (const PvfsError&) {
        failed = true;
      }
    }(*this, file->meta, pieces, std::move(batch), failed, trace));
  }
  co_await wg.wait();
  if (failed) throw PvfsError(PvfsStatus::kIo, "write");
  file->size = std::max(file->size, offset + len);
  stats_.bytes_written += len;
}

Task<void> PvfsClient::fsync(PvfsFilePtr file, obs::TraceContext trace) {
  // fsync drives the commit/replay loop: re-send pieces orphaned by daemon
  // restarts, then commit every dfile and check the returned write verifier
  // against the incarnation that buffered our writes.  A mismatch means the
  // buffered bytes died with the old incarnation — requeue and go again.
  constexpr int kMaxRounds = 8;
  for (int round = 0; round < kMaxRounds; ++round) {
    co_await replay_stale(file, trace);

    bool mismatch = false;
    bool failed = false;
    sim::WaitGroup wg(fabric_.simulation());
    for (const auto& dfile : file->meta.dfiles) {
      // Pieces retained after this point raced the commit and may not be
      // covered by it — only retire ones whose write reply already arrived.
      const uint64_t cutoff = retain_seq_;
      wg.spawn([](PvfsClient& self, const DfileRef dfile, uint64_t cutoff,
                  bool& mismatch, bool& failed,
                  const obs::TraceContext trace) -> Task<void> {
        XdrEncoder a;
        a.put_u64(dfile.object_id);
        try {
          auto r = co_await self.io_call(dfile.server_index, IoProc::kCommit,
                                         std::move(a), 0, trace);
          auto d = r.body();
          if (reply_status(d) != PvfsStatus::kOk) {
            failed = true;
            co_return;
          }
          const uint64_t verifier = d.get_u64();
          DaemonState& ds = self.daemons_.at(dfile.server_index);
          const bool known = ds.verifier_known;
          const uint64_t expected = ds.verifier;
          self.note_daemon_verifier(dfile.server_index, verifier);
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
        } catch (const PvfsError&) {
          failed = true;
        }
      }(*this, dfile, cutoff, mismatch, failed, trace));
    }
    co_await wg.wait();
    if (failed) throw PvfsError(PvfsStatus::kIo, "fsync");

    bool pending = mismatch;
    for (const auto& dfile : file->meta.dfiles) {
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
  const uint64_t n = file->meta.dfiles.size();
  sim::WaitGroup wg(fabric_.simulation());
  bool failed = false;
  for (uint64_t i = 0; i < n; ++i) {
    // Bytes of dfile i that lie below `size` under the distribution.
    const uint64_t dsize =
        dfile_size_for(file->meta, static_cast<uint32_t>(i), size);
    // Replay must not resurrect bytes above the new end of the dfile.
    {
      DaemonState& ds = daemons_.at(file->meta.dfiles[i].server_index);
      const uint64_t oid = file->meta.dfiles[i].object_id;
      auto rit = ds.retained.find(oid);
      if (rit != ds.retained.end()) {
        trim_range(rit->second, dsize, ~0ull - dsize);
      }
      auto sit = ds.stale.find(oid);
      if (sit != ds.stale.end()) {
        trim_range(sit->second, dsize, ~0ull - dsize);
      }
    }
    wg.spawn([](PvfsClient& self, const DfileRef dfile, uint64_t dsize,
                bool& failed) -> Task<void> {
      XdrEncoder a;
      a.put_u64(dfile.object_id);
      a.put_u64(dsize);
      try {
        auto r = co_await self.io_call(dfile.server_index, IoProc::kTruncate,
                                       std::move(a), 0);
        auto d = r.body();
        if (reply_status(d) != PvfsStatus::kOk) failed = true;
      } catch (const PvfsError&) {
        failed = true;
      }
    }(*this, file->meta.dfiles[i], dsize, failed));
  }
  co_await wg.wait();
  if (failed) throw PvfsError(PvfsStatus::kIo, "truncate");
  file->size = size;
}

}  // namespace dpnfs::pvfs
