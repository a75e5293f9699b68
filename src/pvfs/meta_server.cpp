#include "pvfs/meta_server.hpp"

#include "util/log.hpp"

namespace dpnfs::pvfs {

using rpc::XdrDecoder;
using rpc::XdrEncoder;
using sim::Task;

namespace {

std::vector<std::string> components(const std::string& path) {
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

}  // namespace

PvfsMetaServer::PvfsMetaServer(rpc::RpcFabric& fabric, sim::Node& node,
                               uint16_t port, uint32_t storage_count,
                               MetaServerConfig config)
    : fabric_(fabric),
      node_(node),
      storage_count_(storage_count),
      config_(config) {
  root_.is_dir = true;
  rpc_server_ = std::make_unique<rpc::RpcServer>(
      fabric, node, port, config.workers,
      [this](const rpc::CallContext& ctx, XdrDecoder& args,
             XdrEncoder& results) -> Task<void> {
        return serve(ctx, args, results);
      });
}

PvfsMetaServer::Entry* PvfsMetaServer::walk(const std::string& path) {
  Entry* cur = &root_;
  for (const auto& comp : components(path)) {
    if (!cur->is_dir) return nullptr;
    auto it = cur->children.find(comp);
    if (it == cur->children.end()) return nullptr;
    cur = it->second.get();
  }
  return cur;
}

PvfsStatus PvfsMetaServer::walk_parent(const std::string& path, Entry** parent,
                                       std::string* leaf) {
  if (path.empty() || path[0] != '/' || path == "/") return PvfsStatus::kInval;
  const size_t slash = path.find_last_of('/');
  const std::string dir = (slash == 0) ? "/" : path.substr(0, slash);
  *leaf = path.substr(slash + 1);
  if (leaf->empty()) return PvfsStatus::kInval;
  Entry* p = walk(dir);
  if (p == nullptr) return PvfsStatus::kNoEnt;
  if (!p->is_dir) return PvfsStatus::kNotDir;
  *parent = p;
  return PvfsStatus::kOk;
}

FileMeta PvfsMetaServer::make_distribution() {
  FileMeta meta;
  meta.handle = next_handle_++;
  meta.stripe_unit = config_.stripe_unit;
  meta.kind = config_.distribution;
  const uint32_t active = active_storage();
  uint32_t width = active;
  switch (config_.distribution) {
    case DistKind::kMirror:
      width = std::min(config_.replicas, active);
      break;
    case DistKind::kErasure:
      meta.ec_k = config_.ec_k;
      meta.ec_m = config_.ec_m;
      width = config_.ec_k + config_.ec_m;
      if (width > active) {
        throw PvfsError(PvfsStatus::kInval,
                        "make_distribution: ec_k+ec_m exceeds active nodes");
      }
      break;
    case DistKind::kStripe:
      break;
  }
  if (width == 0) {
    throw PvfsError(PvfsStatus::kInval, "make_distribution: no active nodes");
  }
  const uint32_t start = next_start_node_;
  next_start_node_ = (next_start_node_ + 1) % active;
  for (uint32_t i = 0; i < width; ++i) {
    meta.dfiles.push_back(DfileRef{(start + i) % active, next_object_++});
  }
  return meta;
}

void PvfsMetaServer::for_each_file(
    const std::function<void(FileMeta&)>& fn) {
  // by_handle_ indexes every regular file; cast away the view-constness (the
  // entries live in our own tree).
  for (auto& [handle, meta] : by_handle_) {
    fn(*const_cast<FileMeta*>(meta));
  }
}

Task<void> PvfsMetaServer::serve(const rpc::CallContext& ctx, XdrDecoder& args,
                                 XdrEncoder& results) {
  co_await node_.cpu().execute(config_.cpu_per_op);
  const auto proc = static_cast<MetaProc>(ctx.header.proc);
  // Mutating operations synchronously journal to the metadata manager's
  // disk (PVFS2 commits its Berkeley DB on every namespace change).
  switch (proc) {
    case MetaProc::kMkdir:
    case MetaProc::kCreate:
    case MetaProc::kRemove:
    case MetaProc::kRename:
      if (node_.has_disk()) {
        co_await node_.disk().io((1ull << 50) + (1ull << 40), 4096);
      }
      break;
    default:
      break;
  }
  // Every reply starts with a PvfsStatus; bodies follow on success.
  switch (proc) {
    case MetaProc::kMkdir: {
      const std::string path = args.get_string();
      Entry* parent = nullptr;
      std::string leaf;
      PvfsStatus st = walk_parent(path, &parent, &leaf);
      if (st == PvfsStatus::kOk && parent->children.contains(leaf)) {
        st = PvfsStatus::kExist;
      }
      results.put_u32(static_cast<uint32_t>(st));
      if (st == PvfsStatus::kOk) {
        auto e = std::make_unique<Entry>();
        e->is_dir = true;
        parent->children.emplace(leaf, std::move(e));
      }
      co_return;
    }
    case MetaProc::kCreate: {
      const std::string path = args.get_string();
      Entry* parent = nullptr;
      std::string leaf;
      PvfsStatus st = walk_parent(path, &parent, &leaf);
      if (st == PvfsStatus::kOk && parent->children.contains(leaf)) {
        st = PvfsStatus::kExist;
      }
      results.put_u32(static_cast<uint32_t>(st));
      if (st == PvfsStatus::kOk) {
        auto e = std::make_unique<Entry>();
        e->is_dir = false;
        e->meta = make_distribution();
        const Entry* stored = e.get();
        parent->children.emplace(leaf, std::move(e));
        by_handle_[stored->meta.handle] = &stored->meta;
        stored->meta.encode(results);
      }
      co_return;
    }
    case MetaProc::kLookup: {
      const std::string path = args.get_string();
      const Entry* e = walk(path);
      PvfsStatus st = PvfsStatus::kOk;
      if (e == nullptr) {
        st = PvfsStatus::kNoEnt;
      } else if (e->is_dir) {
        st = PvfsStatus::kIsDir;
      }
      results.put_u32(static_cast<uint32_t>(st));
      if (st == PvfsStatus::kOk) e->meta.encode(results);
      co_return;
    }
    case MetaProc::kRemove: {
      const std::string path = args.get_string();
      Entry* parent = nullptr;
      std::string leaf;
      PvfsStatus st = walk_parent(path, &parent, &leaf);
      FileMeta removed;
      if (st == PvfsStatus::kOk) {
        auto it = parent->children.find(leaf);
        if (it == parent->children.end()) {
          st = PvfsStatus::kNoEnt;
        } else if (it->second->is_dir && !it->second->children.empty()) {
          st = PvfsStatus::kNotEmpty;
        } else {
          if (!it->second->is_dir) {
            removed = it->second->meta;
            by_handle_.erase(removed.handle);
          }
          parent->children.erase(it);
        }
      }
      results.put_u32(static_cast<uint32_t>(st));
      // The dfile list goes back so the client can reap the storage objects
      // (PVFS2's client-driven remove).
      if (st == PvfsStatus::kOk) removed.encode(results);
      co_return;
    }
    case MetaProc::kRename: {
      const std::string from = args.get_string();
      const std::string to = args.get_string();
      Entry* src_parent = nullptr;
      Entry* dst_parent = nullptr;
      std::string src_leaf, dst_leaf;
      PvfsStatus st = walk_parent(from, &src_parent, &src_leaf);
      if (st == PvfsStatus::kOk) st = walk_parent(to, &dst_parent, &dst_leaf);
      if (st == PvfsStatus::kOk) {
        auto it = src_parent->children.find(src_leaf);
        if (it == src_parent->children.end()) {
          st = PvfsStatus::kNoEnt;
        } else if (dst_parent->children.contains(dst_leaf)) {
          st = PvfsStatus::kExist;
        } else {
          dst_parent->children.emplace(dst_leaf, std::move(it->second));
          src_parent->children.erase(it);
        }
      }
      results.put_u32(static_cast<uint32_t>(st));
      co_return;
    }
    case MetaProc::kReaddir: {
      const std::string path = args.get_string();
      const Entry* e = walk(path);
      PvfsStatus st = PvfsStatus::kOk;
      if (e == nullptr) {
        st = PvfsStatus::kNoEnt;
      } else if (!e->is_dir) {
        st = PvfsStatus::kNotDir;
      }
      results.put_u32(static_cast<uint32_t>(st));
      if (st == PvfsStatus::kOk) {
        results.put_u32(static_cast<uint32_t>(e->children.size()));
        for (const auto& [name, child] : e->children) {
          results.put_string(name);
          results.put_bool(child->is_dir);
        }
      }
      co_return;
    }
  }
  results.put_u32(static_cast<uint32_t>(PvfsStatus::kInval));
}

}  // namespace dpnfs::pvfs
