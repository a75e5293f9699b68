// The four workloads: deployment configuration, untimed set-up, the timed
// phase, and the untimed verification pass that checks real bytes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/adapters.hpp"
#include "perfbench.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"
#include "workload/openloop.hpp"

namespace perfbench {

namespace {

using rpc::Payload;
using sim::Task;

constexpr uint64_t kKiB = 1024, kMiB = 1024 * kKiB, kGiB = 1024 * kMiB;

// stream_*: 8 clients, one file each, 8 KB application blocks.  8 x 2 GiB
// exceeds the 6 x 1.5 GiB of object-store cache, so read-back reaches disk.
constexpr uint32_t kStreamClients = 8;
constexpr uint64_t kStreamBytesPerClient = 2 * kGiB;
constexpr uint64_t kStreamBlock = 8 * kKiB;

// oltp_rmw: 8 clients on one shared 2 GiB file (above one client's 1 GiB
// page cache, within the storage caches), read-modify-write-fsync on 8 KB.
constexpr uint32_t kOltpClients = 8;
constexpr uint64_t kOltpFileBytes = 2 * kGiB;
constexpr uint64_t kOltpPage = 8 * kKiB;
constexpr uint32_t kOltpTxnsPerClient = 4000;

// openloop_sessions: Poisson session arrivals below the knee over 16 client
// nodes and 4 tenants weighted 4:3:2:1.
constexpr uint32_t kOpenClients = 16;
constexpr double kOpenRate = 250.0;
constexpr int64_t kOpenWindowS = 40;
constexpr uint64_t kOpenFileBytes = 64 * kMiB;

// Verification pass: spans a stripe boundary (2 MB stripes) and ends on an
// odd length.
constexpr uint64_t kVerifyBytes = 5 * kMiB + 12345;
constexpr uint64_t kVerifyChunk = 256 * kKiB;

constexpr Workload kWorkloads[] = {
    {"stream_direct", Kind::kStream, core::Architecture::kDirectPnfs},
    {"stream_2tier", Kind::kStream, core::Architecture::kPnfs2Tier},
    {"oltp_rmw", Kind::kOltp, core::Architecture::kDirectPnfs},
    {"openloop_sessions", Kind::kOpenLoop, core::Architecture::kDirectPnfs},
};

uint32_t client_count(Kind k) {
  switch (k) {
    case Kind::kStream: return kStreamClients;
    case Kind::kOltp: return kOltpClients;
    case Kind::kOpenLoop: return kOpenClients;
  }
  return 1;
}

// The paper's testbed (§6.1): ClusterConfig's defaults plus six storage
// nodes, one doubling as metadata manager.  Timed runs keep production
// observability: 1% head sampling with 500 ms tail promotion.  Traced runs
// retain every span.
core::ClusterConfig make_config(const Workload& w, uint64_t seed,
                                bool traced) {
  core::ClusterConfig cfg;
  cfg.architecture = w.arch;
  cfg.storage_nodes = 6;
  cfg.clients = client_count(w.kind);
  cfg.start_stagger_seed = util::Rng(seed).fork(11).next();
  cfg.trace_sample_seed = util::Rng(seed).fork(12).next();
  if (w.kind == Kind::kOpenLoop) cfg.tenants = 4;
  if (traced) {
    cfg.trace_sample_rate = 1.0;
    cfg.trace_span_capacity = size_t{1} << 26;
  } else {
    cfg.trace_sample_rate = 0.01;
    cfg.trace_slo_threshold = sim::ms(500);
  }
  return cfg;
}

std::string stream_path(size_t i) { return "/stream/f" + std::to_string(i); }
std::string open_path(size_t i) { return "/openloop/f" + std::to_string(i); }

struct Ctx {
  core::Deployment& d;
  const Workload& w;
  uint64_t seed;
  RepResult& r;
  bool probe = false;  ///< sample the event queue (traced runs)
  bool running = false;
  uint64_t queue_samples = 0;
  double queue_sum = 0;
  uint64_t in_flight = 0;

  sim::Simulation& sim() { return d.simulation(); }
  void begin_unit() {
    r.peak_concurrency = std::max(r.peak_concurrency, ++in_flight);
  }
  void end_unit() { --in_flight; }
  void fail(const std::exception& e) {
    ++r.ops.failed;
    if (r.ops.first_error.empty()) r.ops.first_error = e.what();
  }
};

constexpr int64_t kFailedLatency = std::numeric_limits<int64_t>::max();

// --- Guarded application calls -------------------------------------------

Task<std::unique_ptr<core::File>> do_open(Ctx& c, core::FileSystemClient& fs,
                                          std::string path, bool create,
                                          bool read_only = false) {
  // Plain if/else: GCC 12 mishandles co_await inside a conditional operator.
  ++c.r.ops.attempted;
  std::unique_ptr<core::File> f;
  try {
    if (read_only) {
      f = co_await fs.open_read(path);
    } else {
      f = co_await fs.open(path, create);
    }
  } catch (const std::exception& e) {
    c.fail(e);
  }
  co_return f;
}

Task<bool> do_read(Ctx& c, core::File& f, uint64_t off, uint64_t len) {
  ++c.r.ops.attempted;
  try {
    const Payload got = co_await f.read(off, len);
    c.r.ops.bytes_read += got.size();
    if (got.size() == len) co_return true;
    ++c.r.ops.short_reads;
    c.fail(std::runtime_error("short read"));
  } catch (const std::exception& e) {
    c.fail(e);
  }
  co_return false;
}

Task<bool> do_write(Ctx& c, core::File& f, uint64_t off, uint64_t len) {
  ++c.r.ops.attempted;
  try {
    co_await f.write(off, Payload::virtual_bytes(len));
    c.r.ops.bytes_written += len;
    co_return true;
  } catch (const std::exception& e) {
    c.fail(e);
  }
  co_return false;
}

Task<bool> do_fsync(Ctx& c, core::File& f) {
  ++c.r.ops.attempted;
  try {
    co_await f.fsync();
    co_return true;
  } catch (const std::exception& e) {
    c.fail(e);
  }
  co_return false;
}

Task<bool> do_close(Ctx& c, core::File& f) {
  ++c.r.ops.attempted;
  try {
    co_await f.close();
    co_return true;
  } catch (const std::exception& e) {
    c.fail(e);
  }
  co_return false;
}

Task<void> stagger(Ctx& c, uint64_t stream) {
  const auto& cfg = c.d.config();
  if (cfg.start_stagger <= 0) co_return;
  co_await c.sim().delay(static_cast<sim::Duration>(
      util::Rng(cfg.start_stagger_seed)
          .fork(stream)
          .below(static_cast<uint64_t>(cfg.start_stagger))));
}

// --- Set-up (untimed) -----------------------------------------------------

Task<void> prefill(core::FileSystemClient& fs, std::string path,
                   uint64_t bytes) {
  auto f = co_await fs.open(path, true);
  for (uint64_t off = 0; off < bytes; off += 4 * kMiB) {
    co_await f->write(off, Payload::virtual_bytes(std::min(4 * kMiB, bytes - off)));
  }
  co_await f->close();
}

Task<void> setup(Ctx& c, bool& ok) {
  core::Deployment& d = c.d;
  co_await d.mount_all();
  co_await d.client(0).mkdir("/verify");
  switch (c.w.kind) {
    case Kind::kStream:
      co_await d.client(0).mkdir("/stream");
      break;
    case Kind::kOltp:
      co_await d.client(0).mkdir("/oltp");
      co_await prefill(d.client(0), "/oltp/db", kOltpFileBytes);
      break;
    case Kind::kOpenLoop:
      co_await d.client(0).mkdir("/openloop");
      for (size_t i = 0; i < d.client_count(); ++i) {
        co_await prefill(d.client(i), open_path(i), kOpenFileBytes);
      }
      break;
  }
  ok = true;
}

// --- Timed phase ----------------------------------------------------------

// One client's pass over its file, open to close, is the stream workloads'
// unit of work ("transaction"): the time a streaming application waits for
// its data.  Single 8 KB calls mostly cost only the client's fixed per-byte
// CPU charge and would not see the storage at all.
Task<void> stream_client(Ctx& c, size_t i, bool write) {
  co_await stagger(c, write ? i : kStreamClients + i);
  const sim::Time due = c.sim().now();
  c.begin_unit();
  bool ok = false;
  if (auto f = co_await do_open(c, c.d.client(i), stream_path(i), write,
                                !write)) {
    ok = true;
    for (uint64_t off = 0; off < kStreamBytesPerClient; off += kStreamBlock) {
      if (write) {
        ok &= co_await do_write(c, *f, off, kStreamBlock);
      } else {
        ok &= co_await do_read(c, *f, off, kStreamBlock);
      }
    }
    if (write) ok &= co_await do_fsync(c, *f);
    ok &= co_await do_close(c, *f);
  }
  c.r.unit_latency_ns.push_back(ok ? c.sim().now() - due : kFailedLatency);
  ++c.r.units;
  c.end_unit();
}

Task<void> stream_phase(Ctx& c, bool write) {
  sim::WaitGroup wg(c.sim());
  for (size_t i = 0; i < c.d.client_count(); ++i) {
    wg.spawn(stream_client(c, i, write));
  }
  co_await wg.wait();
}

Task<void> oltp_client(Ctx& c, size_t i) {
  co_await stagger(c, i);
  util::Rng rng = util::Rng(c.seed).fork(100 + i);
  auto f = co_await do_open(c, c.d.client(i), "/oltp/db", false);
  if (!f) co_return;
  const uint64_t pages = kOltpFileBytes / kOltpPage;
  for (uint32_t t = 0; t < kOltpTxnsPerClient; ++t) {
    const sim::Time due = c.sim().now();
    c.begin_unit();
    const uint64_t off = rng.below(pages) * kOltpPage;
    bool ok = co_await do_read(c, *f, off, kOltpPage);
    if (ok) ok = co_await do_write(c, *f, off, kOltpPage);
    if (ok) ok = co_await do_fsync(c, *f);
    c.r.unit_latency_ns.push_back(ok ? c.sim().now() - due : kFailedLatency);
    ++c.r.units;
    c.end_unit();
  }
  co_await do_close(c, *f);
}

workload::OpenLoopConfig open_config(uint64_t seed) {
  workload::OpenLoopConfig ol;
  ol.seed = util::Rng(seed).fork(13).next();
  ol.rate_per_sec = kOpenRate;
  ol.duration = sim::sec(kOpenWindowS);
  ol.tenant_weights = {4, 3, 2, 1};
  ol.ops_per_session = 4;
  ol.bytes_per_op = 64 * kKiB;
  ol.read_fraction = 0.5;
  ol.file_bytes = kOpenFileBytes;
  return ol;
}

Task<void> session(Ctx& c, workload::Arrival a, sim::Time due, size_t node) {
  const workload::OpenLoopConfig ol = open_config(c.seed);
  util::Rng rng(a.session_seed);
  bool ok = false;
  if (auto f = co_await do_open(c, c.d.client(node), open_path(node), false)) {
    ok = true;
    const uint64_t slots = ol.file_bytes / ol.bytes_per_op;
    for (uint32_t op = 0; op < ol.ops_per_session; ++op) {
      const uint64_t off = rng.below(slots) * ol.bytes_per_op;
      if (rng.chance(ol.read_fraction)) {
        ok &= co_await do_read(c, *f, off, ol.bytes_per_op);
      } else {
        ok &= co_await do_write(c, *f, off, ol.bytes_per_op);
      }
    }
    const bool synced = co_await do_fsync(c, *f);
    const bool closed = co_await do_close(c, *f);
    ok = ok && synced && closed;
  }
  // Sojourn: scheduled arrival to completion, so backlog shows as latency.
  c.r.unit_latency_ns.push_back(ok ? c.sim().now() - due : kFailedLatency);
  ++c.r.units;
  c.end_unit();
}

// Tenant t's sessions land on the nodes stamped with tenant t (nodes t-1,
// t-1+T, ...), round-robin, as in workload::run_open_loop.
Task<void> open_loop(Ctx& c) {
  const std::vector<workload::Arrival> arrivals =
      workload::generate_arrivals(open_config(c.seed));
  const size_t n = c.d.client_count();
  const uint32_t tenants = c.d.config().tenants;
  std::vector<uint64_t> rr(tenants + 1, 0);
  const sim::Time t0 = c.sim().now();
  sim::WaitGroup wg(c.sim());
  for (const workload::Arrival& a : arrivals) {
    const sim::Time due = t0 + a.at;
    if (due > c.sim().now()) co_await c.sim().delay(due - c.sim().now());
    size_t node = rr[0]++ % n;
    if (a.tenant != 0 && a.tenant <= tenants) {
      const size_t stride = (n - (a.tenant - 1) + tenants - 1) / tenants;
      node = (a.tenant - 1) + (rr[a.tenant]++ % stride) * tenants;
    }
    c.begin_unit();
    wg.spawn(session(c, a, due, node));
  }
  co_await wg.wait();
}

Task<void> queue_probe(Ctx& c) {
  while (c.running) {
    c.queue_sum += static_cast<double>(c.sim().queue_depth());
    ++c.queue_samples;
    co_await c.sim().delay(sim::ms(1));
  }
}

Task<void> timed(Ctx& c, bool& ok) {
  core::Deployment& d = c.d;
  RepResult& r = c.r;
  c.running = true;
  if (c.probe) c.sim().spawn(queue_probe(c));
  d.start_sampling();
  r.t0 = c.sim().now();
  switch (c.w.kind) {
    case Kind::kStream: {
      r.write_t0 = c.sim().now();
      co_await stream_phase(c, /*write=*/true);
      r.write_t1 = c.sim().now();
      r.phase_write_bytes = r.ops.bytes_written;
      // Cold read-back, as the paper's separate read runs: nothing cached
      // on clients or servers.
      for (size_t i = 0; i < d.client_count(); ++i) d.client(i).drop_caches();
      d.drop_all_server_caches();
      r.read_t0 = c.sim().now();
      co_await stream_phase(c, /*write=*/false);
      r.read_t1 = c.sim().now();
      r.phase_read_bytes = r.ops.bytes_read;
      break;
    }
    case Kind::kOltp: {
      sim::WaitGroup wg(c.sim());
      for (size_t i = 0; i < d.client_count(); ++i) wg.spawn(oltp_client(c, i));
      co_await wg.wait();
      break;
    }
    case Kind::kOpenLoop:
      co_await open_loop(c);
      break;
  }
  r.t1 = c.sim().now();
  if (c.w.kind != Kind::kStream) {
    r.write_t0 = r.read_t0 = r.t0;
    r.write_t1 = r.read_t1 = r.t1;
    r.phase_write_bytes = r.ops.bytes_written;
    r.phase_read_bytes = r.ops.bytes_read;
  }
  d.stop_sampling();
  c.running = false;
  ok = true;
}

// --- Verification pass (untimed) -------------------------------------------

std::vector<std::byte> verify_pattern(uint64_t seed) {
  util::Rng rng = util::Rng(seed).fork(14);
  std::vector<std::byte> out(kVerifyBytes);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

Task<void> verify(Ctx& c, std::string& error) {
  core::Deployment& d = c.d;
  const std::vector<std::byte> want = verify_pattern(c.seed);
  try {
    auto w = co_await d.client(0).open("/verify/pattern", true);
    for (uint64_t off = 0; off < want.size(); off += kVerifyChunk) {
      const uint64_t n = std::min<uint64_t>(kVerifyChunk, want.size() - off);
      co_await w->write(off, Payload::inline_bytes(std::vector<std::byte>(
                                 want.begin() + off, want.begin() + off + n)));
    }
    co_await w->fsync();
    co_await w->close();

    core::FileSystemClient& reader = d.client(1);
    reader.drop_caches();
    auto f = co_await reader.open_read("/verify/pattern");
    if (f->size() != want.size()) {
      error = "verify: size " + std::to_string(f->size()) + " != " +
              std::to_string(want.size());
      co_return;
    }
    for (uint64_t off = 0; off < want.size(); off += kMiB) {
      const uint64_t n = std::min<uint64_t>(kMiB, want.size() - off);
      const Payload got = co_await f->read(off, n);
      if (got.size() != n || !got.is_inline() ||
          !std::equal(got.data().begin(), got.data().end(),
                      want.begin() + off)) {
        error = "verify: bytes differ in [" + std::to_string(off) + ", " +
                std::to_string(off + n) + ")";
        co_return;
      }
    }
    co_await f->close();
  } catch (const std::exception& e) {
    error = std::string("verify: ") + e.what();
  }
}

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

void run_setup(Ctx& c) {
  bool ok = false;
  c.sim().spawn(setup(c, ok));
  c.sim().run();
  if (!ok) throw std::runtime_error("set-up did not complete");
}

}  // namespace

double time_setup(const Workload& w, uint64_t seed) {
  RepResult r;
  const auto h0 = std::chrono::steady_clock::now();
  core::Deployment d(make_config(w, seed, /*traced=*/false));
  Ctx c{d, w, seed, r};
  run_setup(c);
  return seconds_since(h0);
}

RepResult run_rep(const Workload& w, uint64_t seed, bool traced,
                  const Inspect& inspect) {
  RepResult r;
  core::Deployment d(make_config(w, seed, traced));
  Ctx c{d, w, seed, r};
  c.probe = traced;
  run_setup(c);

  r.before = take_snapshot(d);
  const auto h1 = std::chrono::steady_clock::now();
  bool ok = false;
  d.simulation().spawn(timed(c, ok));
  d.simulation().run();
  r.wall_s = seconds_since(h1);
  if (!ok) throw std::runtime_error("timed phase did not complete");
  r.after = take_snapshot(d);
  if (c.queue_samples > 0) r.mean_queue_depth = c.queue_sum / c.queue_samples;
  if (w.kind == Kind::kStream &&
      (r.phase_write_bytes != kStreamClients * kStreamBytesPerClient ||
       r.phase_read_bytes != r.phase_write_bytes)) {
    r.verify_error = "stream read back " + std::to_string(r.phase_read_bytes) +
                     " of " + std::to_string(r.phase_write_bytes) +
                     " bytes written";
  }

  d.simulation().spawn(verify(c, r.verify_error));
  d.simulation().run();
  if (inspect) inspect(d, r);
  return r;
}

std::string fingerprint(const RepResult& r) {
  uint64_t lat_sum = 0;  // unsigned: failed units carry INT64_MAX
  for (int64_t v : r.unit_latency_ns) lat_sum += static_cast<uint64_t>(v);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "ops=%llu/%llu units=%llu win=%lld..%lld w=%lld..%lld "
                "r=%lld..%lld bytes=%llu/%llu lat=%llu rpcs=%llu disk=%llu/%llu",
                (unsigned long long)r.ops.attempted,
                (unsigned long long)r.ops.failed, (unsigned long long)r.units,
                (long long)r.t0, (long long)r.t1, (long long)r.write_t0,
                (long long)r.write_t1, (long long)r.read_t0,
                (long long)r.read_t1, (unsigned long long)r.ops.bytes_read,
                (unsigned long long)r.ops.bytes_written,
                (unsigned long long)lat_sum,
                (unsigned long long)(r.after.rpc_requests - r.before.rpc_requests),
                (unsigned long long)(r.after.disk_read_bytes - r.before.disk_read_bytes),
                (unsigned long long)(r.after.disk_write_bytes -
                                     r.before.disk_write_bytes));
  return buf;
}

}  // namespace perfbench
