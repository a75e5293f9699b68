// Ablation: redundancy schemes under sequential I/O and permanent DS loss.
//
// Three aggregations over the paper's six-node Direct-pNFS testbed:
// plain striping, 2-way replication (RAID-1 mirroring), and systematic
// Reed-Solomon EC(4+2).  Two questions, one per table:
//
//   1. What does redundancy cost on the foreground path?  Sequential IOR
//      write throughput: mirroring pays 2x the wire bytes, EC pays the
//      parity fraction (m/k = 50% here) plus read-modify-write on partial
//      groups.
//   2. What does a permanent data-server loss cost readers?  One storage
//      node is killed for good, then cold clients stream the files back
//      through the degraded machinery (surviving replica or k-of-n
//      reconstruction).  The bench hard-fails unless every byte comes back
//      intact with zero MDS fallbacks — the delta gate then guards the
//      throughput series.
#include "bench_common.hpp"
#include "rpc/fabric.hpp"
#include "sim/sync.hpp"
#include "workload/ior.hpp"

using namespace dpnfs;
using namespace dpnfs::bench;
using core::Architecture;
using rpc::Payload;
using sim::Task;

namespace {

constexpr uint32_t kVictim = 1;  // never node 0: it hosts the MDS
constexpr sim::Time kKillAt = sim::sec(10);  // long after population
constexpr uint64_t kChunk = 1u << 20;

const char* scheme_name(pvfs::DistKind kind) {
  switch (kind) {
    case pvfs::DistKind::kMirror:
      return "mirror-2x";
    case pvfs::DistKind::kErasure:
      return "ec-4p2";
    default:
      return "plain";
  }
}

core::ClusterConfig scheme_config(pvfs::DistKind kind, uint32_t clients) {
  core::ClusterConfig cfg = paper_config(Architecture::kDirectPnfs, clients);
  cfg.distribution = kind;
  cfg.replicas = 2;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  return cfg;
}

struct WriteResult {
  double mbps = 0;
  std::string metrics_json;
};

WriteResult run_write(pvfs::DistKind kind, uint32_t clients, uint64_t bytes) {
  core::ClusterConfig cfg = scheme_config(kind, clients);
  workload::IorConfig icfg;
  icfg.write = true;
  icfg.bytes_per_client = bytes;
  icfg.block_size = 2 * kChunk;
  workload::IorWorkload w(icfg);
  core::Deployment d(cfg);
  const workload::RunResult r = run_workload(d, w);
  return {r.aggregate_mbps(), r.metrics_json};
}

Payload pattern(uint64_t base, uint64_t length) {
  std::vector<std::byte> v(length);
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t o = base + i;
    v[i] = static_cast<std::byte>((o * 167 + (o >> 13) * 11 + 5) & 0xFF);
  }
  return Payload::inline_bytes(std::move(v));
}

struct ReadResult {
  double mbps = 0;
  bool data_ok = false;
  bool population_done = false;
  uint64_t mds_fallbacks = 0;
  std::string metrics_json;
};

Task<void> populate_one(core::Deployment& d, size_t i, uint64_t bytes) {
  const uint64_t base = static_cast<uint64_t>(i) << 40;
  auto f = co_await d.client(i).open("/bench/f" + std::to_string(i), true);
  for (uint64_t off = 0; off < bytes; off += kChunk) {
    co_await f->write(off, pattern(base + off,
                                   std::min<uint64_t>(kChunk, bytes - off)));
  }
  co_await f->fsync();
  co_await f->close();
}

Task<void> read_one(core::Deployment& d, size_t client, size_t file,
                    uint64_t bytes, char& ok) {
  const uint64_t base = static_cast<uint64_t>(file) << 40;
  auto f =
      co_await d.client(client).open_read("/bench/f" + std::to_string(file));
  bool all = true;
  for (uint64_t off = 0; off < bytes; off += 2 * kChunk) {
    const uint64_t n = std::min<uint64_t>(2 * kChunk, bytes - off);
    Payload got = co_await f->read(off, n);
    if (!(got == pattern(base + off, n))) all = false;
  }
  co_await f->close();
  ok = all ? 1 : 0;
}

Task<void> degraded_scenario(core::Deployment& d, uint32_t n, uint64_t bytes,
                             bool kill, ReadResult& res,
                             std::vector<char>& ok, sim::Time& read_ns) {
  auto& sim = d.simulation();
  co_await d.mount_all();
  co_await d.client(0).mkdir("/bench");
  sim::WaitGroup wg(sim);
  for (uint32_t i = 0; i < n; ++i) wg.spawn(populate_one(d, i, bytes));
  co_await wg.wait();
  res.population_done = !kill || sim.now() < kKillAt;
  if (!res.population_done) co_return;
  if (kill) co_await sim.delay(kKillAt + sim::ms(500) - sim.now());

  // Cold clients n..2n-1 stream the files back concurrently.
  const sim::Time t0 = sim.now();
  sim::WaitGroup rg(sim);
  for (uint32_t i = 0; i < n; ++i) {
    rg.spawn(read_one(d, n + i, i, bytes, ok[i]));
  }
  co_await rg.wait();
  read_ns = sim.now() - t0;
}

/// Read-back throughput with (optionally) one storage node permanently
/// dead: the cold readers' bytes all flow through degraded reads or EC
/// reconstruction for the slices that lived on the victim.
ReadResult run_degraded_read(pvfs::DistKind kind, uint32_t clients,
                             uint64_t bytes, bool kill) {
  core::ClusterConfig cfg = scheme_config(kind, clients);
  cfg.clients = clients * 2;  // writers + cold readers
  if (kill) {
    // Fast-failure posture for a node that is never coming back (mirrors
    // `simulate --fault-ds-kill`): bounded deadlines, a hair-trigger
    // breaker that stays open, fast-failing meta-side PVFS requests.
    cfg.nfs_client.ds_timeout = sim::ms(200);
    cfg.nfs_client.ds_rpc_retries = 2;
    cfg.nfs_client.slice_retries = 1;
    cfg.nfs_client.breaker_threshold = 2;
    cfg.nfs_client.breaker_reset = sim::sec(600);
    cfg.nfs_client.mds_timeout = sim::ms(3000);
    cfg.pvfs_client.io_timeout = sim::ms(200);
    cfg.pvfs_client.io_retries = 1;
    cfg.faults.crash_service(kVictim, rpc::kNfsPort, kKillAt, sim::kNever);
    cfg.faults.crash_service(kVictim, rpc::kPvfsIoPort, kKillAt, sim::kNever);
  }

  core::Deployment d(cfg);
  ReadResult res;
  std::vector<char> ok(clients, 0);
  sim::Time read_ns = 0;
  d.simulation().spawn(
      degraded_scenario(d, clients, bytes, kill, res, ok, read_ns));
  d.simulation().run();

  res.data_ok = true;
  for (char c : ok) res.data_ok = res.data_ok && c != 0;
  for (size_t i = 0; i < cfg.clients; ++i) {
    if (auto* c = dynamic_cast<core::NfsFileSystemClient*>(&d.client(i))) {
      res.mds_fallbacks += c->native().stats().mds_fallbacks;
    }
  }
  if (read_ns > 0) {
    res.mbps = static_cast<double>(bytes) * clients /
               (static_cast<double>(read_ns) / 1e9) / 1e6;
  }
  res.metrics_json = d.metrics_json();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = flag_present(argc, argv, "--smoke");
  const bool quick = smoke || flag_present(argc, argv, "--quick");
  const uint64_t bytes = quick ? 4 * kChunk : 16 * kChunk;
  const auto clients =
      quick ? std::vector<uint32_t>{2, 4} : std::vector<uint32_t>{2, 4, 6, 8};
  const pvfs::DistKind kinds[] = {pvfs::DistKind::kStripe,
                                  pvfs::DistKind::kMirror,
                                  pvfs::DistKind::kErasure};

  std::printf("== Ablation: redundancy schemes, sequential I/O + permanent "
              "DS loss (Direct-pNFS) ==\n");
  BenchRecorder rec("ablation_redundancy",
                    arg_value(argc, argv, "--out-dir", ""));

  bool gate_ok = true;
  std::vector<Series> write_series, read_series;
  for (pvfs::DistKind kind : kinds) {
    write_series.push_back({scheme_name(kind), {}});
  }
  for (pvfs::DistKind kind : {pvfs::DistKind::kMirror,
                              pvfs::DistKind::kErasure}) {
    read_series.push_back({std::string(scheme_name(kind)) + "-healthy", {}});
    read_series.push_back({std::string(scheme_name(kind)) + "-degraded", {}});
  }

  for (size_t row = 0; row < clients.size(); ++row) {
    const uint32_t n = clients[row];
    for (size_t k = 0; k < 3; ++k) {
      const WriteResult w = run_write(kinds[k], n, bytes);
      write_series[k].values.push_back(w.mbps);
      rec.add(std::string("write-") + scheme_name(kinds[k]), "direct-pnfs", n,
              w.mbps, "MB/s", w.metrics_json);
    }
    size_t col = 0;
    for (pvfs::DistKind kind : {pvfs::DistKind::kMirror,
                                pvfs::DistKind::kErasure}) {
      for (bool kill : {false, true}) {
        const ReadResult r = run_degraded_read(kind, n, bytes, kill);
        read_series[col].values.push_back(r.mbps);
        rec.add(std::string(kill ? "degraded-read-" : "healthy-read-") +
                    scheme_name(kind),
                "direct-pnfs", n, r.mbps, "MB/s", r.metrics_json);
        if (!r.population_done) {
          std::fprintf(stderr, "FAIL: %s %u clients: population overran the "
                       "scripted kill time\n", scheme_name(kind), n);
          gate_ok = false;
        }
        if (!r.data_ok) {
          std::fprintf(stderr, "FAIL: %s %u clients (kill=%d): read-back "
                       "not byte-identical\n", scheme_name(kind), n, kill);
          gate_ok = false;
        }
        if (kill && r.mds_fallbacks != 0) {
          std::fprintf(stderr, "FAIL: %s %u clients: %llu MDS fallbacks "
                       "(must be 0 — redundancy owns degraded bytes)\n",
                       scheme_name(kind), n,
                       static_cast<unsigned long long>(r.mds_fallbacks));
          gate_ok = false;
        }
        ++col;
      }
    }
  }

  print_table("Sequential write throughput by redundancy scheme", "clients",
              clients, write_series, "aggregate MB/s");
  print_table("Cold read-back: healthy vs one DS permanently dead",
              "clients", clients, read_series, "aggregate MB/s");
  rec.flush();
  return gate_ok ? 0 : 1;
}
