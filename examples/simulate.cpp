// dpnfs-simulate: command-line driver for custom experiments.
//
//   simulate --arch=direct --workload=ior-write --clients=8
//            --bytes=500000000 --block=2097152 [--verbose]
//
// Architectures: direct, pvfs, 2tier, 3tier, nfs
// Workloads:     ior-write, ior-read, ior-write-single, ior-read-single,
//                atlas, btio, oltp, postmark, tenant-mix
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "core/deployment.hpp"
#include "util/obs_analysis.hpp"
#include "workload/atlas.hpp"
#include "workload/btio.hpp"
#include "workload/ior.hpp"
#include "workload/oltp.hpp"
#include "workload/postmark.hpp"
#include "workload/strided.hpp"
#include "workload/tenant_mix.hpp"
#include "workload/runner.hpp"

using namespace dpnfs;

namespace {

const char* arg_value(int argc, char** argv, const char* key,
                      const char* fallback) {
  const size_t klen = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, klen) == 0 && argv[i][klen] == '=') {
      return argv[i] + klen + 1;
    }
  }
  return fallback;
}

bool flag(int argc, char** argv, const char* key) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return true;
  }
  return false;
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(body.data(), 1, body.size(), f);
  return std::fclose(f) == 0 && n == body.size();
}

core::Architecture parse_arch(const std::string& s) {
  if (s == "direct") return core::Architecture::kDirectPnfs;
  if (s == "pvfs") return core::Architecture::kNativePvfs;
  if (s == "2tier") return core::Architecture::kPnfs2Tier;
  if (s == "3tier") return core::Architecture::kPnfs3Tier;
  if (s == "nfs") return core::Architecture::kPlainNfs;
  std::fprintf(stderr, "unknown --arch '%s' (direct|pvfs|2tier|3tier|nfs)\n",
               s.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (flag(argc, argv, "--help") || flag(argc, argv, "-h")) {
    std::printf(
        "usage: simulate [--arch=direct|pvfs|2tier|3tier|nfs]\n"
        "                [--workload=ior-write|ior-read|ior-write-single|\n"
        "                 ior-read-single|atlas|btio|strided|oltp|\n"
        "                 oltp-update|postmark|tenant-mix]\n"
        "                [--clients=N] [--storage-nodes=N]\n"
        "                [--bytes=N] [--block=N] [--stripe=N] [--txns=N]\n"
        "                [--latency-us=N] [--nic-mbps=N] [--verbose]\n"
        "                [--wb-window-per-ds=N] [--no-coalesce]\n"
        "                [--no-listio] [--listio-max-regions=N]\n"
        "                [--fault-ds-crash=N] [--fault-at-ms=T]\n"
        "                [--fault-revive-ms=T] [--fault-ds-restart=N]\n"
        "                [--fault-ds-kill=N] [--rebuild-after-ms=T]\n"
        "                [--redundancy=stripe|mirror|ec] [--replicas=N]\n"
        "                [--ec-k=K] [--ec-m=M] [--spares=N]\n"
        "                [--chaos-seed=S] [--chaos-restarts=N]\n"
        "                [--trace-out=FILE] [--trace-spans=N]\n"
        "                [--trace-sample-rate=R] [--slo-ms=N]\n"
        "                [--breakdown] [--sample-ms=N]\n"
        "                [--tenants=N] [--metrics-out=FILE]\n"
        "                [--flight-out=FILE]\n"
        "\n"
        "--wb-window-per-ds=N caps concurrent write-back WRITEs per data\n"
        "server (default 8); --no-coalesce disables merging adjacent dirty\n"
        "extents into wsize WRITEs before dispatch (ablation switches for\n"
        "the per-DS write-back scheduler).\n"
        "--no-listio disables vectored (list) I/O: every region goes out as\n"
        "its own single-range READ/WRITE (kRead/kWrite on the PVFS wire);\n"
        "--listio-max-regions=N caps the regions folded into one vectored\n"
        "request (default 64).  The strided workload is the showcase:\n"
        "--workload=strided interleaves per-client records so each client's\n"
        "dirty extents are non-adjacent (see EXPERIMENTS.md).\n"
        "\n"
        "--fault-ds-crash=N kills the NFS data-server daemon on storage\n"
        "node N (and enables the client recovery knobs, see\n"
        "docs/failures.md); the run must still complete via MDS fallback.\n"
        "\n"
        "--fault-ds-kill=N permanently kills storage node N — the NFS data\n"
        "server AND the PVFS storage daemon, never revived.  Combine with\n"
        "--redundancy=mirror (--replicas copies) or --redundancy=ec\n"
        "(systematic Reed-Solomon, --ec-k data + --ec-m parity fragments):\n"
        "clients keep going through degraded reads/writes, and with\n"
        "--spares=N > 0 the MDS rebuild service declares the node dead\n"
        "after --rebuild-after-ms (default 1500) and re-materializes its\n"
        "objects onto a spare while traffic continues (docs/failures.md).\n"
        "--fault-ds-restart=N crash-restarts the data service on storage\n"
        "node N: the service revives at --fault-revive-ms (default\n"
        "--fault-at-ms + 500) with a fresh boot verifier, and clients must\n"
        "replay any unstable writes the dead incarnation was buffering\n"
        "(docs/failures.md, 'Restart semantics').\n"
        "--chaos-seed=S schedules a seeded, reproducible storm of service\n"
        "restarts (--chaos-restarts of them, default 3 data-server plus one\n"
        "MDS restart) across the run; the same seed yields the same\n"
        "schedule.\n"
        "\n"
        "--trace-out=FILE writes every retained span as Chrome/Perfetto\n"
        "trace_event JSON (open in ui.perfetto.dev); span retention is\n"
        "raised to 262144 unless --trace-spans overrides it.\n"
        "--trace-sample-rate=R keeps span detail for fraction R of traces\n"
        "(deterministic per-trace verdict; aggregate counters and the SLO\n"
        "digests stay exact at any rate; default 1.0 = every trace).\n"
        "--slo-ms=N tail-promotes any unsampled trace that ends slower\n"
        "than N ms, or with an error, with full span detail (default 0 =\n"
        "promote only errored traces).  See docs/observability.md.\n"
        "--breakdown prints the critical-path latency attribution (client\n"
        "queue / request wire / server queue / service CPU / disk / reply\n"
        "wire) followed by its JSON document.\n"
        "--sample-ms=N sets the utilization sampling interval (default\n"
        "100 ms of simulated time; 0 disables).\n"
        "\n"
        "--tenants=N assigns clients tenant ids 1..N round-robin; every\n"
        "RPC then carries its tenant (flag-gated, 4 bytes) and the servers\n"
        "account RPCs, wire bytes, disk time and latency per tenant into\n"
        "the 'tenants' section of the metrics document (0 = off, the\n"
        "default; the wire stays byte-identical to the legacy layout).\n"
        "--workload=tenant-mix splits clients between a sequential-ingest\n"
        "tenant (IOR write) and an OLTP tenant (defaults --tenants=2 so\n"
        "tenant1=ingest, tenant2=OLTP; see EXPERIMENTS.md).\n"
        "--metrics-out=FILE writes the full metrics JSON document\n"
        "(Deployment::metrics_json — nodes, trace, slo, tenants, health,\n"
        "timeseries) to FILE, like --trace-out does for the span timeline.\n"
        "--flight-out=FILE dumps the flight recorder (bounded ring of\n"
        "restart/recovery/breaker/replay events plus WARN+ log lines) as\n"
        "JSON to FILE; with the same seed and schedule two runs produce\n"
        "bit-identical dumps.\n");
    return 0;
  }

  core::ClusterConfig cfg;
  cfg.architecture = parse_arch(arg_value(argc, argv, "--arch", "direct"));
  cfg.clients = static_cast<uint32_t>(
      std::atoi(arg_value(argc, argv, "--clients", "8")));
  cfg.storage_nodes = static_cast<uint32_t>(
      std::atoi(arg_value(argc, argv, "--storage-nodes", "6")));
  cfg.stripe_unit = std::strtoull(
      arg_value(argc, argv, "--stripe", "2097152"), nullptr, 10);
  const std::string redundancy =
      arg_value(argc, argv, "--redundancy", "stripe");
  if (redundancy == "mirror") {
    cfg.distribution = pvfs::DistKind::kMirror;
  } else if (redundancy == "ec") {
    cfg.distribution = pvfs::DistKind::kErasure;
  } else if (redundancy != "stripe") {
    std::fprintf(stderr, "unknown --redundancy '%s' (stripe|mirror|ec)\n",
                 redundancy.c_str());
    return 2;
  }
  cfg.replicas = static_cast<uint32_t>(
      std::max(2, std::atoi(arg_value(argc, argv, "--replicas", "2"))));
  cfg.ec_k = static_cast<uint32_t>(
      std::max(1, std::atoi(arg_value(argc, argv, "--ec-k", "4"))));
  cfg.ec_m = static_cast<uint32_t>(
      std::max(1, std::atoi(arg_value(argc, argv, "--ec-m", "2"))));
  cfg.spare_nodes = static_cast<uint32_t>(
      std::max(0, std::atoi(arg_value(argc, argv, "--spares", "0"))));
  cfg.nic.latency =
      sim::us(std::atoll(arg_value(argc, argv, "--latency-us", "60")));
  cfg.nic.bytes_per_sec =
      std::atof(arg_value(argc, argv, "--nic-mbps", "117")) * 1e6;
  cfg.nfs_client.wb_window_per_ds = static_cast<uint32_t>(std::max(
      1, std::atoi(arg_value(argc, argv, "--wb-window-per-ds", "8"))));
  if (flag(argc, argv, "--no-coalesce")) cfg.nfs_client.coalesce_writes = false;
  if (flag(argc, argv, "--no-listio")) cfg.listio_enabled = false;
  cfg.listio_max_regions = static_cast<uint32_t>(std::max(
      1, std::atoi(arg_value(argc, argv, "--listio-max-regions", "64"))));

  const std::string trace_out = arg_value(argc, argv, "--trace-out", "");
  const bool breakdown = flag(argc, argv, "--breakdown");
  // A full timeline needs far more span detail than the default aggregate
  // retention; the explicit knob wins when given.
  const long long trace_spans =
      std::atoll(arg_value(argc, argv, "--trace-spans",
                           trace_out.empty() ? "4096" : "262144"));
  cfg.trace_span_capacity = static_cast<size_t>(std::max(0LL, trace_spans));
  cfg.trace_sample_rate =
      std::atof(arg_value(argc, argv, "--trace-sample-rate", "1.0"));
  cfg.trace_slo_threshold =
      sim::ms(std::atoll(arg_value(argc, argv, "--slo-ms", "0")));
  cfg.sample_interval =
      sim::ms(std::atoll(arg_value(argc, argv, "--sample-ms", "100")));
  const std::string metrics_out = arg_value(argc, argv, "--metrics-out", "");
  const std::string flight_out = arg_value(argc, argv, "--flight-out", "");
  const std::string wl = arg_value(argc, argv, "--workload", "ior-write");
  // tenant-mix defaults to one tenant per child workload.
  cfg.tenants = static_cast<uint32_t>(std::max(
      0, std::atoi(arg_value(argc, argv, "--tenants",
                             wl == "tenant-mix" ? "2" : "0"))));

  const uint64_t bytes =
      std::strtoull(arg_value(argc, argv, "--bytes", "100000000"), nullptr, 10);
  const uint64_t block =
      std::strtoull(arg_value(argc, argv, "--block", "2097152"), nullptr, 10);
  const uint32_t txns = static_cast<uint32_t>(
      std::atoi(arg_value(argc, argv, "--txns", "2000")));

  const int fault_ds = std::atoi(arg_value(argc, argv, "--fault-ds-crash", "-1"));
  if (fault_ds >= 0) {
    const sim::Time at =
        sim::ms(std::atoll(arg_value(argc, argv, "--fault-at-ms", "1000")));
    const long long revive_ms =
        std::atoll(arg_value(argc, argv, "--fault-revive-ms", "-1"));
    cfg.faults.crash_service(static_cast<uint32_t>(fault_ds), rpc::kNfsPort, at,
                             revive_ms < 0 ? sim::kNever : sim::ms(revive_ms));
    // Deadlines/retries are off by default; a scripted crash is pointless
    // without them.  The deadline must sit above worst-case healthy queueing
    // (several stripe-width transfers) or live servers trip the breaker too.
    cfg.nfs_client.ds_timeout = sim::ms(250);
    cfg.nfs_client.breaker_threshold = 2;
    cfg.nfs_client.breaker_reset = sim::sec(60);
  }

  // Data-service and MDS endpoints by architecture (node ids are assigned
  // in Deployment add-order: storage nodes first).
  auto ds_target = [&cfg](uint32_t i) -> std::pair<uint32_t, uint16_t> {
    switch (cfg.architecture) {
      case core::Architecture::kNativePvfs:
        return {i % cfg.storage_nodes, rpc::kPvfsIoPort};
      case core::Architecture::kPnfs3Tier:
        return {cfg.storage_nodes / 2 + (i % cfg.three_tier_data_servers),
                rpc::kNfsPort};
      case core::Architecture::kPlainNfs:
        return {cfg.storage_nodes, rpc::kNfsPort};
      default:
        return {i % cfg.storage_nodes, rpc::kNfsPort};
    }
  };
  auto mds_target = [&cfg]() -> std::pair<uint32_t, uint16_t> {
    switch (cfg.architecture) {
      case core::Architecture::kNativePvfs:
        return {0u, rpc::kPvfsMetaPort};
      case core::Architecture::kPnfs3Tier:
        return {cfg.storage_nodes / 2, core::kMdsPort};
      case core::Architecture::kPlainNfs:
        return {cfg.storage_nodes, rpc::kNfsPort};
      default:
        return {0u, core::kMdsPort};
    }
  };
  // Recovery knobs for faults the run is expected to ride out: deadlines,
  // retries that outlast a crash window, an MDS grace period, and — on
  // Direct-pNFS — no MDS write fallback (the data server and the PVFS
  // daemon share the node's object store, so proxying writes around a
  // restarting DS would dodge the very state loss being tested; see
  // docs/failures.md).
  auto enable_restart_recovery = [&cfg] {
    // The retry budget must outlast back-to-back crash windows (the chaos
    // schedule can hit the same service repeatedly), not just one outage.
    cfg.nfs_client.ds_timeout = sim::ms(250);
    cfg.nfs_client.ds_rpc_retries = 8;
    cfg.nfs_client.slice_retries = 4;
    cfg.nfs_client.breaker_threshold = 4;
    cfg.nfs_client.breaker_reset = sim::ms(500);
    cfg.nfs_client.mds_timeout = sim::ms(500);
    cfg.mds_grace_period = sim::ms(200);
    cfg.pvfs_client.io_timeout = sim::ms(250);
    cfg.pvfs_client.io_retries = 10;
    cfg.pvfs_client.meta_timeout = sim::ms(500);
    cfg.pvfs_client.meta_retries = 6;
    if (cfg.architecture == core::Architecture::kDirectPnfs) {
      cfg.nfs_client.mds_fallback = false;
    }
  };

  const int fault_restart =
      std::atoi(arg_value(argc, argv, "--fault-ds-restart", "-1"));
  if (fault_restart >= 0) {
    const sim::Time at =
        sim::ms(std::atoll(arg_value(argc, argv, "--fault-at-ms", "1000")));
    const long long revive_ms =
        std::atoll(arg_value(argc, argv, "--fault-revive-ms", "0"));
    const sim::Time revive = revive_ms > 0 ? sim::ms(revive_ms) : at + sim::ms(500);
    const auto [node, port] = ds_target(static_cast<uint32_t>(fault_restart));
    cfg.faults.crash_service(node, port, at, revive);
    enable_restart_recovery();
  }

  // Permanent data-server loss: both daemons on the node die for good;
  // redundancy (mirror or EC) carries the traffic and — with spares — the
  // rebuild service re-materializes the node's objects in the background.
  const int fault_kill =
      std::atoi(arg_value(argc, argv, "--fault-ds-kill", "-1"));
  if (fault_kill >= 0) {
    const sim::Time at =
        sim::ms(std::atoll(arg_value(argc, argv, "--fault-at-ms", "1000")));
    const auto [node, port] = ds_target(static_cast<uint32_t>(fault_kill));
    cfg.faults.crash_service(node, port, at, sim::kNever);
    if (port != rpc::kPvfsIoPort) {
      cfg.faults.crash_service(node, rpc::kPvfsIoPort, at, sim::kNever);
    }
    enable_restart_recovery();
    // The node is never coming back: the MDS's own PVFS requests (dfile
    // creates, first-resolve size gathers) must fast-fail on the dead
    // daemon (redundant kinds tolerate the miss) instead of burning a
    // restart-sized retry budget inside the MDS call that waits on them.
    cfg.pvfs_client.io_timeout = sim::ms(200);
    cfg.pvfs_client.io_retries = 1;
    cfg.nfs_client.mds_timeout = sim::ms(3000);
    // A tripped breaker should stay open: half-open probes against a node
    // that is never coming back just re-burn the retry ladder.
    cfg.nfs_client.ds_rpc_retries = 2;
    cfg.nfs_client.slice_retries = 1;
    cfg.nfs_client.breaker_threshold = 2;
    cfg.nfs_client.breaker_reset = sim::sec(600);
    if (cfg.spare_nodes > 0) {
      cfg.rebuild_enabled = true;
      cfg.rebuild.dead_threshold = sim::ms(
          std::atoll(arg_value(argc, argv, "--rebuild-after-ms", "1500")));
    }
  }

  const long long chaos_seed =
      std::atoll(arg_value(argc, argv, "--chaos-seed", "-1"));
  if (chaos_seed >= 0) {
    const int chaos_restarts =
        std::atoi(arg_value(argc, argv, "--chaos-restarts", "3"));
    uint64_t s = static_cast<uint64_t>(chaos_seed);
    auto next = [&s]() {  // SplitMix64: the schedule is a pure seed function
      s += 0x9E3779B97F4A7C15ull;
      uint64_t z = s;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      return z ^ (z >> 31);
    };
    for (int i = 0; i < chaos_restarts; ++i) {
      const auto [node, port] = ds_target(static_cast<uint32_t>(next()));
      const sim::Time at = sim::ms(200 + static_cast<int64_t>(next() % 2000));
      cfg.faults.crash_service(node, port, at,
                               at + sim::ms(200 + static_cast<int64_t>(next() % 400)));
    }
    const auto [mds_node, mds_port] = mds_target();
    const sim::Time mds_at = sim::ms(500 + static_cast<int64_t>(next() % 1500));
    cfg.faults.crash_service(mds_node, mds_port, mds_at, mds_at + sim::ms(300));
    enable_restart_recovery();
  }

  core::Deployment d(cfg);
  if (d.rebuild() != nullptr) {
    d.start_rebuild();
    // The monitor would keep the event queue alive forever; let it watch
    // until the scripted kill has been rebuilt (or give up), then stop so
    // the run can drain.
    d.simulation().spawn([](core::Deployment& dd) -> sim::Task<void> {
      for (int spin = 0; spin < 600; ++spin) {
        co_await dd.simulation().delay(sim::ms(100));
        if (dd.rebuild()->stats().rebuilds_completed >= 1) break;
      }
      dd.stop_rebuild();
    }(d));
  }

  workload::RunResult result;
  if (wl.rfind("ior-", 0) == 0) {
    workload::IorConfig icfg;
    icfg.write = wl.find("write") != std::string::npos;
    icfg.single_file = wl.find("single") != std::string::npos;
    icfg.bytes_per_client = bytes;
    icfg.block_size = block;
    workload::IorWorkload w(icfg);
    result = run_workload(d, w);
  } else if (wl == "atlas") {
    workload::AtlasConfig acfg;
    acfg.bytes_per_client = bytes;
    acfg.file_span = bytes;
    workload::AtlasWorkload w(acfg);
    result = run_workload(d, w);
  } else if (wl == "btio") {
    workload::BtioConfig bcfg;
    bcfg.file_bytes = bytes;
    workload::BtioWorkload w(bcfg);
    result = run_workload(d, w);
  } else if (wl == "strided") {
    workload::StridedConfig scfg;
    // Size the run from --bytes: records per checkpoint so the dense file
    // totals roughly the requested bytes.
    const uint64_t per_ckpt =
        bytes / (static_cast<uint64_t>(scfg.checkpoints) * cfg.clients *
                 scfg.record_bytes);
    scfg.records_per_checkpoint =
        static_cast<uint32_t>(std::max<uint64_t>(1, per_ckpt));
    workload::StridedWorkload w(scfg);
    result = run_workload(d, w);
  } else if (wl == "oltp" || wl == "oltp-update") {
    workload::OltpConfig ocfg;
    ocfg.file_bytes = bytes;
    ocfg.transactions_per_client = txns;
    ocfg.update_only = wl == "oltp-update";
    workload::OltpWorkload w(ocfg);
    result = run_workload(d, w);
  } else if (wl == "postmark") {
    workload::PostmarkConfig pcfg;
    pcfg.transactions = txns;
    workload::PostmarkWorkload w(pcfg);
    result = run_workload(d, w);
  } else if (wl == "tenant-mix") {
    // Child order matches the round-robin tenant assignment: client i gets
    // tenant 1 + (i % tenants) and runs child i % 2, so tenant1 = ingest
    // (sequential IOR write) and tenant2 = OLTP when --tenants=2.
    workload::IorConfig icfg;
    icfg.write = true;
    icfg.bytes_per_client = bytes;
    icfg.block_size = block;
    workload::OltpConfig ocfg;
    ocfg.file_bytes = bytes;
    ocfg.transactions_per_client = txns;
    std::vector<std::unique_ptr<workload::Workload>> children;
    children.push_back(std::make_unique<workload::IorWorkload>(icfg));
    children.push_back(std::make_unique<workload::OltpWorkload>(ocfg));
    workload::TenantMixWorkload w(std::move(children));
    result = run_workload(d, w);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", wl.c_str());
    return 2;
  }

  std::printf("architecture      %s\n", core::architecture_name(cfg.architecture));
  std::printf("workload          %s\n", wl.c_str());
  std::printf("clients           %u\n", cfg.clients);
  std::printf("simulated time    %.3f s\n", result.elapsed_seconds);
  std::printf("app bytes moved   %.1f MB\n", result.app_bytes / 1e6);
  std::printf("aggregate         %.1f MB/s\n", result.aggregate_mbps());
  if (result.transactions > 0) {
    std::printf("transactions      %llu (%.1f tps)\n",
                static_cast<unsigned long long>(result.transactions),
                result.tps());
  }
  if (fault_ds >= 0 || fault_restart >= 0 || fault_kill >= 0 ||
      chaos_seed >= 0) {
    uint64_t retries = 0, fallbacks = 0, trips = 0;
    uint64_t mismatches = 0, replayed = 0, replayed_bytes = 0;
    uint64_t reroutes = 0, degraded_reads = 0, degraded_writes = 0;
    uint64_t degraded_commits = 0, reconstructions = 0;
    for (size_t i = 0; i < d.client_count(); ++i) {
      if (auto* c = dynamic_cast<core::NfsFileSystemClient*>(&d.client(i))) {
        const auto& s = c->native().stats();
        retries += s.recovery_retries;
        fallbacks += s.mds_fallbacks;
        trips += s.breaker_trips;
        mismatches += s.verifier_mismatches;
        replayed += s.replayed_extents;
        replayed_bytes += s.replayed_bytes;
        reroutes += s.replica_reroutes;
        degraded_reads += s.degraded_reads;
        degraded_writes += s.degraded_writes;
        degraded_commits += s.degraded_commits;
        reconstructions += s.ec_reconstructions;
      } else if (auto* p =
                     dynamic_cast<core::PvfsFileSystemClient*>(&d.client(i))) {
        const auto& s = p->native().stats();
        mismatches += s.verifier_mismatches;
        replayed += s.replayed_extents;
        replayed_bytes += s.replayed_bytes;
      }
    }
    std::printf("recovery          %llu retries, %llu MDS fallbacks, "
                "%llu breaker trips\n",
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(fallbacks),
                static_cast<unsigned long long>(trips));
    std::printf("replay            %llu verifier mismatches, %llu extents "
                "(%.1f MB) replayed\n",
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(replayed),
                replayed_bytes / 1e6);
    if (reroutes + degraded_reads + degraded_writes + degraded_commits +
            reconstructions >
        0) {
      std::printf("redundancy        %llu reroutes, %llu degraded reads, "
                  "%llu degraded writes, %llu degraded commits, "
                  "%llu EC reconstructions\n",
                  static_cast<unsigned long long>(reroutes),
                  static_cast<unsigned long long>(degraded_reads),
                  static_cast<unsigned long long>(degraded_writes),
                  static_cast<unsigned long long>(degraded_commits),
                  static_cast<unsigned long long>(reconstructions));
    }
    if (const core::RebuildManager* r = d.rebuild()) {
      const core::RebuildStats& rs = r->stats();
      std::printf("rebuild           %llu declared dead, %llu/%llu objects "
                  "rebuilt/failed (%.1f MB)\n",
                  static_cast<unsigned long long>(rs.dses_declared_dead),
                  static_cast<unsigned long long>(rs.objects_rebuilt),
                  static_cast<unsigned long long>(rs.objects_failed),
                  rs.bytes_rebuilt / 1e6);
    }
  }
  if (flag(argc, argv, "--verbose")) {
    std::printf("\nper-node traffic:\n");
    d.print_traffic_report();
  }
  if (breakdown) {
    obs::BreakdownReport rep = obs::analyze_all(d.tracer());
    std::printf("\n%s", rep.report().c_str());
    std::printf("%s\n",
                rep.to_json(core::architecture_name(cfg.architecture)).c_str());
  }
  if (!trace_out.empty()) {
    if (!d.write_trace(trace_out)) {
      std::fprintf(stderr, "failed to write trace to '%s'\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("trace timeline    %s (%zu spans%s; open in ui.perfetto.dev)\n",
                trace_out.c_str(), d.tracer().retained_spans().size(),
                d.tracer().spans_dropped() > 0 ? ", some dropped" : "");
  }
  if (cfg.tenants > 0) {
    std::printf("tenants           %u assigned, %llu seen, %llu evicted\n",
                cfg.tenants,
                static_cast<unsigned long long>(d.tenant_ledger().tenants_seen()),
                static_cast<unsigned long long>(
                    d.tenant_ledger().tenants_evicted()));
  }
  if (!metrics_out.empty()) {
    if (!write_text_file(metrics_out, d.metrics_json())) {
      std::fprintf(stderr, "failed to write metrics to '%s'\n",
                   metrics_out.c_str());
      return 1;
    }
    std::printf("metrics document  %s\n", metrics_out.c_str());
  }
  if (!flight_out.empty()) {
    if (!d.write_flight(flight_out)) {
      std::fprintf(stderr, "failed to write flight dump to '%s'\n",
                   flight_out.c_str());
      return 1;
    }
    std::printf("flight recorder   %s (%llu events)\n", flight_out.c_str(),
                static_cast<unsigned long long>(d.flight().events_recorded()));
  }
  return 0;
}
