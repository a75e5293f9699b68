// Ablation: vectored (list) I/O on the strided checkpoint workload.
//
// The strided BT-IO variant leaves each client with mutually non-adjacent
// dirty extents (stride = n_clients * record_bytes), the worst case for
// plain extent coalescing.  With listio on the write-back scheduler folds
// those extents into multi-region WRITEVs; off (listio_max_regions = 1),
// every record is its own WRITE RPC.  Records are small (512 B, true to
// BT-IO's noncontiguous element writes), which makes the per-RPC fixed
// cost — the overhead list I/O exists to amortize — the binding resource on
// the client CPU.  The bench sweeps client counts on Direct-pNFS and reports
// aggregate MB/s plus the WRITE-RPC reduction factor, and hard-fails if
// folding stops delivering at least a 4x RPC reduction or stops being
// faster — the delta gate then guards the recorded series.
//
// --sweep-regions replaces the client sweep with a listio_max_regions
// sweep at the 4-client point (the EXPERIMENTS.md knob-tuning recipe).
#include "bench_common.hpp"
#include "workload/strided.hpp"

using namespace dpnfs;
using namespace dpnfs::bench;
using core::Architecture;

namespace {

constexpr uint32_t kRecordBytes = 512;

struct CaseResult {
  double mbps = 0;
  uint64_t write_rpcs = 0;
};

/// `max_regions` 1 is the listio-off rung.
CaseResult run_case(uint32_t clients, uint32_t records, uint32_t checkpoints,
                    uint32_t max_regions) {
  core::ClusterConfig cfg = paper_config(Architecture::kDirectPnfs, clients);
  // 16 regions per WRITEV is the sweet spot on this cluster: enough to
  // amortize the per-RPC cost, small enough that several WRITEVs stay in
  // flight per DS and keep the wire and server CPU overlapped (run
  // --sweep-regions to reproduce the tradeoff).
  cfg.listio_max_regions = max_regions;
  // SSD-class disks: COMMIT-time flush seek order otherwise dominates the
  // timing and drowns the per-RPC protocol cost this ablation isolates.
  cfg.disk.bytes_per_sec = 500e6;
  cfg.disk.positioning = sim::us(10);
  cfg.disk.per_request = sim::us(20);
  core::Deployment d(cfg);
  workload::StridedConfig scfg;
  scfg.record_bytes = kRecordBytes;
  scfg.records_per_checkpoint = records;
  scfg.checkpoints = checkpoints;
  scfg.compute_per_checkpoint = sim::ms(10);
  scfg.verify_read = false;  // measure the write path alone
  workload::StridedWorkload w(scfg);
  const workload::RunResult r = run_workload(d, w);

  CaseResult out;
  out.mbps = r.aggregate_mbps();
  for (uint32_t i = 0; i < clients; ++i) {
    const auto* c = d.metrics().find_counter("client" + std::to_string(i),
                                             "client.sched",
                                             "dispatched_writes");
    out.write_rpcs += c != nullptr ? c->value() : 0;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = flag_present(argc, argv, "--smoke");
  const bool quick = smoke || flag_present(argc, argv, "--quick");
  // Enough records that every checkpoint spans all six storage nodes
  // (6144 * 4 clients * 512 B = 12 MiB = 6 stripe units).
  const uint32_t records = 6144;
  const uint32_t checkpoints = quick ? 2 : 4;

  if (flag_present(argc, argv, "--sweep-regions")) {
    std::printf("== listio_max_regions sweep (4 clients, %u B records) ==\n",
                kRecordBytes);
    for (uint32_t mr : {2u, 4u, 8u, 16u, 32u, 64u}) {
      const CaseResult r = run_case(4, records, checkpoints, mr);
      std::printf("max_regions=%2u  %7.1f MB/s  write_rpcs=%llu\n", mr, r.mbps,
                  static_cast<unsigned long long>(r.write_rpcs));
    }
    const CaseResult off = run_case(4, records, checkpoints, 1);
    std::printf("listio-off     %7.1f MB/s  write_rpcs=%llu\n", off.mbps,
                static_cast<unsigned long long>(off.write_rpcs));
    return 0;
  }

  // One client degenerates (stride 1 means the records are contiguous and
  // plain coalescing already folds them), so the sweep starts at two.
  const auto clients = smoke ? std::vector<uint32_t>{2, 4}
                             : std::vector<uint32_t>{2, 4, 6, 8};

  std::printf("== Ablation: vectored list I/O, strided checkpoints "
              "(Direct-pNFS) ==\n");
  BenchRecorder rec("ablation_listio", arg_value(argc, argv, "--out-dir", ""));

  Series on_mbps{"listio-on", {}}, off_mbps{"listio-off", {}};
  Series factor{"rpc-factor", {}};
  bool gate_ok = true;
  for (uint32_t n : clients) {
    const CaseResult on = run_case(n, records, checkpoints, 16);
    const CaseResult off = run_case(n, records, checkpoints, 1);
    const double reduction =
        on.write_rpcs > 0
            ? static_cast<double>(off.write_rpcs) / on.write_rpcs
            : 0.0;
    on_mbps.values.push_back(on.mbps);
    off_mbps.values.push_back(off.mbps);
    factor.values.push_back(reduction);
    rec.add("listio-on", "direct-pnfs", n, on.mbps, "MB/s");
    rec.add("listio-off", "direct-pnfs", n, off.mbps, "MB/s");
    rec.add("write-rpc-reduction", "direct-pnfs", n, reduction, "x");
    if (reduction < 4.0) {
      std::fprintf(stderr,
                   "FAIL: %u clients: %llu WRITEs with listio vs %llu "
                   "without — reduction %.2fx < 4x\n",
                   n, static_cast<unsigned long long>(on.write_rpcs),
                   static_cast<unsigned long long>(off.write_rpcs), reduction);
      gate_ok = false;
    }
    if (on.mbps <= off.mbps) {
      std::fprintf(stderr,
                   "FAIL: %u clients: listio-on %.1f MB/s not faster than "
                   "listio-off %.1f MB/s\n",
                   n, on.mbps, off.mbps);
      gate_ok = false;
    }
  }
  print_table("Strided checkpoint write throughput", "clients", clients,
              {on_mbps, off_mbps}, "aggregate MB/s");
  print_table("WRITE-RPC reduction from folding", "clients", clients,
              {factor}, "x fewer WRITEs");
  rec.flush();
  return gate_ok ? 0 : 1;
}
