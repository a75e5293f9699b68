// Figure 6: IOR aggregate write throughput.
//   (a) separate files, large blocks        (b) single file, large blocks
//   (c) separate files, 100 Mbps Ethernet   (d) separate files, 8 KB blocks
//   (e) single file, 8 KB blocks
#include "bench_common.hpp"
#include "workload/ior.hpp"

using namespace dpnfs;
using namespace dpnfs::bench;
using core::Architecture;

namespace {

void sweep(BenchRecorder& rec, const char* title, const char* figure,
           bool single_file, uint64_t block_size,
           const std::vector<Architecture>& archs,
           const std::vector<uint32_t>& clients, uint64_t bytes_per_client,
           bool hundred_mbps) {
  std::vector<Series> series;
  for (Architecture arch : archs) {
    Series s;
    s.label = core::architecture_name(arch);
    for (uint32_t n : clients) {
      core::ClusterConfig cfg = hundred_mbps ? paper_config_100mbps(arch, n)
                                             : paper_config(arch, n);
      workload::IorConfig ior;
      ior.write = true;
      ior.single_file = single_file;
      ior.block_size = block_size;
      ior.bytes_per_client = bytes_per_client;
      core::Deployment d(cfg);
      workload::IorWorkload w(ior);
      const workload::RunResult r = run_workload(d, w);
      s.values.push_back(r.aggregate_mbps());
      rec.add(figure, s.label, n, r.aggregate_mbps(), "MB/s");
    }
    series.push_back(std::move(s));
  }
  print_table(title, "clients", clients, series, "aggregate MB/s");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = flag_present(argc, argv, "--smoke");
  const bool quick = smoke || flag_present(argc, argv, "--quick");
  const auto clients = smoke ? std::vector<uint32_t>{1, 4} : client_sweep(quick);
  const uint64_t bytes = smoke ? 10'000'000 : quick ? 100'000'000 : 500'000'000;
  const uint64_t small_bytes = quick ? 50'000'000 : 500'000'000;

  const std::vector<Architecture> all = {
      Architecture::kDirectPnfs, Architecture::kNativePvfs,
      Architecture::kPnfs2Tier, Architecture::kPnfs3Tier,
      Architecture::kPlainNfs};
  const std::vector<Architecture> fig6c = {Architecture::kDirectPnfs,
                                           Architecture::kNativePvfs,
                                           Architecture::kPnfs2Tier};

  std::printf("== Figure 6: IOR aggregate write throughput ==\n");
  BenchRecorder rec("fig6_write", arg_value(argc, argv, "--out-dir", ""));
  sweep(rec, "Fig 6a: write, separate files, 2 MB blocks", "6a", false,
        2 << 20, all, clients, bytes, false);
  if (smoke) {
    // ctest smoke (label bench-smoke): all five architectures, tiny sweep,
    // Figures 6a and 6d only — enough for the JSON schema gate to chew on,
    // and the 8 KB sweep keeps the write-back coalescing path on the
    // regression radar (tools/check_bench_delta.py).
    sweep(rec, "Fig 6d: write, separate files, 8 KB blocks", "6d", false,
          8 * 1024, all, clients, bytes, false);
    rec.flush();
    return 0;
  }
  sweep(rec, "Fig 6b: write, single file, 2 MB blocks", "6b", true, 2 << 20,
        all, clients, bytes, false);
  sweep(rec, "Fig 6c: write, separate files, 2 MB blocks, 100 Mbps", "6c",
        false, 2 << 20, fig6c, clients, quick ? 20'000'000 : 100'000'000, true);
  sweep(rec, "Fig 6d: write, separate files, 8 KB blocks", "6d", false,
        8 * 1024, all, clients, small_bytes, false);
  sweep(rec, "Fig 6e: write, single file, 8 KB blocks", "6e", true, 8 * 1024,
        all, clients, small_bytes, false);
  rec.flush();
  return 0;
}
