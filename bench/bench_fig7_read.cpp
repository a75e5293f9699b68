// Figure 7: IOR aggregate read throughput (warm server caches).
//   (a) separate files, large blocks   (b) single file, large blocks
//   (c) separate files, 8 KB blocks    (d) single file, 8 KB blocks
#include "bench_common.hpp"
#include "workload/ior.hpp"

using namespace dpnfs;
using namespace dpnfs::bench;
using core::Architecture;

namespace {

void sweep(BenchRecorder& rec, const char* title, const char* figure,
           bool single_file, uint64_t block_size,
           const std::vector<Architecture>& archs,
           const std::vector<uint32_t>& clients, uint64_t bytes_per_client) {
  std::vector<Series> series;
  for (Architecture arch : archs) {
    Series s;
    s.label = core::architecture_name(arch);
    for (uint32_t n : clients) {
      workload::IorConfig ior;
      ior.write = false;
      ior.single_file = single_file;
      ior.block_size = block_size;
      ior.bytes_per_client = bytes_per_client;
      core::Deployment d(paper_config(arch, n));
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

  std::printf("== Figure 7: IOR aggregate read throughput (warm caches) ==\n");
  BenchRecorder rec("fig7_read", arg_value(argc, argv, "--out-dir", ""));
  sweep(rec, "Fig 7a: read, separate files, 2 MB blocks", "7a", false, 2 << 20,
        all, clients, bytes);
  if (smoke) {
    // ctest smoke (label bench-smoke): all five architectures, tiny sweep,
    // Figure 7a only.
    rec.flush();
    return 0;
  }
  sweep(rec, "Fig 7b: read, single file, 2 MB blocks", "7b", true, 2 << 20,
        all, clients, bytes);
  sweep(rec, "Fig 7c: read, separate files, 8 KB blocks", "7c", false,
        8 * 1024, all, clients, small_bytes);
  sweep(rec, "Fig 7d: read, single file, 8 KB blocks", "7d", true, 8 * 1024,
        all, clients, small_bytes);
  rec.flush();
  return 0;
}
