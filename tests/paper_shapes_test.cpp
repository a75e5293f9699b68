// Paper-shape regression tests: the qualitative results of the evaluation,
// asserted at reduced scale so the full figure benches can't silently
// regress.  Each test encodes one sentence of §6.
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "workload/atlas.hpp"
#include "workload/ior.hpp"
#include "workload/oltp.hpp"
#include "workload/runner.hpp"

namespace dpnfs {
namespace {

using core::Architecture;
using core::ClusterConfig;
using core::Deployment;

double ior_mbps(Architecture arch, bool write, uint64_t block, uint32_t clients,
                bool single_file = false, double nic_bps = 117e6) {
  ClusterConfig cfg;
  cfg.architecture = arch;
  cfg.clients = clients;
  cfg.nic.bytes_per_sec = nic_bps;
  Deployment d(cfg);
  workload::IorConfig ior;
  ior.write = write;
  ior.single_file = single_file;
  ior.block_size = block;
  ior.bytes_per_client = 60'000'000;
  workload::IorWorkload w(ior);
  return run_workload(d, w).aggregate_mbps();
}

constexpr uint64_t k2MB = 2 << 20;
constexpr uint64_t k8KB = 8 * 1024;

TEST(PaperShapes, DirectMatchesPvfs2OnLargeWrites) {
  // §6.2: "Direct-pNFS matches the performance of PVFS2" (large writes).
  const double direct = ior_mbps(Architecture::kDirectPnfs, true, k2MB, 6);
  const double pvfs = ior_mbps(Architecture::kNativePvfs, true, k2MB, 6);
  EXPECT_GT(direct, 0.75 * pvfs);
  EXPECT_GT(pvfs, 0.6 * direct);
}

TEST(PaperShapes, SmallBlocksDoNotHurtDirectButCrushPvfs2) {
  // §6.2: NFSv4-based architectures are unaffected by 8 KB blocks thanks to
  // the write-back cache; PVFS2 collapses.
  const double direct_large = ior_mbps(Architecture::kDirectPnfs, true, k2MB, 4);
  const double direct_small = ior_mbps(Architecture::kDirectPnfs, true, k8KB, 4);
  EXPECT_GT(direct_small, 0.85 * direct_large);

  const double pvfs_large = ior_mbps(Architecture::kNativePvfs, true, k2MB, 4);
  const double pvfs_small = ior_mbps(Architecture::kNativePvfs, true, k8KB, 4);
  EXPECT_LT(pvfs_small, 0.5 * pvfs_large);
}

TEST(PaperShapes, SmallBlocksDoNotHurtDirectSingleFileReads) {
  // §6.2.1 / Fig 7d: "8 KB blocks leave the NFS family unaffected", also
  // when the clients read disjoint regions of one shared file.
  const double separate = ior_mbps(Architecture::kDirectPnfs, false, k8KB, 4);
  const double single =
      ior_mbps(Architecture::kDirectPnfs, false, k8KB, 4, /*single_file=*/true);
  EXPECT_GE(single, 0.9 * separate);
}

TEST(PaperShapes, TwoTierLosesHalfOnSlowNetwork) {
  // §6.2 / Fig 6c: inter-server transfers halve pNFS-2tier on 100 Mbps.
  const double direct =
      ior_mbps(Architecture::kDirectPnfs, true, k2MB, 4, false, 11.5e6);
  const double two_tier =
      ior_mbps(Architecture::kPnfs2Tier, true, k2MB, 4, false, 11.5e6);
  EXPECT_LT(two_tier, 0.65 * direct);
}

TEST(PaperShapes, NfsV4IsBoundByOneServer) {
  // §6.2: "NFSv4 aggregate performance is flat, limited to ... a single
  // server": going 2 -> 6 clients gains little.
  const double at2 = ior_mbps(Architecture::kPlainNfs, false, k2MB, 2);
  const double at6 = ior_mbps(Architecture::kPlainNfs, false, k2MB, 6);
  EXPECT_LT(at6, 1.4 * at2);
  // While Direct-pNFS keeps scaling.
  const double d2 = ior_mbps(Architecture::kDirectPnfs, false, k2MB, 2);
  const double d6 = ior_mbps(Architecture::kDirectPnfs, false, k2MB, 6);
  EXPECT_GT(d6, 2.2 * d2);
}

TEST(PaperShapes, WarmCacheReadsScaleWithClients) {
  // §6.2.1: reads come from server caches; clients are the limit, so
  // aggregate grows ~linearly with client count for Direct-pNFS.
  const double d1 = ior_mbps(Architecture::kDirectPnfs, false, k2MB, 1);
  const double d4 = ior_mbps(Architecture::kDirectPnfs, false, k2MB, 4);
  EXPECT_GT(d4, 3.0 * d1);
}

TEST(PaperShapes, AtlasMixFavorsDirect) {
  // §6.3.1: the mixed small/large ATLAS writes hurt PVFS2 far more.
  auto run = [](Architecture arch) {
    ClusterConfig cfg;
    cfg.architecture = arch;
    cfg.clients = 4;
    Deployment d(cfg);
    workload::AtlasConfig acfg;
    acfg.bytes_per_client = 400'000'000;
    acfg.file_span = 400'000'000;
    workload::AtlasWorkload w(acfg);
    return run_workload(d, w).aggregate_mbps();
  };
  EXPECT_GT(run(Architecture::kDirectPnfs), 1.2 * run(Architecture::kNativePvfs));
}

TEST(PaperShapes, OltpFavorsDirect) {
  // §6.4.1: Direct-pNFS beats PVFS2 substantially on 8 KB RMW + fsync.
  auto run = [](Architecture arch) {
    ClusterConfig cfg;
    cfg.architecture = arch;
    cfg.clients = 4;
    Deployment d(cfg);
    workload::OltpConfig ocfg;
    ocfg.file_bytes = 128ull << 20;
    ocfg.transactions_per_client = 500;
    workload::OltpWorkload w(ocfg);
    return run_workload(d, w).tps();
  };
  EXPECT_GT(run(Architecture::kDirectPnfs), 2.0 * run(Architecture::kNativePvfs));
}

}  // namespace
}  // namespace dpnfs
