// Deeper workload-generator properties: exact tiling, cross-architecture
// content agreement, and determinism guarantees the benches rely on.
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "util/bytes.hpp"
#include "workload/atlas.hpp"
#include "workload/btio.hpp"
#include "workload/oltp.hpp"
#include "workload/openloop.hpp"
#include "workload/postmark.hpp"
#include "workload/strided.hpp"
#include "workload/runner.hpp"

namespace dpnfs::workload {
namespace {

using namespace dpnfs::util::literals;
using core::Architecture;
using core::ClusterConfig;
using core::Deployment;

ClusterConfig tiny(Architecture arch, uint32_t clients) {
  ClusterConfig cfg;
  cfg.architecture = arch;
  cfg.storage_nodes = 4;
  cfg.clients = clients;
  return cfg;
}

TEST(AtlasProperties, WritesTileTheFileExactlyOnce) {
  // The digitization replay must write each byte of the output exactly
  // once: afterwards the file size equals bytes_per_client and the disks
  // absorbed exactly that much (no overlap-inflation).
  Deployment d(tiny(Architecture::kDirectPnfs, 1));
  AtlasConfig cfg;
  cfg.bytes_per_client = 24_MiB;
  cfg.file_span = 24_MiB;
  AtlasWorkload w(cfg);
  const RunResult r = run_workload(d, w);
  EXPECT_EQ(r.app_bytes, 24_MiB);

  bool checked = false;
  d.simulation().spawn([](Deployment& d, bool& checked) -> sim::Task<void> {
    const uint64_t size = co_await d.client(0).stat_size("/atlas/f0");
    EXPECT_EQ(size, 24_MiB);
    checked = true;
  }(d, checked));
  d.simulation().run();
  EXPECT_TRUE(checked);
  // Exactly the unique bytes reached the disks (one commit, no rewrite).
  EXPECT_EQ(d.disk_write_bytes(), 24_MiB);
}

TEST(AtlasProperties, IssueOrderIsShuffledButDeterministic) {
  AtlasConfig cfg;
  AtlasWorkload w(cfg);
  util::Rng a(1), b(1), c(2);
  // Same seed, same stream; different seed, different stream.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(w.draw_request_size(a), w.draw_request_size(b));
  }
  int diffs = 0;
  util::Rng a2(1);
  for (int i = 0; i < 100; ++i) {
    if (w.draw_request_size(a2) != w.draw_request_size(c)) ++diffs;
  }
  EXPECT_GT(diffs, 50);
}

TEST(BtioProperties, CheckpointFileIsCompleteForAwkwardClientCounts) {
  // 3 clients do not divide the checkpoint evenly, and an odd file size
  // does not divide into its 2 checkpoints: the last rank absorbs the rank
  // remainder and the last checkpoint the checkpoint remainder, so
  // verification sees a complete file.
  for (const uint64_t file_bytes : {10'000'000ull, 10'000'001ull}) {
    SCOPED_TRACE(file_bytes);
    Deployment d(tiny(Architecture::kDirectPnfs, 3));
    BtioConfig cfg;
    cfg.file_bytes = file_bytes;
    cfg.time_steps = 10;
    cfg.checkpoint_every = 5;
    cfg.compute_total = sim::sec(1);
    BtioWorkload w(cfg);
    const RunResult r = run_workload(d, w);  // throws on a short file
    EXPECT_GT(r.elapsed_seconds, 0.0);

    uint64_t size = 0;
    d.simulation().spawn([](Deployment& d, uint64_t& size) -> sim::Task<void> {
      size = co_await d.client(0).stat_size("/btio/out");
    }(d, size));
    d.simulation().run();
    EXPECT_EQ(size, file_bytes);
  }
}

TEST(StridedProperties, RecordsTileTheFileDenselyAndDeterministically) {
  // The strided checkpoint interleaves records round-robin; across all
  // clients and checkpoints every file byte is written exactly once, so
  // the final size and the disk traffic both equal file_bytes().
  StridedConfig cfg;
  cfg.record_bytes = 8192;
  cfg.records_per_checkpoint = 16;
  cfg.checkpoints = 3;
  auto run_once = [&cfg] {
    Deployment d(tiny(Architecture::kDirectPnfs, 3));
    StridedWorkload w(cfg);
    const RunResult r = run_workload(d, w);  // verify_read throws on holes
    uint64_t size = 0;
    d.simulation().spawn([](Deployment& d, uint64_t& size) -> sim::Task<void> {
      size = co_await d.client(0).stat_size("/strided/out");
    }(d, size));
    d.simulation().run();
    EXPECT_EQ(size, cfg.file_bytes(3));
    // app_bytes counts the writes plus the full verify readback.
    EXPECT_EQ(r.app_bytes, 2 * cfg.file_bytes(3));
    EXPECT_EQ(d.disk_write_bytes(), cfg.file_bytes(3));
    return std::make_pair(r.elapsed_seconds, d.disk_write_bytes());
  };
  // No RNG anywhere: two runs are bit-identical in time and bytes.
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(OltpProperties, UpdateOnlyModeIsSeedDeterministic) {
  // Update-only OLTP batches random page writes per transaction.  The
  // application byte count is exact, and the same seed reproduces the
  // whole run bit-for-bit (same simulated duration, same disk traffic).
  OltpConfig cfg;
  cfg.file_bytes = 4_MiB;
  cfg.transactions_per_client = 25;
  cfg.update_only = true;
  cfg.updates_per_txn = 8;
  cfg.seed = 42;
  auto run_once = [&cfg] {
    Deployment d(tiny(Architecture::kDirectPnfs, 2));
    OltpWorkload w(cfg);
    const RunResult r = run_workload(d, w);
    EXPECT_EQ(r.transactions, 2u * 25u);
    EXPECT_EQ(r.app_bytes, 2ull * 25u * 8u * cfg.io_size);
    return std::make_pair(r.elapsed_seconds, d.disk_write_bytes());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);

  // A different seed lands the updates on different pages, which changes
  // at least the timing of the run.
  cfg.seed = 43;
  const auto c = run_once();
  EXPECT_NE(a.first, c.first);
}

TEST(PostmarkProperties, FilePoolStaysConsistent) {
  Deployment d(tiny(Architecture::kDirectPnfs, 1));
  PostmarkConfig cfg;
  cfg.initial_files = 30;
  cfg.transactions = 200;
  cfg.max_file_bytes = 32 * 1024;
  PostmarkWorkload w(cfg);
  const RunResult r = run_workload(d, w);
  EXPECT_EQ(r.transactions, 200u);

  // Every file the instance believes exists must be openable, and the
  // directories must contain only those files.
  bool checked = false;
  d.simulation().spawn([](Deployment& d, bool& checked) -> sim::Task<void> {
    uint64_t found = 0;
    for (int dir = 0; dir < 10; ++dir) {
      auto names = co_await d.client(0).list("/pm0/d" + std::to_string(dir));
      for (const auto& name : names) {
        const uint64_t size = co_await d.client(0).stat_size(
            "/pm0/d" + std::to_string(dir) + "/" + name);
        EXPECT_GT(size, 0u);
        ++found;
      }
    }
    EXPECT_GT(found, 0u);
    checked = true;
  }(d, checked));
  d.simulation().run();
  EXPECT_TRUE(checked);
}

TEST(CrossArchitecture, SameWorkloadSameResultingBytes) {
  // The same ATLAS run on two architectures must produce files of identical
  // size (the access path must not change WHAT is stored).
  auto file_size = [](Architecture arch) {
    Deployment d(tiny(arch, 2));
    AtlasConfig cfg;
    cfg.bytes_per_client = 8_MiB;
    cfg.file_span = 8_MiB;
    AtlasWorkload w(cfg);
    (void)run_workload(d, w);
    uint64_t size = 0;
    d.simulation().spawn([](Deployment& d, uint64_t& size) -> sim::Task<void> {
      size = co_await d.client(1).stat_size("/atlas/f1");
    }(d, size));
    d.simulation().run();
    return size;
  };
  const uint64_t direct = file_size(Architecture::kDirectPnfs);
  const uint64_t pvfs = file_size(Architecture::kNativePvfs);
  const uint64_t two_tier = file_size(Architecture::kPnfs2Tier);
  EXPECT_EQ(direct, 8_MiB);
  EXPECT_EQ(pvfs, direct);
  EXPECT_EQ(two_tier, direct);
}

// --- Open-loop arrival schedule properties ---------------------------------

TEST(OpenLoopProperties, SameSeedBitIdenticalScheduleAndTenants) {
  OpenLoopConfig cfg;
  cfg.seed = 0xFEEDFACE;
  cfg.rate_per_sec = 5000;
  cfg.duration = sim::sec(2);
  cfg.tenant_weights = {4, 3, 2, 1};
  cfg.diurnal_peak_ratio = 2.0;

  // The schedule is pure Rng arithmetic over the config: it must be
  // bit-identical across runs (and across architectures/topologies — it
  // never consults a deployment).
  const auto a = generate_arrivals(cfg);
  const auto b = generate_arrivals(cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at) << "arrival " << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << "arrival " << i;
    EXPECT_EQ(a[i].session_seed, b[i].session_seed) << "arrival " << i;
  }
  // Sorted by time; tenant labels restricted to the configured mix.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].at, a[i].at);
  }
  for (const auto& arr : a) {
    EXPECT_GE(arr.tenant, 1u);
    EXPECT_LE(arr.tenant, 4u);
  }

  // A different seed moves the schedule.
  cfg.seed ^= 1;
  const auto c = generate_arrivals(cfg);
  ASSERT_FALSE(c.empty());
  EXPECT_TRUE(a.size() != c.size() || a[0].at != c[0].at ||
              a[0].session_seed != c[0].session_seed);
}

TEST(OpenLoopProperties, PoissonRealizesConfiguredRateAndMix) {
  OpenLoopConfig cfg;
  cfg.rate_per_sec = 10000;
  cfg.duration = sim::sec(2);
  cfg.tenant_weights = {4, 3, 2, 1};

  const auto arrivals = generate_arrivals(cfg);
  const double expected = cfg.rate_per_sec * sim::to_seconds(cfg.duration);
  EXPECT_NEAR(static_cast<double>(arrivals.size()), expected,
              0.05 * expected);

  double share[5] = {};
  for (const auto& a : arrivals) share[a.tenant] += 1;
  for (int t = 1; t <= 4; ++t) {
    const double want = cfg.tenant_weights[t - 1] / 10.0;
    EXPECT_NEAR(share[t] / arrivals.size(), want, 0.02) << "tenant " << t;
  }
}

TEST(OpenLoopProperties, DiurnalRampConcentratesArrivalsMidWindow) {
  OpenLoopConfig cfg;
  cfg.rate_per_sec = 5000;
  cfg.duration = sim::sec(3);
  cfg.diurnal_peak_ratio = 3.0;

  const auto arrivals = generate_arrivals(cfg);
  const sim::Time third = cfg.duration / 3;
  size_t early = 0, mid = 0;
  for (const auto& a : arrivals) {
    if (a.at < third) ++early;
    if (a.at >= third && a.at < 2 * third) ++mid;
  }
  // The middle third straddles the peak of the triangular tide; it must see
  // substantially more arrivals than the ramp-up third.
  EXPECT_GT(mid, early * 3 / 2);
}

TEST(OpenLoopProperties, BoundedParetoRecoversTailIndex) {
  OpenLoopConfig cfg;
  cfg.process = ArrivalProcess::kBoundedPareto;
  cfg.pareto_alpha = 1.5;
  cfg.pareto_lo = 1.0;
  cfg.pareto_hi = 1e6;  // wide support: truncation bias is negligible
  cfg.rate_per_sec = 10000;
  cfg.duration = sim::sec(2);

  const auto arrivals = generate_arrivals(cfg);
  ASSERT_GT(arrivals.size(), 5000u);

  std::vector<double> gaps;
  gaps.reserve(arrivals.size());
  sim::Time prev = 0;
  for (const auto& a : arrivals) {
    if (a.at > prev) gaps.push_back(static_cast<double>(a.at - prev));
    prev = a.at;
  }
  std::sort(gaps.begin(), gaps.end(), std::greater<>());

  // Hill estimator over the top-k order statistics: alpha_hat =
  // k / sum(ln(x_i / x_k)).  Scale-invariant, so the rescaling of draws to
  // the configured mean rate does not move it.
  const size_t k = 500;
  ASSERT_GT(gaps.size(), k);
  double acc = 0;
  for (size_t i = 0; i < k; ++i) acc += std::log(gaps[i] / gaps[k]);
  const double alpha_hat = static_cast<double>(k) / acc;
  EXPECT_NEAR(alpha_hat, cfg.pareto_alpha, 0.25);
}

TEST(OpenLoopProperties, HeavyTailedScheduleIsAlsoSeedDeterministic) {
  OpenLoopConfig cfg;
  cfg.process = ArrivalProcess::kBoundedPareto;
  cfg.rate_per_sec = 2000;
  cfg.duration = sim::sec(1);
  const auto a = generate_arrivals(cfg);
  const auto b = generate_arrivals(cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].session_seed, b[i].session_seed);
  }
}

}  // namespace
}  // namespace dpnfs::workload
