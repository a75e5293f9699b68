// Layout translator unit tests with a scripted PFS layout provider, plus
// the synthetic (placement-oblivious) layout source of the 2-/3-tier
// deployments.
#include <gtest/gtest.h>

#include <map>

#include "core/translator.hpp"
#include "sim/simulation.hpp"

namespace dpnfs::core {
namespace {

using nfs::Status;
using sim::Task;

class FakeProvider final : public PfsLayoutProvider {
 public:
  bool describe(nfs::FileHandle fh, PfsLayoutDescription* out) override {
    auto it = layouts_.find(fh.id);
    if (it == layouts_.end()) return false;
    *out = it->second;
    return true;
  }
  Task<uint64_t> on_layout_commit(nfs::FileHandle fh, uint64_t new_size) override {
    committed_[fh.id] = new_size;
    co_return 1;
  }

  std::map<uint64_t, PfsLayoutDescription> layouts_;
  std::map<uint64_t, uint64_t> committed_;
};

std::vector<nfs::DeviceEntry> make_devices(uint32_t n) {
  std::vector<nfs::DeviceEntry> out;
  for (uint32_t i = 0; i < n; ++i) {
    out.push_back(nfs::DeviceEntry{nfs::DeviceId{i}, 100 + i, 2049});
  }
  return out;
}

/// Runs a coroutine returning Status synchronously (no time passes).
Status run_status(sim::Simulation& sim, Task<Status> task) {
  Status result = Status::kIo;
  sim.spawn([](Task<Status> t, Status& out) -> Task<void> {
    out = co_await t;
  }(std::move(task), result));
  sim.run();
  return result;
}

TEST(LayoutTranslator, TranslatesPlacementsToDevicesAndFhs) {
  sim::Simulation sim;
  FakeProvider provider;
  PfsLayoutDescription desc;
  desc.aggregation = nfs::AggregationType::kRoundRobin;
  desc.stripe_unit = 1 << 20;
  // File striped over storage nodes 2, 0, 1 (rotated start), with object
  // ids 500, 501, 502.
  desc.placements = {{2, 500}, {0, 501}, {1, 502}};
  provider.layouts_[7] = desc;

  obs::MetricsRegistry metrics;
  LayoutTranslator tr(provider, make_devices(3), metrics, "mds");
  nfs::FileLayout layout;
  ASSERT_EQ(run_status(sim, tr.layout_get(nfs::FileHandle{7},
                                          nfs::LayoutIoMode::kReadWrite,
                                          &layout)),
            Status::kOk);
  ASSERT_EQ(layout.devices.size(), 3u);
  EXPECT_EQ(layout.devices[0].id, 2u);  // preserves the PFS stripe order
  EXPECT_EQ(layout.devices[1].id, 0u);
  EXPECT_EQ(layout.devices[2].id, 1u);
  // The data-server filehandle IS the storage object id.
  EXPECT_EQ(layout.fhs[0].id, 500u);
  EXPECT_EQ(layout.fhs[1].id, 501u);
  EXPECT_EQ(layout.fhs[2].id, 502u);
  EXPECT_EQ(layout.stripe_unit, 1u << 20);
  EXPECT_TRUE(layout.valid());
  EXPECT_EQ(tr.layouts_granted(), 1u);
}

TEST(LayoutTranslator, UnknownFileIsLayoutUnavailable) {
  sim::Simulation sim;
  FakeProvider provider;
  obs::MetricsRegistry metrics;
  LayoutTranslator tr(provider, make_devices(3), metrics, "mds");
  nfs::FileLayout layout;
  EXPECT_EQ(run_status(sim, tr.layout_get(nfs::FileHandle{99},
                                          nfs::LayoutIoMode::kRead, &layout)),
            Status::kLayoutUnavailable);
  EXPECT_EQ(tr.layouts_granted(), 0u);
}

TEST(LayoutTranslator, DegenerateDescriptionsRejected) {
  sim::Simulation sim;
  FakeProvider provider;
  provider.layouts_[1] = PfsLayoutDescription{};  // empty placements
  PfsLayoutDescription bad_index;
  bad_index.stripe_unit = 4096;
  bad_index.placements = {{9, 1}};  // storage index out of range
  provider.layouts_[2] = bad_index;

  obs::MetricsRegistry metrics;
  LayoutTranslator tr(provider, make_devices(3), metrics, "mds");
  nfs::FileLayout layout;
  EXPECT_EQ(run_status(sim, tr.layout_get(nfs::FileHandle{1},
                                          nfs::LayoutIoMode::kRead, &layout)),
            Status::kLayoutUnavailable);
  EXPECT_EQ(run_status(sim, tr.layout_get(nfs::FileHandle{2},
                                          nfs::LayoutIoMode::kRead, &layout)),
            Status::kLayoutUnavailable);
}

TEST(LayoutTranslator, CommitForwardsSizeChanges) {
  sim::Simulation sim;
  FakeProvider provider;
  obs::MetricsRegistry metrics;
  LayoutTranslator tr(provider, make_devices(2), metrics, "mds");
  uint64_t post_change = 99;
  EXPECT_EQ(run_status(sim, tr.layout_commit(nfs::FileHandle{5}, 12345, true,
                                             &post_change)),
            Status::kOk);
  EXPECT_EQ(provider.committed_.at(5), 12345u);
  EXPECT_EQ(post_change, 1u);  // the provider's reported change attribute
  // size_changed=false must not call the provider.
  EXPECT_EQ(run_status(sim, tr.layout_commit(nfs::FileHandle{6}, 777, false,
                                             &post_change)),
            Status::kOk);
  EXPECT_FALSE(provider.committed_.contains(6));
}

TEST(LayoutTranslator, DeviceListMatchesConstruction) {
  sim::Simulation sim;
  FakeProvider provider;
  obs::MetricsRegistry metrics;
  LayoutTranslator tr(provider, make_devices(4), metrics, "mds");
  std::vector<nfs::DeviceEntry> devices;
  Status st = Status::kIo;
  sim.spawn([](LayoutTranslator& tr, std::vector<nfs::DeviceEntry>& devices,
               Status& st) -> Task<void> {
    st = co_await tr.get_device_list(&devices);
  }(tr, devices, st));
  sim.run();
  EXPECT_EQ(st, Status::kOk);
  ASSERT_EQ(devices.size(), 4u);
  EXPECT_EQ(devices[3].node_id, 103u);
}

TEST(SyntheticLayoutSource, ObliviousLayoutSharesTheMdsFilehandle) {
  sim::Simulation sim;
  obs::MetricsRegistry metrics;
  SyntheticLayoutSource src(make_devices(6), 2 << 20, metrics, "mds");
  nfs::FileLayout layout;
  ASSERT_EQ(run_status(sim, src.layout_get(nfs::FileHandle{42},
                                           nfs::LayoutIoMode::kReadWrite,
                                           &layout)),
            Status::kOk);
  ASSERT_EQ(layout.fhs.size(), 6u);
  for (const auto& fh : layout.fhs) EXPECT_EQ(fh.id, 42u);
  EXPECT_EQ(layout.aggregation, nfs::AggregationType::kRoundRobin);
  EXPECT_EQ(layout.stripe_unit, 2u << 20);
}

}  // namespace
}  // namespace dpnfs::core
