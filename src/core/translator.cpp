#include "core/translator.hpp"

namespace dpnfs::core {

using nfs::Status;
using sim::Task;

LayoutTranslator::LayoutTranslator(PfsLayoutProvider& provider,
                                   std::vector<nfs::DeviceEntry> devices,
                                   obs::MetricsRegistry& metrics,
                                   const std::string& node)
    : provider_(provider),
      devices_(std::move(devices)),
      m_layouts_granted_(
          &metrics.counter(node, "nfs.layout", "layouts_granted")),
      m_layout_commits_(&metrics.counter(node, "nfs.layout", "layout_commits")),
      m_layout_returns_(
          &metrics.counter(node, "nfs.layout", "layout_returns")) {}

Task<Status> LayoutTranslator::get_device_list(
    std::vector<nfs::DeviceEntry>* out) {
  *out = devices_;
  co_return Status::kOk;
}

Task<Status> LayoutTranslator::layout_get(nfs::FileHandle fh,
                                          nfs::LayoutIoMode /*iomode*/,
                                          nfs::FileLayout* out) {
  PfsLayoutDescription desc;
  if (!provider_.describe(fh, &desc)) co_return Status::kLayoutUnavailable;
  if (desc.placements.empty() || desc.stripe_unit == 0) {
    co_return Status::kLayoutUnavailable;
  }
  out->aggregation = desc.aggregation;
  out->stripe_unit = desc.stripe_unit;
  out->params = desc.params;
  out->devices.clear();
  out->fhs.clear();
  for (const auto& p : desc.placements) {
    if (p.storage_index >= devices_.size()) co_return Status::kLayoutUnavailable;
    // Device ids are storage-node indices; the data-server filehandle *is*
    // the PFS storage object id — the essence of the translation: clients
    // address physical stripe objects through plain NFSv4 handles.
    out->devices.push_back(devices_[p.storage_index].device);
    out->fhs.push_back(nfs::FileHandle{p.object_id});
  }
  m_layouts_granted_->inc();
  co_return Status::kOk;
}

Task<Status> LayoutTranslator::layout_commit(nfs::FileHandle fh,
                                             uint64_t new_size,
                                             bool size_changed,
                                             uint64_t* post_change) {
  *post_change = 0;
  m_layout_commits_->inc();
  if (size_changed) {
    *post_change = co_await provider_.on_layout_commit(fh, new_size);
  }
  co_return Status::kOk;
}

Task<Status> LayoutTranslator::layout_return(nfs::FileHandle /*fh*/) {
  m_layout_returns_->inc();
  co_return Status::kOk;
}

SyntheticLayoutSource::SyntheticLayoutSource(
    std::vector<nfs::DeviceEntry> devices, uint64_t stripe_unit,
    obs::MetricsRegistry& metrics, const std::string& node)
    : devices_(std::move(devices)),
      stripe_unit_(stripe_unit),
      m_layouts_granted_(
          &metrics.counter(node, "nfs.layout", "layouts_granted")) {}

Task<Status> SyntheticLayoutSource::get_device_list(
    std::vector<nfs::DeviceEntry>* out) {
  *out = devices_;
  co_return Status::kOk;
}

Task<Status> SyntheticLayoutSource::layout_get(nfs::FileHandle fh,
                                               nfs::LayoutIoMode /*iomode*/,
                                               nfs::FileLayout* out) {
  out->aggregation = nfs::AggregationType::kRoundRobin;
  out->stripe_unit = stripe_unit_;
  out->devices.clear();
  out->fhs.clear();
  for (const auto& d : devices_) {
    out->devices.push_back(d.device);
    out->fhs.push_back(fh);  // every DS proxies the same exported file
  }
  m_layouts_granted_->inc();
  co_return Status::kOk;
}

Task<Status> SyntheticLayoutSource::layout_commit(nfs::FileHandle /*fh*/,
                                                  uint64_t /*new_size*/,
                                                  bool /*size_changed*/,
                                                  uint64_t* post_change) {
  *post_change = 0;
  co_return Status::kOk;  // the exported PFS tracks sizes itself
}

Task<Status> SyntheticLayoutSource::layout_return(nfs::FileHandle /*fh*/) {
  co_return Status::kOk;
}

}  // namespace dpnfs::core
