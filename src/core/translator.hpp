// The Direct-pNFS layout translator (the paper's §4.2) and the synthetic
// layout source of the 2-/3-tier file-layout deployments.
//
// The translator converts a parallel file system's native layout into a
// pNFS file-based layout without interpreting file-system-specific layout
// information: the PFS describes its layout in a generic form
// (`PfsLayoutDescription`), the translator emits the protocol object
// (`nfs::FileLayout`).  The result gives clients *exact* knowledge of data
// placement, so every READ/WRITE goes to the storage node that physically
// holds the stripe.
//
// `SyntheticLayoutSource` is the foil: it stripes requests round-robin
// across the data-server list with no knowledge of actual placement —
// faithfully reproducing the conventional pNFS file-layout deployments the
// paper measures against (§3.4.1).
#pragma once

#include <functional>
#include <vector>

#include "nfs/backend.hpp"
#include "nfs/layout.hpp"

namespace dpnfs::core {

/// Generic description of how a parallel FS lays out one file.  Produced by
/// the PFS-facing side (e.g. PvfsBackend), consumed by the translator.
struct PfsLayoutDescription {
  nfs::AggregationType aggregation = nfs::AggregationType::kRoundRobin;
  uint64_t stripe_unit = 0;
  /// Per stripe position: which storage node and which object on it.
  struct Placement {
    uint32_t storage_index = 0;
    uint64_t object_id = 0;
  };
  std::vector<Placement> placements;
  std::vector<uint64_t> params;  ///< aggregation-driver parameters
};

/// Supplies the translator with PFS layout descriptions, keyed by the
/// metadata server's filehandles.
class PfsLayoutProvider {
 public:
  virtual ~PfsLayoutProvider() = default;

  /// False when `fh` is unknown or not a regular file.
  virtual bool describe(nfs::FileHandle fh, PfsLayoutDescription* out) = 0;

  /// Called on LAYOUTCOMMIT with a client-reported size change.  Returns
  /// the file's new change attribute (0 when untracked).
  virtual sim::Task<uint64_t> on_layout_commit(nfs::FileHandle fh,
                                               uint64_t new_size) = 0;
};

/// Direct-pNFS layout translator: PFS layout -> pNFS file-based layout.
class LayoutTranslator final : public nfs::LayoutSource {
 public:
  /// `devices[i]` is the NFSv4.1 data server co-located with PFS storage
  /// node i.  The "nfs.layout" counters live in `metrics` under `node` (the
  /// MDS hosting the translator).
  LayoutTranslator(PfsLayoutProvider& provider,
                   std::vector<nfs::DeviceEntry> devices,
                   obs::MetricsRegistry& metrics, const std::string& node);

  sim::Task<nfs::Status> get_device_list(
      std::vector<nfs::DeviceEntry>* out) override;
  sim::Task<nfs::Status> layout_get(nfs::FileHandle fh,
                                    nfs::LayoutIoMode iomode,
                                    nfs::FileLayout* out) override;
  sim::Task<nfs::Status> layout_commit(nfs::FileHandle fh, uint64_t new_size,
                                       bool size_changed,
                                       uint64_t* post_change) override;
  sim::Task<nfs::Status> layout_return(nfs::FileHandle fh) override;

  uint64_t layouts_granted() const noexcept {
    return m_layouts_granted_->value();
  }

 private:
  PfsLayoutProvider& provider_;
  std::vector<nfs::DeviceEntry> devices_;
  obs::Counter* m_layouts_granted_;
  obs::Counter* m_layout_commits_;
  obs::Counter* m_layout_returns_;
};

/// Layout source for conventional file-layout pNFS (2-/3-tier): stripes
/// round-robin over the data servers, oblivious to data placement.  Every
/// data server shares the MDS's filehandle for the file (they proxy to the
/// exported PFS), so `fhs[i] == fh` for all i.
class SyntheticLayoutSource final : public nfs::LayoutSource {
 public:
  /// The "nfs.layout" counter lives in `metrics` under `node` (the MDS
  /// hosting this source).
  SyntheticLayoutSource(std::vector<nfs::DeviceEntry> devices,
                        uint64_t stripe_unit, obs::MetricsRegistry& metrics,
                        const std::string& node);

  sim::Task<nfs::Status> get_device_list(
      std::vector<nfs::DeviceEntry>* out) override;
  sim::Task<nfs::Status> layout_get(nfs::FileHandle fh,
                                    nfs::LayoutIoMode iomode,
                                    nfs::FileLayout* out) override;
  sim::Task<nfs::Status> layout_commit(nfs::FileHandle fh, uint64_t new_size,
                                       bool size_changed,
                                       uint64_t* post_change) override;
  sim::Task<nfs::Status> layout_return(nfs::FileHandle fh) override;

 private:
  std::vector<nfs::DeviceEntry> devices_;
  uint64_t stripe_unit_;
  obs::Counter* m_layouts_granted_;
};

}  // namespace dpnfs::core
