// pNFS file-based layout types and aggregation drivers.
//
// A file-based layout (RFC 5661 §13) tells the client exactly how a file's
// bytes map onto NFSv4.1 data servers: an aggregation scheme, a stripe unit,
// an ordered device list, and one data-server filehandle per device.
//
// The NFSv4.1 protocol itself defines two aggregation schemes (dense
// round-robin striping and a cyclical device-list pattern).  Direct-pNFS
// adds optional *aggregation drivers* — small, portable plugins that let a
// stock client understand unconventional striping (variable stripe size,
// replication, nested/hierarchical striping) without a full layout driver.
// The extra drivers live in src/core; this header defines the interface and
// the two standard schemes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "nfs/types.hpp"
#include "rpc/xdr.hpp"

namespace dpnfs::nfs {

/// Identifies one data server within a layout's device list.
struct DeviceId {
  uint32_t id = 0;

  bool operator==(const DeviceId&) const = default;
  auto operator<=>(const DeviceId&) const = default;

  void encode(rpc::XdrEncoder& enc) const { enc.put_u32(id); }
  static DeviceId decode(rpc::XdrDecoder& dec) { return DeviceId{dec.get_u32()}; }
};

/// Network address of a data server (GETDEVICELIST / GETDEVICEINFO result).
struct DeviceEntry {
  DeviceId device;
  uint32_t node_id = 0;
  uint16_t port = 0;

  void encode(rpc::XdrEncoder& enc) const {
    device.encode(enc);
    enc.put_u32(node_id);
    enc.put_u32(port);
  }
  static DeviceEntry decode(rpc::XdrDecoder& dec) {
    DeviceEntry e;
    e.device = DeviceId::decode(dec);
    e.node_id = dec.get_u32();
    e.port = static_cast<uint16_t>(dec.get_u32());
    return e;
  }
};

/// Aggregation scheme identifiers.  kRoundRobin and kCyclic are the two
/// standard NFSv4.1 schemes; the rest require an aggregation driver.
enum class AggregationType : uint32_t {
  kRoundRobin = 1,     ///< dense round-robin striping
  kCyclic = 2,         ///< cyclical device pattern with a start offset
  kVariableStripe = 3, ///< per-extent stripe sizes (Exedra-style)
  kReplicated = 4,     ///< full replication across devices (RAID-1-style)
  kNested = 5,         ///< striping across mirror groups (RAID-1+0-style)
  kErasureCoded = 6,   ///< systematic Reed-Solomon k+m; params = [k, m]
};

/// True for schemes that store enough redundancy to survive the loss of at
/// least one device (replica reroute or parity reconstruction).
constexpr bool redundant_aggregation(AggregationType t) noexcept {
  return t == AggregationType::kReplicated || t == AggregationType::kNested ||
         t == AggregationType::kErasureCoded;
}

/// A pNFS file-based layout for a whole file.
struct FileLayout {
  AggregationType aggregation = AggregationType::kRoundRobin;
  uint64_t stripe_unit = 0;
  std::vector<DeviceId> devices;   ///< stripe order
  std::vector<FileHandle> fhs;     ///< per-device data-server filehandles
  std::vector<uint64_t> params;    ///< aggregation-driver parameters

  bool valid() const noexcept {
    return stripe_unit > 0 && !devices.empty() && fhs.size() == devices.size();
  }

  void encode(rpc::XdrEncoder& enc) const {
    enc.put_u32(static_cast<uint32_t>(aggregation));
    enc.put_u64(stripe_unit);
    enc.put_array(devices);
    enc.put_array(fhs);
    enc.put_u32(static_cast<uint32_t>(params.size()));
    for (uint64_t p : params) enc.put_u64(p);
  }
  static FileLayout decode(rpc::XdrDecoder& dec) {
    FileLayout l;
    const uint32_t agg = dec.get_u32();
    if (agg < 1 || agg > 6) throw rpc::XdrError("bad aggregation type");
    l.aggregation = static_cast<AggregationType>(agg);
    l.stripe_unit = dec.get_u64();
    l.devices = dec.get_array<DeviceId>();
    l.fhs = dec.get_array<FileHandle>();
    const uint32_t n = dec.get_u32();
    if (n > 4096) throw rpc::XdrError("too many layout params");
    l.params.reserve(n);
    for (uint32_t i = 0; i < n; ++i) l.params.push_back(dec.get_u64());
    return l;
  }
};

/// Geometry of an erasure-coded layout: params = [k, m] with
/// devices.size() == k + m.  Stripe group g covers file bytes
/// [g*k*su, (g+1)*k*su); data stripe s lives on device s % k at device
/// offset (s / k) * su; parity block j of group g lives on device k + j at
/// device offset g * su.
struct EcGeometry {
  uint64_t k = 0;
  uint64_t m = 0;
  uint64_t su = 0;

  static std::optional<EcGeometry> from(const FileLayout& l) {
    if (l.aggregation != AggregationType::kErasureCoded) return std::nullopt;
    if (l.params.size() < 2 || l.params[0] == 0 || l.params[1] == 0 ||
        l.stripe_unit == 0 ||
        l.devices.size() != l.params[0] + l.params[1]) {
      return std::nullopt;
    }
    return EcGeometry{l.params[0], l.params[1], l.stripe_unit};
  }

  uint64_t group_bytes() const noexcept { return k * su; }
};

/// One contiguous piece of a striped request: `length` bytes at `dev_offset`
/// of device `device_index` (an index into FileLayout::devices).
///
/// `parity` marks segments that carry derived redundancy rather than file
/// bytes: `file_offset` then names the start of the stripe group the parity
/// covers, and the payload must be computed by the writer (never loaded from
/// file content).  Only `map_write` of an erasure-coded layout emits these.
struct StripeSegment {
  size_t device_index = 0;
  uint64_t dev_offset = 0;
  uint64_t file_offset = 0;
  uint64_t length = 0;
  bool parity = false;

  bool operator==(const StripeSegment&) const = default;
};

/// Maps file byte ranges onto data servers for one aggregation scheme.
///
/// Implementations must be stateless and deterministic: the same (layout,
/// range) always produces the same segments, on any client.
class AggregationDriver {
 public:
  virtual ~AggregationDriver() = default;

  virtual AggregationType type() const noexcept = 0;

  /// Segments covering [offset, offset+length) for reads, in file order.
  virtual std::vector<StripeSegment> map_read(const FileLayout& layout,
                                              uint64_t offset,
                                              uint64_t length) const = 0;

  /// Segments to write for [offset, offset+length).  Differs from map_read
  /// only for redundant schemes (replication writes everywhere).
  virtual std::vector<StripeSegment> map_write(const FileLayout& layout,
                                               uint64_t offset,
                                               uint64_t length) const {
    return map_read(layout, offset, length);
  }
};

/// Dense round-robin striping (standard scheme 1): stripe s lives on device
/// s % N at device offset (s / N) * stripe_unit.
class RoundRobinDriver final : public AggregationDriver {
 public:
  AggregationType type() const noexcept override {
    return AggregationType::kRoundRobin;
  }
  std::vector<StripeSegment> map_read(const FileLayout& layout, uint64_t offset,
                                      uint64_t length) const override;
};

/// Cyclical pattern (standard scheme 2): round-robin whose first stripe
/// starts at device `params[0]` of the device list.
class CyclicDriver final : public AggregationDriver {
 public:
  AggregationType type() const noexcept override {
    return AggregationType::kCyclic;
  }
  std::vector<StripeSegment> map_read(const FileLayout& layout, uint64_t offset,
                                      uint64_t length) const override;
};

/// Registry of aggregation drivers available to a client or server.
/// Standard schemes are pre-registered; Direct-pNFS deployments add the
/// optional drivers from src/core.
class AggregationRegistry {
 public:
  /// Creates a registry holding the two standard NFSv4.1 schemes.
  static AggregationRegistry with_standard_drivers();

  void add(std::unique_ptr<AggregationDriver> driver);

  /// nullptr when the scheme is unknown to this registry.
  const AggregationDriver* find(AggregationType type) const;

 private:
  std::map<AggregationType, std::unique_ptr<AggregationDriver>> drivers_;
};

}  // namespace dpnfs::nfs
