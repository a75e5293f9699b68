// Streaming statistics helpers used by the workload runners and benches.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dpnfs::util {

/// Accumulates a stream of samples and answers summary queries.
///
/// Keeps every sample (workload runs produce at most a few hundred thousand
/// latency samples), so exact percentiles are available.
class Summary {
 public:
  void add(double sample);

  size_t count() const noexcept { return samples_.size(); }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double stddev() const noexcept;
  /// Exact percentile by nearest-rank; `p` in [0, 100].
  double percentile(double p) const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

/// Fixed-memory streaming percentile digest (HDR-histogram style).
///
/// Buckets are log-spaced: one major bucket per power of two, split into
/// `kSubBuckets` linear sub-buckets, so every bucket's width is at most
/// `relative_error()` of its value.  Memory is a fixed ~12 KB regardless of
/// sample count, `add` is O(1) with no allocation, and two digests over
/// disjoint streams `merge` into the digest of the combined stream —
/// unlike `Summary`, which keeps every sample and is unbounded on hot
/// paths.  Quantiles use the same nearest-rank definition as `Summary`, so
/// the two agree within one bucket width on any distribution.
class PercentileDigest {
 public:
  void add(double value) noexcept;
  void merge(const PercentileDigest& other) noexcept;

  uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Nearest-rank quantile; `q` in [0, 1].  The answer is the midpoint of
  /// the bucket holding the rank, clamped into [min(), max()], so it is
  /// within `relative_error()` of the exact sample.
  double quantile(double q) const noexcept;
  double p50() const noexcept { return quantile(0.50); }
  double p90() const noexcept { return quantile(0.90); }
  double p99() const noexcept { return quantile(0.99); }
  double p999() const noexcept { return quantile(0.999); }

  /// Worst-case relative half-width of a bucket: quantiles are within this
  /// fraction of the exact nearest-rank sample.
  static constexpr double relative_error() {
    return 1.0 / static_cast<double>(kSubBuckets);
  }

  /// {"count": N, "sum": x, "mean": x, "min": x, "max": x,
  ///  "p50": x, "p90": x, "p99": x, "p999": x}
  std::string to_json() const;

 private:
  // 2^kSubBits linear sub-buckets per power of two: 6.25% bucket width.
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr int kMinExp = -30;  // ~1e-9: below this, bucket 0
  static constexpr int kMaxExp = 64;   // ~1.8e19: above this, last bucket
  static constexpr size_t kBucketCount =
      static_cast<size_t>(kMaxExp - kMinExp + 1) * kSubBuckets;

  static size_t bucket_of(double value) noexcept;
  static double bucket_mid(size_t bucket) noexcept;

  std::array<uint64_t, kBucketCount> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dpnfs::util
