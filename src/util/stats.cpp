#include "util/stats.hpp"

#include "util/format.hpp"

#include <algorithm>
#include <cmath>

#include <stdexcept>

namespace dpnfs::util {

void Summary::add(double sample) {
  samples_.push_back(sample);
  sum_ += sample;
  sorted_ = false;
}

double Summary::mean() const noexcept {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double Summary::min() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::stddev() const noexcept {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Summary::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile out of range");
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  // Nearest-rank definition: smallest sample with cumulative frequency >= p.
  const auto n = samples_.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return samples_[rank - 1];
}

size_t PercentileDigest::bucket_of(double value) noexcept {
  if (!(value > 0.0) || !std::isfinite(value)) return 0;
  int exp = 0;
  const double frac = std::frexp(value, &exp);  // frac in [0.5, 1)
  if (exp < kMinExp) return 0;
  if (exp > kMaxExp) return kBucketCount - 1;
  int sub = static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets);
  if (sub < 0) sub = 0;
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return static_cast<size_t>(exp - kMinExp) * kSubBuckets +
         static_cast<size_t>(sub);
}

double PercentileDigest::bucket_mid(size_t bucket) noexcept {
  const int exp = static_cast<int>(bucket / kSubBuckets) + kMinExp;
  const int sub = static_cast<int>(bucket % kSubBuckets);
  const double frac =
      0.5 + (static_cast<double>(sub) + 0.5) / (2.0 * kSubBuckets);
  return std::ldexp(frac, exp);
}

void PercentileDigest::add(double value) noexcept {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucket_of(value)];
}

void PercentileDigest::merge(const PercentileDigest& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
}

double PercentileDigest::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return std::min(max_, std::max(min_, bucket_mid(i)));
    }
  }
  return max_;
}

std::string PercentileDigest::to_json() const {
  return sformat(
      "{\"count\": %llu, \"sum\": %s, \"mean\": %s, \"min\": %s, "
      "\"max\": %s, \"p50\": %s, \"p90\": %s, \"p99\": %s, \"p999\": %s}",
      static_cast<unsigned long long>(count_), json_number(sum_).c_str(),
      json_number(mean()).c_str(), json_number(min()).c_str(),
      json_number(max()).c_str(), json_number(p50()).c_str(),
      json_number(p90()).c_str(), json_number(p99()).c_str(),
      json_number(p999()).c_str());
}

}  // namespace dpnfs::util
