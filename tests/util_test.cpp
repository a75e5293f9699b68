#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dpnfs::util {
namespace {

using namespace dpnfs::util::literals;

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, EmptyPercentileIsZero) {
  // Pin the empty-case guard: no sample means 0, never an empty index.
  Summary s;
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
}

TEST(Summary, MeanMinMax) {
  Summary s;
  for (double v : {4.0, 1.0, 7.0, 2.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
  EXPECT_DOUBLE_EQ(s.sum(), 14.0);
}

TEST(Summary, PercentileNearestRank) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(Summary, PercentileOutOfRangeThrows) {
  Summary s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), std::invalid_argument);
  EXPECT_THROW(s.percentile(101), std::invalid_argument);
}

TEST(Summary, StddevOfConstantIsZero) {
  Summary s;
  for (int i = 0; i < 10; ++i) s.add(5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, PercentileInterleavedWithAdd) {
  Summary s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 3.0);
  s.add(9.0);  // must re-sort internally
  EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
}

// The histogram is obs::HistogramMetric, the metrics registry's instrument.
TEST(Histogram, BucketsAndOverflow) {
  obs::HistogramMetric h({10.0, 100.0});
  h.observe(5.0);
  h.observe(10.0);  // on a boundary: [10, 100)
  h.observe(50.0);
  h.observe(1000.0);  // overflow
  EXPECT_EQ(h.bucket_count(), 3u);
  EXPECT_DOUBLE_EQ(h.bucket_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_weight(2), 1.0);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, RejectsBadBoundaries) {
  EXPECT_THROW(obs::HistogramMetric({}), std::invalid_argument);
  EXPECT_THROW(obs::HistogramMetric({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::HistogramMetric({1.0, 1.0}), std::invalid_argument);
}

TEST(Bytes, Literals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
  EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
}

TEST(Bytes, Format) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(format_bytes(3 * kMiB), "3.0 MiB");
}

TEST(Bytes, ToMbps) {
  EXPECT_DOUBLE_EQ(to_mbps(100e6, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(to_mbps(100e6, 0.0), 0.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(42);
  Rng f1 = a.fork(1);
  Rng a2(42);
  Rng f2 = a2.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (f1.next() == f2.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, RangeIsInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = r.range(3, 5);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace dpnfs::util
