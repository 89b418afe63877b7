#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "util/rng.hpp"

namespace nocw {
namespace {

TEST(RunningStats, EmptyIsZeroCount) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.sum(), 3.5);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic sequence is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSinglePass) {
  Xoshiro256pp rng(1);
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(2.0, 3.0);
    whole.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 1.5);
}

TEST(Percentile, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(percentile_sorted({}, 50.0)));
  EXPECT_TRUE(std::isnan(percentile({}, 99.0)));
}

TEST(Percentile, SingleSampleForEveryP) {
  const std::vector<double> one{42.0};
  for (const double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(one, p), 42.0) << "p=" << p;
  }
}

TEST(Percentile, AllEqualSamples) {
  const std::vector<double> same(17, 3.5);
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(same, p), 3.5) << "p=" << p;
  }
}

TEST(Percentile, LinearInterpolationMatchesNumpy) {
  // numpy.percentile([1,2,3,4], [25,50,75]) -> 1.75, 2.5, 3.25
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 75.0), 3.25);
}

TEST(Percentile, ClampsPToValidRange) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 250.0), 3.0);
}

TEST(Percentile, UnsortedConvenienceFormSorts) {
  const std::vector<double> v{9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 9.0);
}

TEST(Mse, IdenticalIsZero) {
  const std::vector<float> a{1.0F, -2.0F, 3.0F};
  EXPECT_DOUBLE_EQ(mean_squared_error(a, a), 0.0);
}

TEST(Mse, KnownDifference) {
  const std::vector<float> a{0.0F, 0.0F};
  const std::vector<float> b{1.0F, -3.0F};
  EXPECT_DOUBLE_EQ(mean_squared_error(a, b), (1.0 + 9.0) / 2.0);
}

TEST(Mse, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean_squared_error({}, {}), 0.0);
}

TEST(ValueRange, Basics) {
  const std::vector<float> v{-1.5F, 0.0F, 2.5F};
  EXPECT_DOUBLE_EQ(value_range(v), 4.0);
  EXPECT_DOUBLE_EQ(value_range({}), 0.0);
  const std::vector<float> one{7.0F};
  EXPECT_DOUBLE_EQ(value_range(one), 0.0);
}

TEST(Entropy, UniformBytesIsEight) {
  std::vector<std::uint64_t> hist(256, 5);
  EXPECT_NEAR(shannon_entropy_hist(hist), 8.0, 1e-12);
}

TEST(Entropy, SingleSymbolIsZero) {
  std::vector<std::uint64_t> hist(256, 0);
  hist[42] = 1000;
  EXPECT_DOUBLE_EQ(shannon_entropy_hist(hist), 0.0);
}

TEST(Entropy, TwoEqualSymbolsIsOneBit) {
  std::vector<std::uint64_t> hist(256, 0);
  hist[0] = 10;
  hist[255] = 10;
  EXPECT_NEAR(shannon_entropy_hist(hist), 1.0, 1e-12);
}

TEST(Entropy, EmptyHistogramIsZero) {
  std::vector<std::uint64_t> hist(256, 0);
  EXPECT_DOUBLE_EQ(shannon_entropy_hist(hist), 0.0);
}

TEST(ByteHistogram, CountsAllBytesOfFloats) {
  const std::vector<float> v{0.0F, 0.0F};
  const auto hist = byte_histogram(v);
  std::uint64_t total = 0;
  for (auto c : hist) total += c;
  EXPECT_EQ(total, v.size() * sizeof(float));
  EXPECT_EQ(hist[0], total);  // 0.0f is all-zero bytes
}

TEST(Entropy, RandomFloatsNearlyMaximal) {
  Xoshiro256pp rng(9);
  std::vector<float> v(200000);
  for (auto& x : v) {
    // Random bit patterns (not random reals - exponent bytes of uniform
    // reals are highly skewed).
    const auto bits = static_cast<std::uint32_t>(rng());
    std::memcpy(&x, &bits, sizeof(x));
  }
  const auto hist = byte_histogram(v);
  EXPECT_GT(shannon_entropy_hist(hist), 7.99);
}

}  // namespace
}  // namespace nocw
