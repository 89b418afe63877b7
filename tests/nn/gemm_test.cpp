#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gemm_reference.hpp"
#include "util/rng.hpp"

namespace nocw::nn {
namespace {

using gemm_ref::float_bits;
using gemm_ref::reference_gemm;

TEST(Gemm, Identity) {
  const std::vector<float> eye{1, 0, 0, 1};
  const std::vector<float> x{3, 4, 5, 6};
  std::vector<float> y(4);
  gemm(eye.data(), x.data(), y.data(), 2, 2, 2);
  EXPECT_EQ(y, x);
}

TEST(Gemm, KnownSmallProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c(4);
  gemm(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_EQ(c, (std::vector<float>{19, 22, 43, 50}));
}

TEST(Gemm, AccumulateAddsToExisting) {
  const std::vector<float> a{1, 0, 0, 1};
  const std::vector<float> b{1, 1, 1, 1};
  std::vector<float> c{10, 10, 10, 10};
  gemm(a.data(), b.data(), c.data(), 2, 2, 2, /*accumulate=*/true);
  EXPECT_EQ(c, (std::vector<float>{11, 11, 11, 11}));
}

TEST(Gemm, NonAccumulateOverwrites) {
  const std::vector<float> a{1, 0, 0, 1};
  const std::vector<float> b{1, 1, 1, 1};
  std::vector<float> c{99, 99, 99, 99};
  gemm(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_EQ(c, (std::vector<float>{1, 1, 1, 1}));
}

TEST(Gemm, MatchesNaiveAcrossShapes) {
  Xoshiro256pp rng(201);
  const std::size_t shapes[][3] = {
      {1, 1, 1},   {1, 7, 5},    {5, 1, 3},   {3, 3, 3},
      {17, 33, 9}, {64, 256, 8}, {65, 257, 31}, {128, 300, 70}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n);
    for (auto& v : a) v = static_cast<float>(rng.normal());
    for (auto& v : b) v = static_cast<float>(rng.normal());
    gemm(a.data(), b.data(), c.data(), m, k, n);
    reference_gemm(a.data(), b.data(), ref.data(), m, k, n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(float_bits(c[i]), float_bits(ref[i]))
          << "shape " << m << "x" << k << "x" << n << " at " << i;
    }
  }
}

TEST(Gemm, ZeroRowsInAAreSkippedCorrectly) {
  // The kernel drops k whose A column is all zero inside a row tile
  // (im2col padding); the result must still be bit-exact.
  Xoshiro256pp rng(202);
  const std::size_t m = 9, k = 40, n = 13;
  std::vector<float> a(m * k, 0.0F), b(k * n), c(m * n), ref(m * n);
  for (std::size_t i = 0; i < a.size(); i += 3) {
    a[i] = static_cast<float>(rng.normal());
  }
  for (auto& v : b) v = static_cast<float>(rng.normal());
  gemm(a.data(), b.data(), c.data(), m, k, n);
  reference_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_EQ(float_bits(c[i]), float_bits(ref[i])) << "at " << i;
  }
}

TEST(Gemm, AllZeroColumnsGivePositiveZero) {
  // Dropping an all-zero k is exact because C starts at +0 and never turns
  // into -0: the naive loop gives +0 + (-0) = +0 for a -0 product too.
  const std::size_t m = 7, k = 3, n = 9;
  std::vector<float> a(m * k, -0.0F), b(k * n, -2.0F), c(m * n, 5.0F);
  gemm(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_EQ(float_bits(c[i]), float_bits(0.0F)) << "at " << i;
  }
}

TEST(Gemm, EmptyInnerDimensionZeroesOrKeepsC) {
  std::vector<float> c{1, 2, 3, 4, 5, 6};
  gemm(nullptr, nullptr, c.data(), 2, 0, 3, /*accumulate=*/true);
  EXPECT_EQ(c, (std::vector<float>{1, 2, 3, 4, 5, 6}));
  gemm(nullptr, nullptr, c.data(), 2, 0, 3);
  EXPECT_EQ(c, (std::vector<float>(6, 0.0F)));
}

}  // namespace
}  // namespace nocw::nn
