// The parallel kernels promise bit-identical results for any thread count.
// These tests pin that contract: reference outputs computed at 1 thread must
// match exactly (EXPECT_EQ on floats, not EXPECT_NEAR) at 2 and 8 threads.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gemm_reference.hpp"
#include "nn/gemm.hpp"
#include "nn/models.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nocw::nn {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                              double zero_fraction = 0.0) {
  Xoshiro256pp rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.uniform() < zero_fraction ? 0.0F
                                      : static_cast<float>(rng.normal());
  }
  return v;
}

class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { set_global_threads(1); }
};

TEST_F(ParallelDeterminism, GemmMatchesSerialAcrossThreadCounts) {
  // m spans several row chunks so the parallel path really splits the work;
  // 30% zeros exercises the dropping of all-zero tile columns.
  const std::size_t m = 150, k = 64, n = 48;
  const auto a = random_vec(m * k, 1, 0.3);
  const auto b = random_vec(k * n, 2);

  set_global_threads(1);
  std::vector<float> ref(m * n);
  gemm(a.data(), b.data(), ref.data(), m, k, n);

  for (unsigned threads : {2U, 8U}) {
    set_global_threads(threads);
    std::vector<float> out(m * n, -1.0F);
    gemm(a.data(), b.data(), out.data(), m, k, n);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(out[i], ref[i]) << "threads " << threads << " index " << i;
    }
  }
}

TEST_F(ParallelDeterminism, GemmAccumulateMatchesSerial) {
  const std::size_t m = 70, k = 33, n = 17;
  const auto a = random_vec(m * k, 3);
  const auto b = random_vec(k * n, 4);
  const auto base = random_vec(m * n, 5);

  set_global_threads(1);
  std::vector<float> ref = base;
  gemm(a.data(), b.data(), ref.data(), m, k, n, /*accumulate=*/true);

  set_global_threads(8);
  std::vector<float> out = base;
  gemm(a.data(), b.data(), out.data(), m, k, n, /*accumulate=*/true);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(out[i], ref[i]) << "index " << i;
  }
}

using gemm_ref::float_bits;
using gemm_ref::reference_gemm;

TEST_F(ParallelDeterminism, GemmTileEdgesMatchAscendingKReference) {
  // Every ragged edge of the 6 x 8 register tile and of the k-block, with
  // 60% exact zeros in A (whole tile columns get dropped) and both C modes.
  std::vector<std::array<std::size_t, 3>> shapes;  // {m, k, n}
  for (std::size_t m : {1, 2, 5, 6, 7, 13, 65}) {
    for (std::size_t n : {1, 3, 4, 7, 8, 9, 17, 96}) {
      for (std::size_t k : {1, 25, 256, 257}) shapes.push_back({m, k, n});
    }
  }
  // M below one tile and N above one column chunk: the column split.
  shapes.push_back({1, 300, 1100});
  shapes.push_back({5, 257, 1031});
  std::uint64_t seed = 100;
  for (const auto& [m, k, n] : shapes) {
    const auto a = random_vec(m * k, ++seed, 0.6);
    const auto b = random_vec(k * n, ++seed);
    const auto base = random_vec(m * n, ++seed);
    for (bool accumulate : {false, true}) {
      std::vector<float> ref = base;
      reference_gemm(a.data(), b.data(), ref.data(), m, k, n, accumulate);
      for (unsigned threads : {1U, 2U, 8U}) {
        set_global_threads(threads);
        std::vector<float> out = base;
        gemm(a.data(), b.data(), out.data(), m, k, n, accumulate);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(float_bits(out[i]), float_bits(ref[i]))
              << m << "x" << k << "x" << n << " accumulate " << accumulate
              << " threads " << threads << " index " << i;
        }
      }
    }
  }
}

/// FNV-1a over the little-endian bytes of each float.
std::uint64_t fnv1a(const Tensor& t) {
  std::uint64_t h = 14695981039346656037ULL;
  for (float v : t.data()) {
    const std::uint32_t u = float_bits(v);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (u >> (8 * byte)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST_F(ParallelDeterminism, GraphForwardMatchesGoldenHashes) {
  // Pins the forward outputs of three zoo models (default weight seeds, two
  // uniform [0, 1) probes from seed 2020) to hashes recorded before the
  // register-tiled GEMM replaced the scalar kernel: any change in nn float
  // summation order shows up here.
  struct Golden {
    Model (*make)(std::uint64_t);
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {make_lenet5, 1, 0x60d5f5b9736c9ceaULL},
      {make_alexnet, 2, 0xede4d7a1e45e2969ULL},
      {make_mobilenet, 4, 0xef4e89a3541c343bULL},
  };
  for (const Golden& g : goldens) {
    const Model m = g.make(g.seed);
    Tensor input({2, m.input_size, m.input_size, m.input_channels});
    Xoshiro256pp rng(2020);
    for (auto& v : input.data()) v = static_cast<float>(rng.uniform());
    for (unsigned threads : {1U, 8U}) {
      set_global_threads(threads);
      EXPECT_EQ(fnv1a(m.graph.forward(input)), g.hash)
          << m.name << " threads " << threads;
    }
  }
}

TEST_F(ParallelDeterminism, GraphForwardBitIdenticalAcrossThreadCounts) {
  // Batch >= 8 so the batched path splits across lanes at 8 threads; LeNet-5
  // covers conv (im2col), pooling, dense (gemm) and softmax layers.
  Model m = make_lenet5();
  Tensor input({8, m.input_size, m.input_size, m.input_channels});
  {
    Xoshiro256pp rng(10);
    for (auto& v : input.data()) v = static_cast<float>(rng.normal());
  }

  set_global_threads(1);
  const Tensor ref = m.graph.forward(input);

  for (unsigned threads : {2U, 8U}) {
    set_global_threads(threads);
    const Tensor out = m.graph.forward(input);
    ASSERT_EQ(out.shape(), ref.shape()) << "threads " << threads;
    for (std::size_t i = 0; i < ref.data().size(); ++i) {
      ASSERT_EQ(out.data()[i], ref.data()[i])
          << "threads " << threads << " index " << i;
    }
  }
}

TEST_F(ParallelDeterminism, CloneIsDeepAndForwardEquivalent) {
  Model m = make_lenet5();
  Graph copy = m.graph.clone();

  Tensor input({2, m.input_size, m.input_size, m.input_channels});
  {
    Xoshiro256pp rng(11);
    for (auto& v : input.data()) v = static_cast<float>(rng.normal());
  }
  const Tensor a = m.graph.forward(input);
  const Tensor b = copy.forward(input);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "index " << i;
  }

  // Mutating the clone must not leak into the original (deep copy).
  const int idx = copy.find("dense_1");
  auto kernel = copy.layer(idx).kernel();
  const float before = m.graph.layer(idx).kernel()[0];
  kernel[0] += 1.0F;
  EXPECT_EQ(m.graph.layer(idx).kernel()[0], before);
}

}  // namespace
}  // namespace nocw::nn
