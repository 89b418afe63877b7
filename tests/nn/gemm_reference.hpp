// Test-local GEMM reference shared by the GEMM and determinism tests: the
// naive triple loop in float, ascending k, one multiply and one add per
// step, starting from C's input when accumulating and from +0 otherwise.
// nn::gemm promises these exact bits (see src/nn/gemm.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace nocw::nn::gemm_ref {

inline void reference_gemm(const float* a, const float* b, float* c,
                           std::size_t m, std::size_t k, std::size_t n,
                           bool accumulate = false) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * n + j] : 0.0F;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}

inline std::uint32_t float_bits(float v) {
  std::uint32_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

}  // namespace nocw::nn::gemm_ref
