// Four-float SIMD helpers for the nn forward path.
//
// `v4f` is a GCC/Clang 128-bit vector type: baseline x86-64 SSE, no -march,
// no runtime dispatch. GCC's -O2 cost model leaves loops such as
// `dst[i] += src[i]` scalar because it will not add a runtime alias check,
// so the hot element-wise loops use these helpers instead. Each computes,
// per element, exactly the IEEE operations of the scalar loop named in its
// comment (a separate multiply and add; no FMA), so results are
// bit-identical to that loop.
#pragma once

#include <cstddef>
#include <cstring>

namespace nocw::nn::simd {

using v4f = float __attribute__((vector_size(16)));

inline v4f load4(const float* p) {
  v4f v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

/// dst[i] = dst[i] + src[i] for i < n.
inline void add_into(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) store4(dst + i, load4(dst + i) + load4(src + i));
  for (; i < n; ++i) dst[i] += src[i];
}

/// dst[i] = dst[i] + x[i] * y[i] for i < n.
inline void mul_add_into(float* dst, const float* x, const float* y,
                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store4(dst + i, load4(dst + i) + load4(x + i) * load4(y + i));
  }
  for (; i < n; ++i) dst[i] += x[i] * y[i];
}

/// dst[i] = dst[i] * scale[i] + shift[i] for i < n.
inline void scale_shift(float* dst, const float* scale, const float* shift,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store4(dst + i, load4(dst + i) * load4(scale + i) + load4(shift + i));
  }
  for (; i < n; ++i) dst[i] = dst[i] * scale[i] + shift[i];
}

}  // namespace nocw::nn::simd
