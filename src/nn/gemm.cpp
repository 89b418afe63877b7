#include "nn/gemm.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "nn/simd.hpp"
#include "util/thread_pool.hpp"

namespace nocw::nn {

namespace {

using simd::load4;
using simd::store4;
using simd::v4f;

constexpr std::size_t kMr = 6;    ///< rows of a C tile
constexpr std::size_t kNr = 8;    ///< columns of a C tile (two v4f)
constexpr std::size_t kKb = 64;   ///< k-block depth (see gemm.hpp)
/// Rows per packed A group and per parallel chunk (a multiple of kMr).
constexpr std::size_t kMb = 48;
/// Columns per parallel chunk when M is below one tile (a multiple of kNr).
constexpr std::size_t kNc = 512;

/// One row tile of A for one k-block, packed for the micro-kernel: the
/// `count` ascending k indices whose A column is not all zero inside the
/// tile, and for each of them the tile's R values of that column.
struct PackedTile {
  const float* a = nullptr;         ///< count x R, row q = column idx[q]
  const std::size_t* idx = nullptr;
  std::size_t count = 0;
};

/// C[R x 8] (+)= A-tile * B rows idx[0..count), in ascending k.
///
/// Every C element sees exactly the IEEE operations of the naive loop
/// `c = c + a[i][p] * b[p][j]` for ascending p (a separate mul and add),
/// minus the p whose a-values are all zero: those add ±0 to a C element
/// that is never −0, an exact no-op (see gemm.hpp).
template <std::size_t R>
void micro_kernel(const PackedTile& t, const float* b, std::size_t ldb,
                  float* c, std::size_t ldc, bool load_c) {
  v4f acc[R][2] = {};
  if (load_c) {
#pragma GCC unroll 6
    for (std::size_t r = 0; r < R; ++r) {
      acc[r][0] = load4(c + r * ldc);
      acc[r][1] = load4(c + r * ldc + 4);
    }
  }
  const float* ap = t.a;
  for (std::size_t q = 0; q < t.count; ++q, ap += R) {
    const float* bp = b + t.idx[q] * ldb;
    const v4f b0 = load4(bp);
    const v4f b1 = load4(bp + 4);
#pragma GCC unroll 6
    for (std::size_t r = 0; r < R; ++r) {
      acc[r][0] = acc[r][0] + ap[r] * b0;
      acc[r][1] = acc[r][1] + ap[r] * b1;
    }
  }
#pragma GCC unroll 6
  for (std::size_t r = 0; r < R; ++r) {
    store4(c + r * ldc, acc[r][0]);
    store4(c + r * ldc + 4, acc[r][1]);
  }
}

void run_tile(std::size_t rows, const PackedTile& t, const float* b,
              std::size_t ldb, float* c, std::size_t ldc, bool load_c) {
  switch (rows) {
    case 1: micro_kernel<1>(t, b, ldb, c, ldc, load_c); break;
    case 2: micro_kernel<2>(t, b, ldb, c, ldc, load_c); break;
    case 3: micro_kernel<3>(t, b, ldb, c, ldc, load_c); break;
    case 4: micro_kernel<4>(t, b, ldb, c, ldc, load_c); break;
    case 5: micro_kernel<5>(t, b, ldb, c, ldc, load_c); break;
    default: micro_kernel<kMr>(t, b, ldb, c, ldc, load_c); break;
  }
}

/// Pack A[i0 .. i0+rows) x [p0, p1) into `dst` and `idx`, dropping every k
/// whose column is all zero inside the tile (post-ReLU inputs and im2col
/// padding are full of them, and a dropped k saves a whole B row).
PackedTile pack_tile(const float* a, std::size_t lda, std::size_t i0,
                     std::size_t rows, std::size_t p0, std::size_t p1,
                     float* dst, std::size_t* idx) {
  std::size_t count = 0;
  float* d = dst;
  for (std::size_t p = p0; p < p1; ++p) {
    bool any = false;
    for (std::size_t r = 0; r < rows; ++r) {
      d[r] = a[(i0 + r) * lda + p];
      any = any || d[r] != 0.0F;
    }
    if (!any) continue;
    idx[count++] = p;
    d += rows;
  }
  return PackedTile{dst, idx, count};
}

/// C[i0, i1) x [j0, j1) of the product, in groups of kMb rows whose packed
/// A tiles stay in L1 while every 8-column strip of B streams past them.
/// Column ranges start on a kNr boundary; a ragged last strip (n % kNr
/// columns) reads B from `btail`, the zero-padded k x kNr copy of B's last
/// columns.
void gemm_block(const float* a, const float* b, const float* btail, float* c,
                std::size_t i0, std::size_t i1, std::size_t j0,
                std::size_t j1, std::size_t k, std::size_t n,
                bool accumulate) {
  constexpr std::size_t kTiles = kMb / kMr;
  std::array<float, kMb * kKb> apack{};
  std::array<std::size_t, kTiles * kKb> idx{};
  std::array<PackedTile, kTiles> packed{};
  std::array<float, kMr * kNr> ctmp{};
  for (std::size_t ib = i0; ib < i1; ib += kMb) {
    const std::size_t ie = std::min(ib + kMb, i1);
    const std::size_t tiles = (ie - ib + kMr - 1) / kMr;
    for (std::size_t p0 = 0; p0 < k; p0 += kKb) {
      const std::size_t p1 = std::min(p0 + kKb, k);
      const bool load_c = accumulate || p0 > 0;
      for (std::size_t t = 0; t < tiles; ++t) {
        const std::size_t r0 = ib + t * kMr;
        packed[t] = pack_tile(a, k, r0, std::min(kMr, ie - r0), p0, p1,
                              apack.data() + t * kKb * kMr,
                              idx.data() + t * kKb);
      }
      for (std::size_t j = j0; j < j1; j += kNr) {
        const std::size_t w = std::min(kNr, j1 - j);
        for (std::size_t t = 0; t < tiles; ++t) {
          const std::size_t r0 = ib + t * kMr;
          const std::size_t rows = std::min(kMr, ie - r0);
          float* ct = c + r0 * n + j;
          if (w == kNr) {
            run_tile(rows, packed[t], b + j, n, ct, n, load_c);
            continue;
          }
          // Ragged strip: stage the C tile in a full-width buffer.
          if (load_c) {
            for (std::size_t r = 0; r < rows; ++r) {
              std::memcpy(ctmp.data() + r * kNr, ct + r * n,
                          w * sizeof(float));
            }
          }
          run_tile(rows, packed[t], btail, kNr, ctmp.data(), kNr, load_c);
          for (std::size_t r = 0; r < rows; ++r) {
            std::memcpy(ct + r * n, ctmp.data() + r * kNr, w * sizeof(float));
          }
        }
      }
    }
  }
}

}  // namespace

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    return;
  }
  std::vector<float> btail;
  if (const std::size_t w = n % kNr; w != 0) {
    btail.assign(k * kNr, 0.0F);
    for (std::size_t p = 0; p < k; ++p) {
      std::memcpy(btail.data() + p * kNr, b + p * n + (n - w),
                  w * sizeof(float));
    }
  }
  if (m < kMr) {
    // One row tile (Dense at small batch): split the columns instead.
    global_pool().parallel_for(
        0, n, kNc, [&](std::size_t j0, std::size_t j1, unsigned /*lane*/) {
          gemm_block(a, b, btail.data(), c, 0, m, j0, j1, k, n, accumulate);
        });
    return;
  }
  global_pool().parallel_for(
      0, m, kMb, [&](std::size_t i0, std::size_t i1, unsigned /*lane*/) {
        gemm_block(a, b, btail.data(), c, i0, i1, 0, n, k, n, accumulate);
      });
}

}  // namespace nocw::nn
