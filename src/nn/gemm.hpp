// Multi-threaded GEMM for the conv (im2col) and dense layers of the zoo.
//
// C[M x N] (+)= A[M x K] * B[K x N], all row-major. No transposed variants
// are needed: im2col lays patches out so conv is exactly this product.
//
// Kernel. One register-tiled micro-kernel: a 6 x 8 tile of C lives in 12
// SSE accumulators (GCC/Clang 128-bit vector types, baseline x86-64, no
// -march) across a 64-deep k-block. Per k it broadcasts the tile's six A
// values and multiplies them into one 8-float row of B. Each row tile of A
// is packed per k-block, and a k whose A column is all zero inside the tile
// is dropped: post-ReLU activations and im2col padding are full of them,
// and every dropped k saves a whole B row. Ragged edges use the same kernel
// (fewer rows; the last n % 8 columns read a zero-padded copy of B). The
// k-block is 64 deep because a block's B rows, 32 bytes each at a stride
// of N floats, must stay cached for the neighbouring 8-column strip: at
// 256 rows and N = 4096 they overflow their L2 sets, which halves the
// speed of Dense at batch 2.
//
// Exactness. Every C element sees the IEEE operations of the naive loop
//   c = 0 (or C's input when accumulating); for p = 0..K-1: c = c + a*b
// with a separate multiply and add, in ascending p, whatever the tiling,
// blocking or thread count. The one deviation is the dropped all-zero k:
// it would add 0*b = ±0. Without `accumulate`, c starts at +0, and an IEEE
// round-to-nearest sum is −0 only when both addends are −0, so c is never
// −0 and c + ±0 == c exactly. Hence skipping is exact whenever b is finite
// (0*inf would be NaN). Every library call passes weights as B, and
// eval/fault_sweep sanitizes non-finite weights to 0. With `accumulate`,
// skipping only differs on a −0 input element of C.
//
// Parallelism. M is split into fixed 48-row chunks over the global pool;
// when M is below one tile (Dense at batch 1-5), N is split into fixed
// 512-column chunks instead. Each C element belongs to one chunk and its
// value does not depend on the chunking, so results are bit-exact for any
// NOCW_THREADS.
#pragma once

#include <cstddef>

namespace nocw::nn {

/// C = A*B (beta = 0) or C += A*B (accumulate = true).
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate = false);

}  // namespace nocw::nn
