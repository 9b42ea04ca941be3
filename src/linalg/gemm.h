// Dense matrix kernels.  These are the hot paths of the library: conv
// layers (via im2col), attention, and every quadratic-neuron variant reduce
// to calls here.  Each call dispatches to the active backend's kernel
// (gemm_backend.h: register-tiled AVX2/NEON microkernels, or the portable
// blocked scalar kernel); transposed operands are packed per call.  No
// BLAS dependency, deterministic results.
#pragma once

#include "core/tensor.h"

namespace qdnn::linalg {

// C(m,n) = alpha * op(A) * op(B) + beta * C
// op(A) is A (m,k) when !trans_a, or Aᵀ of A (k,m) when trans_a.
void gemm(bool trans_a, bool trans_b, index_t m, index_t n, index_t k,
          float alpha, const float* a, index_t lda, const float* b,
          index_t ldb, float beta, float* c, index_t ldc);

// Scratch floats gemm needs to pack transposed operands for these flags
// and sizes (0 when neither operand is transposed).
index_t gemm_scratch_floats(bool trans_a, bool trans_b, index_t m,
                            index_t n, index_t k);

// As gemm, but packing uses the caller-provided `scratch` buffer (at
// least gemm_scratch_floats(...) floats) instead of allocating — the
// allocation-free path used by Module::forward_into implementations,
// which draw scratch from a Workspace.  Bit-identical to gemm().
void gemm(bool trans_a, bool trans_b, index_t m, index_t n, index_t k,
          float alpha, const float* a, index_t lda, const float* b,
          index_t ldb, float beta, float* c, index_t ldc, float* scratch);

// Tile-panel B layout: the layout the SIMD microkernels stream B in.
// A [k, n] operand occupies ceil(n / kGemmPanelWidth) panels of
// k × kGemmPanelWidth floats; element (p, j) sits at
// b[(j / W)·k·W + p·W + j % W] with W = kGemmPanelWidth, and the lanes
// past n in the last panel are zero.  A producer that can write B in
// this layout directly (nn::im2col_panels) spares the kernels the
// strided walk over a wide row-major B.
inline constexpr index_t kGemmPanelWidth = 16;

// Floats a [k, n] operand occupies in the tile-panel layout.
inline index_t gemm_panel_floats(index_t k, index_t n) {
  return (n + kGemmPanelWidth - 1) / kGemmPanelWidth * k * kGemmPanelWidth;
}

// C(m,n) = alpha * A(m,k) * B + beta * C, where `b_panels` holds B in
// the tile-panel layout.  Runs on the active backend and never
// allocates.  Bit-identical to gemm(false, false, ...) on the row-major
// B it encodes: every kernel reduces each C element over p in the same
// ascending order whichever layout it reads B from.
void gemm_panel_b(index_t m, index_t n, index_t k, float alpha,
                  const float* a, index_t lda, const float* b_panels,
                  float beta, float* c, index_t ldc);

// Convenience wrappers on Tensor ([m,k] x [k,n] -> [m,n]).
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul_tn(const Tensor& a, const Tensor& b);  // aᵀ b, a is [k,m]
Tensor matmul_nt(const Tensor& a, const Tensor& b);  // a bᵀ, b is [n,k]

// y(m) = op(A) x + beta*y
void gemv(bool trans_a, index_t m, index_t n, float alpha, const float* a,
          index_t lda, const float* x, float beta, float* y);

// Dot product over n elements.
float dot(const float* a, const float* b, index_t n);

// y += alpha * x  (n elements).
void axpy(index_t n, float alpha, const float* x, float* y);

}  // namespace qdnn::linalg
