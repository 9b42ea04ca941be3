#include "linalg/gemm.h"

#include <vector>

#include "linalg/gemm_backend.h"
#include "linalg/gemm_kernels.h"
#include "linalg/packed_weights.h"

namespace qdnn::linalg {

namespace {

// Shared prologue of every gemm entry point: scale/clear C by beta.
void scale_c(index_t m, index_t n, float beta, float* c, index_t ldc) {
  if (beta == 0.0f) {
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < n; ++j) c[i * ldc + j] = 0.0f;
  } else if (beta != 1.0f) {
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < n; ++j) c[i * ldc + j] *= beta;
  }
}

}  // namespace

index_t gemm_scratch_floats(bool trans_a, bool trans_b, index_t m,
                            index_t n, index_t k) {
  index_t floats = 0;
  if (trans_a) floats += m * k;
  if (trans_b) floats += k * n;
  return floats;
}

void gemm(bool trans_a, bool trans_b, index_t m, index_t n, index_t k,
          float alpha, const float* a, index_t lda, const float* b,
          index_t ldb, float beta, float* c, index_t ldc, float* scratch) {
  scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  // For transposed operands, materialize the effective row-major matrix
  // once into `scratch` and reuse the selected backend's row-major
  // kernel.  The packs are small relative to the O(mnk) work and keep a
  // single well-optimized inner kernel per backend.
  const float* aa = a;
  index_t alda = lda;
  if (trans_a) {
    float* pack = scratch;
    scratch += m * k;
    for (index_t p = 0; p < k; ++p)
      for (index_t i = 0; i < m; ++i) pack[i * k + p] = a[p * lda + i];
    aa = pack;
    alda = k;
  }
  const float* bb = b;
  index_t bldb = ldb;
  if (trans_b) {
    detail::note_weight_pack_call();
    float* pack = scratch;
    for (index_t j = 0; j < n; ++j)
      for (index_t p = 0; p < k; ++p) pack[p * n + j] = b[j * ldb + p];
    bb = pack;
    bldb = n;
  }
  detail::run_gemm(active_gemm_backend(), m, n, k, alpha, aa, alda,
                   detail::BDesc{bb, bldb, /*panel=*/false}, c, ldc);
}

void gemm(bool trans_a, bool trans_b, index_t m, index_t n, index_t k,
          float alpha, const float* a, index_t lda, const float* b,
          index_t ldb, float beta, float* c, index_t ldc) {
  detail::note_heap_pack_call();
  std::vector<float> scratch(static_cast<std::size_t>(
      (m == 0 || n == 0 || k == 0 || alpha == 0.0f)
          ? 0
          : gemm_scratch_floats(trans_a, trans_b, m, n, k)));
  gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
       scratch.data());
}

void gemm_panel_b(index_t m, index_t n, index_t k, float alpha,
                  const float* a, index_t lda, const float* b_panels,
                  float beta, float* c, index_t ldc) {
  scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;
  detail::run_gemm(active_gemm_backend(), m, n, k, alpha, a, lda,
                   detail::BDesc{b_panels, n, /*panel=*/true}, c, ldc);
}

void gemm_prepacked(bool trans_a, index_t m, index_t n, index_t k,
                    float alpha, const float* a, index_t lda,
                    const PackedWeights& b, float beta, float* c,
                    index_t ldc, float* scratch) {
  QDNN_CHECK(b.packed(), "gemm_prepacked: operand B is not packed");
  QDNN_CHECK(b.rows() == k && b.cols() == n,
             "gemm_prepacked: pack is [" << b.rows() << ", " << b.cols()
                                         << "], call wants [" << k << ", "
                                         << n << "]");
  scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;
  QDNN_CHECK(!trans_a || scratch != nullptr,
             "gemm_prepacked: trans_a needs caller-provided scratch "
             "(gemm_scratch_floats(true, false, m, n, k) floats)");

  const float* aa = a;
  index_t alda = lda;
  if (trans_a) {
    // Same per-call A pack as gemm(); only the constant B side moved to
    // freeze time.
    float* pack = scratch;
    for (index_t p = 0; p < k; ++p)
      for (index_t i = 0; i < m; ++i) pack[i * k + p] = a[p * lda + i];
    aa = pack;
    alda = k;
  }
  // Dispatch on the backend that laid the pack out, not the globally
  // active one: the pack bytes and the kernel that streams them are one
  // unit (a backend switched after freeze still consumes old packs
  // correctly; re-freeze migrates them).
  detail::run_gemm(
      b.backend(), m, n, k, alpha, aa, alda,
      detail::BDesc{b.data(), n,
                    /*panel=*/b.layout() == PackLayout::kTilePanel},
      c, ldc);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  QDNN_CHECK_EQ(a.rank(), 2, "matmul: a must be rank 2");
  QDNN_CHECK_EQ(b.rank(), 2, "matmul: b must be rank 2");
  QDNN_CHECK_EQ(a.dim(1), b.dim(0), "matmul: inner dims");
  Tensor c{Shape{a.dim(0), b.dim(1)}};
  gemm(false, false, a.dim(0), b.dim(1), a.dim(1), 1.0f, a.data(), a.dim(1),
       b.data(), b.dim(1), 0.0f, c.data(), c.dim(1));
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  QDNN_CHECK_EQ(a.rank(), 2, "matmul_tn: a must be rank 2");
  QDNN_CHECK_EQ(b.rank(), 2, "matmul_tn: b must be rank 2");
  QDNN_CHECK_EQ(a.dim(0), b.dim(0), "matmul_tn: inner dims");
  Tensor c{Shape{a.dim(1), b.dim(1)}};
  gemm(true, false, a.dim(1), b.dim(1), a.dim(0), 1.0f, a.data(), a.dim(1),
       b.data(), b.dim(1), 0.0f, c.data(), c.dim(1));
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  QDNN_CHECK_EQ(a.rank(), 2, "matmul_nt: a must be rank 2");
  QDNN_CHECK_EQ(b.rank(), 2, "matmul_nt: b must be rank 2");
  QDNN_CHECK_EQ(a.dim(1), b.dim(1), "matmul_nt: inner dims");
  Tensor c{Shape{a.dim(0), b.dim(0)}};
  gemm(false, true, a.dim(0), b.dim(0), a.dim(1), 1.0f, a.data(), a.dim(1),
       b.data(), b.dim(1), 0.0f, c.data(), c.dim(1));
  return c;
}

void gemv(bool trans_a, index_t m, index_t n, float alpha, const float* a,
          index_t lda, const float* x, float beta, float* y) {
  const index_t out_dim = trans_a ? n : m;
  if (beta == 0.0f) {
    for (index_t i = 0; i < out_dim; ++i) y[i] = 0.0f;
  } else if (beta != 1.0f) {
    for (index_t i = 0; i < out_dim; ++i) y[i] *= beta;
  }
  if (!trans_a) {
    for (index_t i = 0; i < m; ++i)
      y[i] += alpha * dot(a + i * lda, x, n);
  } else {
    for (index_t i = 0; i < m; ++i) {
      const float xv = alpha * x[i];
      if (xv == 0.0f) continue;
      axpy(n, xv, a + i * lda, y);
    }
  }
}

float dot(const float* a, const float* b, index_t n) {
  switch (active_gemm_backend()) {
#if defined(QDNN_SIMD_AVX2)
    case GemmBackend::kAvx2:
      return detail::dot_avx2(a, b, n);
#endif
#if defined(QDNN_SIMD_NEON)
    case GemmBackend::kNeon:
      return detail::dot_neon(a, b, n);
#endif
    default:
      return detail::dot_generic(a, b, n);
  }
}

void axpy(index_t n, float alpha, const float* x, float* y) {
  switch (active_gemm_backend()) {
#if defined(QDNN_SIMD_AVX2)
    case GemmBackend::kAvx2:
      detail::axpy_avx2(n, alpha, x, y);
      return;
#endif
#if defined(QDNN_SIMD_NEON)
    case GemmBackend::kNeon:
      detail::axpy_neon(n, alpha, x, y);
      return;
#endif
    default:
      detail::axpy_generic(n, alpha, x, y);
      return;
  }
}

}  // namespace qdnn::linalg
