// Generic (portable scalar) backend: the seed blocked ikj kernel,
// extracted behind the backend seam.  One deliberate change from the
// seed: the `av == 0.0f` early-continue is gone — it was a
// data-dependent branch in the hottest loop that blocked vectorization
// of the j loop; the alpha == 0 short-circuit lives at the gemm()
// entry points instead.
#include "linalg/gemm_kernels.h"

namespace qdnn::linalg::detail {

namespace {

// Blocked C += alpha * A * B over a row-major B with leading dim ldb.
// ikj ordering keeps B rows streaming and lets the compiler vectorize
// the inner j loop.
void generic_row_major(index_t m, index_t n, index_t k, float alpha,
                       const float* a, index_t lda, const float* b,
                       index_t ldb, float* c, index_t ldc) {
  constexpr index_t kBlockI = 64;
  constexpr index_t kBlockK = 256;
  for (index_t i0 = 0; i0 < m; i0 += kBlockI) {
    const index_t i1 = std::min(i0 + kBlockI, m);
    for (index_t p0 = 0; p0 < k; p0 += kBlockK) {
      const index_t p1 = std::min(p0 + kBlockK, k);
      for (index_t i = i0; i < i1; ++i) {
        float* ci = c + i * ldc;
        const float* ai = a + i * lda;
        for (index_t p = p0; p < p1; ++p) {
          const float av = alpha * ai[p];
          const float* bp = b + p * ldb;
          for (index_t j = 0; j < n; ++j) ci[j] += av * bp[j];
        }
      }
    }
  }
}

// Tile-panel B: same per-element reduction order (p ascends for every
// (i, j)), addressing panels of kPanelWidth contiguous columns.  Reached
// by gemm_panel_b under the generic backend (the conv layers' panel
// im2col) and by a SIMD tile-panel pack consumed through this kernel.
void generic_panel(index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, float* c,
                   index_t ldc) {
  for (index_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const index_t nr = std::min(kPanelWidth, n - j0);
    const float* panel = b + (j0 / kPanelWidth) * k * kPanelWidth;
    for (index_t i = 0; i < m; ++i) {
      float* ci = c + i * ldc + j0;
      const float* ai = a + i * lda;
      for (index_t p = 0; p < k; ++p) {
        const float av = alpha * ai[p];
        const float* bp = panel + p * kPanelWidth;
        for (index_t j = 0; j < nr; ++j) ci[j] += av * bp[j];
      }
    }
  }
}

}  // namespace

void gemm_kernel_generic(index_t m, index_t n, index_t k, float alpha,
                         const float* a, index_t lda, const BDesc& b,
                         float* c, index_t ldc) {
  if (b.panel)
    generic_panel(m, n, k, alpha, a, lda, b.data, c, ldc);
  else
    generic_row_major(m, n, k, alpha, a, lda, b.data, b.ld, c, ldc);
}

float dot_generic(const float* a, const float* b, index_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

void axpy_generic(index_t n, float alpha, const float* x, float* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace qdnn::linalg::detail
