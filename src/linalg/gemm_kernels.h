// Internal kernel interface behind the backend seam (gemm_backend.h).
// gemm.cpp's entry points normalize operands (beta scaling, transpose
// packing, PackedWeights layout) into one accumulate-only call:
//
//   C(m,n) += alpha * A(m,k,lda) * B
//
// where B is either a plain row-major [k,n] block or a tile-panel pack
// (PackLayout::kTilePanel): ceil(n/16) panels, each k x 16 floats with
// the tail panel zero-padded, so a panel row is one contiguous
// 16-float B slice for the microkernel.  Both layouts collapse to a
// (base, stride) pair per column panel, which is how every kernel
// addresses B — the FMA sequence, and therefore the result bits, are
// identical between the two layouts within a backend.
#pragma once

#include "core/tensor.h"
#include "linalg/gemm.h"
#include "linalg/gemm_backend.h"

namespace qdnn::linalg::detail {

// Panel width of the tile-panel layout (gemm.h), shared by the AVX2
// (6x16) and NEON (4x16) microkernels.
inline constexpr index_t kPanelWidth = kGemmPanelWidth;

// B operand descriptor.  panel == false: row-major [k,n] with leading
// dimension ld.  panel == true: tile-panel layout (ld ignored).
struct BDesc {
  const float* data = nullptr;
  index_t ld = 0;
  bool panel = false;
};

// Reference blocked scalar kernel (the seed gemm_nn loop, minus the
// data-dependent av == 0 branch that blocked vectorization — the
// alpha == 0 short-circuit lives at the gemm() entry points).
void gemm_kernel_generic(index_t m, index_t n, index_t k, float alpha,
                         const float* a, index_t lda, const BDesc& b,
                         float* c, index_t ldc);

float dot_generic(const float* a, const float* b, index_t n);
void axpy_generic(index_t n, float alpha, const float* x, float* y);

#if defined(QDNN_SIMD_AVX2)
// 6x16 register-tiled AVX2/FMA microkernel: per k step, one broadcast
// per A row and two 8-lane FMAs per row against a streamed 16-column B
// panel; ragged m via 1..5-row tile variants, ragged n via masked
// loads/stores over the tail panel.
void gemm_kernel_avx2(index_t m, index_t n, index_t k, float alpha,
                      const float* a, index_t lda, const BDesc& b,
                      float* c, index_t ldc);
float dot_avx2(const float* a, const float* b, index_t n);
void axpy_avx2(index_t n, float alpha, const float* x, float* y);
#endif

#if defined(QDNN_SIMD_NEON)
// 4x16 register-tiled NEON kernel: per k step, one lane broadcast per A
// row and four 4-lane FMAs per row against the 16-column B panel.
void gemm_kernel_neon(index_t m, index_t n, index_t k, float alpha,
                      const float* a, index_t lda, const BDesc& b,
                      float* c, index_t ldc);
float dot_neon(const float* a, const float* b, index_t n);
void axpy_neon(index_t n, float alpha, const float* x, float* y);
#endif

// Dispatch used by gemm.cpp: runs `backend`'s kernel over C's rows,
// sharding [0,m) across the process-wide WorkerPool when the threaded
// path is enabled and 2*m*n*k clears the min-work threshold.  Expects
// the degenerate cases (m/n/k == 0, alpha == 0) to be filtered by the
// caller.
void run_gemm(GemmBackend backend, index_t m, index_t n, index_t k,
              float alpha, const float* a, index_t lda, const BDesc& b,
              float* c, index_t ldc);

// gemm.cpp-internal counter hooks: the allocating convenience overload,
// and every per-call transpose of B.
void note_heap_pack_call();
void note_weight_pack_call();

}  // namespace qdnn::linalg::detail
