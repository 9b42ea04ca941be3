#include "linalg/packed_weights.h"

#include "linalg/gemm_kernels.h"

namespace qdnn::linalg {

void PackedWeights::pack(bool trans, index_t k, index_t n, const float* src,
                         index_t ld) {
  QDNN_CHECK(k >= 0 && n >= 0, "PackedWeights::pack: negative dims");
  QDNN_CHECK(ld >= (trans ? k : n),
             "PackedWeights::pack: leading dimension " << ld
                                                       << " too small");
  k_ = k;
  n_ = n;
  backend_ = active_gemm_backend();
  layout_ = backend_ == GemmBackend::kGeneric ? PackLayout::kRowMajor
                                              : PackLayout::kTilePanel;
  if (layout_ == PackLayout::kRowMajor) {
    data_.resize(static_cast<std::size_t>(k * n));
    if (trans) {
      // Same element order as gemm()'s per-call trans_b pack, so
      // prepacked results are bit-identical to the packing path they
      // replace.
      for (index_t j = 0; j < n; ++j)
        for (index_t p = 0; p < k; ++p)
          data_[static_cast<std::size_t>(p * n + j)] = src[j * ld + p];
    } else {
      for (index_t p = 0; p < k; ++p)
        for (index_t j = 0; j < n; ++j)
          data_[static_cast<std::size_t>(p * n + j)] = src[p * ld + j];
    }
  } else {
    // Tile-panel: panels of kPanelWidth columns, each k rows deep, the
    // tail panel zero-padded — one contiguous 16-float slice per
    // microkernel k-step.  Padding lanes mirror the masked (zero) B
    // lanes of the unpacked SIMD path, so both paths run the identical
    // FMA stream.
    const index_t w = detail::kPanelWidth;
    const index_t panels = (n + w - 1) / w;
    data_.assign(static_cast<std::size_t>(gemm_panel_floats(k, n)), 0.0f);
    for (index_t jp = 0; jp < panels; ++jp) {
      float* panel = data_.data() + jp * k * w;
      const index_t nr = std::min(w, n - jp * w);
      for (index_t p = 0; p < k; ++p)
        for (index_t j = 0; j < nr; ++j)
          panel[p * w + j] = trans ? src[(jp * w + j) * ld + p]
                                   : src[p * ld + jp * w + j];
    }
  }
  packed_ = true;
}

void PackedWeights::clear() {
  k_ = 0;
  n_ = 0;
  packed_ = false;
  layout_ = PackLayout::kRowMajor;
  backend_ = GemmBackend::kGeneric;
  data_.clear();
  data_.shrink_to_fit();
}

}  // namespace qdnn::linalg
