// im2col / col2im: patch extraction for convolution-as-GEMM.
//
// For an image [C, H, W] and a K×K kernel with stride S and zero padding P,
// im2col produces a [C·K·K, OH·OW] matrix whose column j is the flattened
// receptive field of output pixel j.  This is exactly the "neuron input
// vector x ∈ Rⁿ with n = C·K²" in the paper's complexity analysis, so all
// quadratic conv layers share this path: the quadratic form is evaluated
// per column.
#pragma once

#include <string>

#include "core/tensor.h"

namespace qdnn::nn {

struct ConvGeometry {
  index_t in_channels = 0;
  index_t kernel = 0;   // square kernels only (matches the paper's CNNs)
  index_t stride = 1;
  index_t padding = 0;

  index_t patch_size() const { return in_channels * kernel * kernel; }
  index_t out_extent(index_t in_extent) const {
    return (in_extent + 2 * padding - kernel) / stride + 1;
  }
};

// Output shape [N, out_channels, OH, OW] of a conv layer with geometry
// `g` on an [N, C, H, W] input.  Throws, naming `layer`, when the input
// is not rank 4, has the wrong channel count, or is smaller than the
// kernel window after padding (in + 2·padding < kernel).
Shape conv_output_shape(const ConvGeometry& g, index_t out_channels,
                        const Shape& input_shape, const std::string& layer);

// image: pointer to one sample's [C, H, W] data; cols: [C·K·K, OH·OW],
// written densely.
void im2col(const float* image, index_t height, index_t width,
            const ConvGeometry& g, float* cols);

// The same patch matrix written in gemm's tile-panel B layout
// (linalg::gemm_panel_b): `panels` holds
// linalg::gemm_panel_floats(C·K·K, OH·OW) floats, the lanes past OH·OW
// in the last panel zeroed.  The forward conv paths feed it straight to
// one gemm; backward keeps the row-major im2col.
void im2col_panels(const float* image, index_t height, index_t width,
                   const ConvGeometry& g, float* panels);

// Scatter-add the columns back to an image gradient: the adjoint of
// im2col.  `image_grad` must be pre-zeroed by the caller (conv backward
// accumulates across batch samples).
void col2im(const float* cols, index_t height, index_t width,
            const ConvGeometry& g, float* image_grad);

}  // namespace qdnn::nn
