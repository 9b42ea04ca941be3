#include "nn/conv2d.h"

#include <vector>

#include "linalg/gemm.h"

namespace qdnn::nn {

namespace {

// Per-sample panel im2col + one gemm + bias, shared by forward() and
// forward_into() — one definition so training and serving cannot drift.
// `panels` is caller-provided scratch of
// linalg::gemm_panel_floats(patch_size(), n_cols) floats.
void conv_sample_forward(const float* image, index_t h, index_t w,
                         const ConvGeometry& g, const float* weight,
                         const float* bias, index_t out_channels,
                         index_t n_cols, float* panels, float* out_s) {
  const index_t patch = g.patch_size();
  im2col_panels(image, h, w, g, panels);
  linalg::gemm_panel_b(out_channels, n_cols, patch, 1.0f, weight, patch,
                       panels, 0.0f, out_s, n_cols);
  if (bias) {
    for (index_t oc = 0; oc < out_channels; ++oc) {
      const float b = bias[oc];
      float* row = out_s + oc * n_cols;
      for (index_t j = 0; j < n_cols; ++j) row[j] += b;
    }
  }
}

}  // namespace

Conv2d::Conv2d(index_t in_channels, index_t out_channels, index_t kernel,
               index_t stride, index_t padding, Rng& rng, bool bias,
               std::string name)
    : geometry_{in_channels, kernel, stride, padding},
      out_channels_(out_channels),
      has_bias_(bias),
      name_(std::move(name)),
      weight_(name_ + ".weight",
              Tensor{Shape{out_channels, geometry_.patch_size()}}),
      bias_(name_ + ".bias", bias ? Tensor{Shape{out_channels}} : Tensor{}) {
  QDNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
             "Conv2d: dims must be positive");
  kaiming_normal(weight_.value, geometry_.patch_size(), rng);
  bias_.decay = false;
}

Tensor Conv2d::forward(const Tensor& input) {
  Tensor out{output_shape(input.shape())};
  cached_input_ = input;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t n_cols = out.dim(2) * out.dim(3);
  std::vector<float> panels(static_cast<std::size_t>(
      linalg::gemm_panel_floats(geometry_.patch_size(), n_cols)));
  for (index_t s = 0; s < n; ++s)
    conv_sample_forward(input.data() + s * geometry_.in_channels * h * w, h,
                        w, geometry_, weight_.value.data(),
                        has_bias_ ? bias_.value.data() : nullptr,
                        out_channels_, n_cols, panels.data(),
                        out.data() + s * out_channels_ * n_cols);
  return out;
}

Shape Conv2d::output_shape(const Shape& input_shape) const {
  return conv_output_shape(geometry_, out_channels_, input_shape, name_);
}

void Conv2d::forward_into(const ConstTensorView& input, const TensorView& output,
                          Workspace& ws) {
  const Shape out_shape = output_shape(input.shape());
  QDNN_CHECK(output.shape() == out_shape,
             name_ << ": bad output view " << output.shape());
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t n_cols = out_shape[2] * out_shape[3];
  float* panels =
      ws.alloc(linalg::gemm_panel_floats(geometry_.patch_size(), n_cols));
  for (index_t s = 0; s < n; ++s)
    conv_sample_forward(input.data() + s * geometry_.in_channels * h * w, h,
                        w, geometry_, weight_.value.data(),
                        has_bias_ ? bias_.value.data() : nullptr,
                        out_channels_, n_cols, panels,
                        output.data() + s * out_channels_ * n_cols);
}

void Conv2d::freeze() {
  cached_input_ = Tensor{};
  Module::freeze();
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  const Tensor& input = cached_input_;
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = geometry_.out_extent(h), ow = geometry_.out_extent(w);
  const index_t patch = geometry_.patch_size();
  const index_t n_cols = oh * ow;
  QDNN_CHECK(grad_output.shape() == Shape({n, out_channels_, oh, ow}),
             name_ << ": grad_output shape " << grad_output.shape());

  Tensor grad_input{input.shape()};
  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  std::vector<float> grad_cols(static_cast<std::size_t>(patch * n_cols));
  for (index_t s = 0; s < n; ++s) {
    const float* g_s = grad_output.data() + s * out_channels_ * n_cols;
    im2col(input.data() + s * geometry_.in_channels * h * w, h, w, geometry_,
           cols.data());
    // dW += g · colsᵀ  — [oc, patch]
    linalg::gemm(false, true, out_channels_, patch, n_cols, 1.0f, g_s,
                 n_cols, cols.data(), n_cols, 1.0f, weight_.grad.data(),
                 patch);
    if (has_bias_) {
      for (index_t oc = 0; oc < out_channels_; ++oc) {
        const float* row = g_s + oc * n_cols;
        float acc = 0.0f;
        for (index_t j = 0; j < n_cols; ++j) acc += row[j];
        bias_.grad[oc] += acc;
      }
    }
    // d(cols) = Wᵀ · g — [patch, n_cols]; scatter back via col2im.
    linalg::gemm(true, false, patch, n_cols, out_channels_, 1.0f,
                 weight_.value.data(), patch, g_s, n_cols, 0.0f,
                 grad_cols.data(), n_cols);
    col2im(grad_cols.data(), h, w, geometry_,
           grad_input.data() + s * geometry_.in_channels * h * w);
  }
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  std::vector<Parameter*> params{&weight_};
  if (has_bias_) params.push_back(&bias_);
  return params;
}

}  // namespace qdnn::nn
