#include "quantize/quantized_modules.h"

#include <algorithm>
#include <cmath>

#include "nn/im2col.h"

namespace qdnn::quantize {

// ---------------------------------------------------------------------------
// QuantizedLinear
// ---------------------------------------------------------------------------

QuantizedLinear::QuantizedLinear(nn::Linear& trained, const Tensor& sample,
                                 int bits, double percentile)
    : name_(trained.name() + ".int8"),
      in_(trained.in_features()),
      out_(trained.out_features()),
      weight_(quantize_per_channel(trained.weight().value, bits)),
      input_params_(choose_params_percentile(sample.data(), sample.numel(),
                                             bits, percentile)) {
  QDNN_CHECK_EQ(sample.rank(), 2, name_ << ": sample must be [N, in]");
  QDNN_CHECK_EQ(sample.dim(1), in_, name_ << ": sample width");
  if (trained.has_bias()) bias_ = trained.bias().value;
  // Fold the per-request constant input_scale · weight_scale[channel]
  // once — both factors are fixed for the module's lifetime.
  dequant_scales_.resize(static_cast<std::size_t>(out_));
  for (index_t j = 0; j < out_; ++j)
    dequant_scales_[static_cast<std::size_t>(j)] =
        input_params_.scale * weight_.params[static_cast<std::size_t>(j)].scale;
}

Tensor QuantizedLinear::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_, name_ << ": in_features");
  const index_t n = input.dim(0);

  const QTensor qx = quantize_activations(input, input_params_);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(n * out_));
  gemm_i8(qx.data.data(), weight_.data.data(), acc.data(), n, out_, in_);

  Tensor out{Shape{n, out_}};
  for (index_t s = 0; s < n; ++s) {
    for (index_t j = 0; j < out_; ++j) {
      float y =
          static_cast<float>(acc[static_cast<std::size_t>(s * out_ + j)]) *
          dequant_scales_[static_cast<std::size_t>(j)];
      if (!bias_.empty()) y += bias_[j];
      out.at(s, j) = y;
    }
  }
  return out;
}

Tensor QuantizedLinear::backward(const Tensor&) {
  QDNN_CHECK(false, name_ << ": quantized modules are inference-only");
  return {};
}

// ---------------------------------------------------------------------------
// QuantizedProposedDense
// ---------------------------------------------------------------------------

QuantizedProposedDense::QuantizedProposedDense(
    quadratic::ProposedQuadraticDense& trained, const Tensor& sample,
    int bits, double percentile)
    : name_(trained.name() + ".int8"),
      in_(trained.in_features()),
      units_(trained.units()),
      rank_(trained.rank()),
      w_(quantize_per_channel(trained.w().value, bits)),
      q_(quantize_per_channel(trained.q().value, bits)),
      lambda_(trained.lambda().value),
      bias_(trained.bias().value),
      input_params_(choose_params_percentile(sample.data(), sample.numel(),
                                             bits, percentile)) {
  QDNN_CHECK_EQ(sample.rank(), 2, name_ << ": sample must be [N, in]");
  QDNN_CHECK_EQ(sample.dim(1), in_, name_ << ": sample width");
  QDNN_CHECK(rank_ <= 64, name_ << ": rank too large for epilogue buffer");
  const index_t uk = units_ * rank_;
  w_scales_.resize(static_cast<std::size_t>(units_));
  q_scales_.resize(static_cast<std::size_t>(uk));
  for (index_t u = 0; u < units_; ++u)
    w_scales_[static_cast<std::size_t>(u)] =
        input_params_.scale * w_.params[static_cast<std::size_t>(u)].scale;
  for (index_t r = 0; r < uk; ++r)
    q_scales_[static_cast<std::size_t>(r)] =
        input_params_.scale * q_.params[static_cast<std::size_t>(r)].scale;
}

Tensor QuantizedProposedDense::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_, name_ << ": in_features");
  const index_t n = input.dim(0);
  const index_t uk = units_ * rank_;

  const QTensor qx = quantize_activations(input, input_params_);
  // Both GEMMs of the proposed neuron consume the *same* quantized input:
  // y₁ accumulator [N, units] and feature accumulator [N, units·rank].
  std::vector<std::int32_t> acc_w(static_cast<std::size_t>(n * units_));
  std::vector<std::int32_t> acc_q(static_cast<std::size_t>(n * uk));
  gemm_i8(qx.data.data(), w_.data.data(), acc_w.data(), n, units_, in_);
  gemm_i8(qx.data.data(), q_.data.data(), acc_q.data(), n, uk, in_);

  const index_t out_w = out_features();
  Tensor out{Shape{n, out_w}};
  for (index_t s = 0; s < n; ++s) {
    float* o_row = out.data() + s * out_w;
    for (index_t u = 0; u < units_; ++u) {
      // Dequantize the k features of unit u, then apply the fp32 epilogue.
      float f[64];  // rank is small (paper uses k = 9); checked in ctor
      for (index_t i = 0; i < rank_; ++i) {
        const index_t row = u * rank_ + i;
        f[i] = static_cast<float>(
                   acc_q[static_cast<std::size_t>(s * uk + row)]) *
               q_scales_[static_cast<std::size_t>(row)];
      }
      const float s_w = w_scales_[static_cast<std::size_t>(u)];
      const float y1 =
          static_cast<float>(acc_w[static_cast<std::size_t>(s * units_ + u)]) *
          s_w;
      const float* lam = lambda_.data() + u * rank_;
      float y2 = 0.0f;
      for (index_t i = 0; i < rank_; ++i) y2 += lam[i] * f[i] * f[i];
      float* o_u = o_row + u * (rank_ + 1);
      o_u[0] = y1 + bias_[u] + y2;
      for (index_t i = 0; i < rank_; ++i) o_u[1 + i] = f[i];
    }
  }
  return out;
}

Tensor QuantizedProposedDense::backward(const Tensor&) {
  QDNN_CHECK(false, name_ << ": quantized modules are inference-only");
  return {};
}

// ---------------------------------------------------------------------------
// Conv helpers
// ---------------------------------------------------------------------------

namespace {

// Extracts one sample's im2col patches directly as int8 codes on the
// calibrated activation grid: fake-quantize the image, float im2col (zero
// padding stays exact), then code conversion.
void im2col_codes(const float* image, index_t h, index_t w,
                  const nn::ConvGeometry& g, const QuantParams& params,
                  std::vector<float>& scratch, std::vector<std::int8_t>& out) {
  const index_t n_cols = g.out_extent(h) * g.out_extent(w);
  const index_t total = g.patch_size() * n_cols;
  scratch.resize(static_cast<std::size_t>(total));
  out.resize(static_cast<std::size_t>(total));

  // Fake-quantize the image into a temporary so the patches are grid
  // multiples before code conversion.
  const index_t image_elems = g.in_channels * h * w;
  std::vector<float> fq(static_cast<std::size_t>(image_elems));
  const float qmax = static_cast<float>(params.qmax());
  for (index_t i = 0; i < image_elems; ++i) {
    float q = std::nearbyint(image[i] / params.scale);
    q = std::min(std::max(q, -qmax), qmax);
    fq[static_cast<std::size_t>(i)] = q * params.scale;
  }
  nn::im2col(fq.data(), h, w, g, scratch.data());
  to_codes(scratch.data(), total, params, out.data());
}

}  // namespace

// ---------------------------------------------------------------------------
// QuantizedConv2d
// ---------------------------------------------------------------------------

QuantizedConv2d::QuantizedConv2d(nn::Conv2d& trained, const Tensor& sample,
                                 int bits, double percentile)
    : name_(trained.name() + ".int8"),
      geometry_(trained.geometry()),
      out_channels_(trained.out_channels()),
      weight_(quantize_per_channel(trained.weight().value, bits)),
      input_params_(choose_params_percentile(sample.data(), sample.numel(),
                                             bits, percentile)) {
  QDNN_CHECK_EQ(sample.rank(), 4, name_ << ": sample must be [N,C,H,W]");
  QDNN_CHECK_EQ(sample.dim(1), geometry_.in_channels, name_ << ": channels");
  if (trained.has_bias()) bias_ = trained.bias().value;
  dequant_scales_.resize(static_cast<std::size_t>(out_channels_));
  for (index_t f = 0; f < out_channels_; ++f)
    dequant_scales_[static_cast<std::size_t>(f)] =
        input_params_.scale * weight_.params[static_cast<std::size_t>(f)].scale;
}

Tensor QuantizedConv2d::forward(const Tensor& input) {
  const Shape out_shape = output_shape(input.shape());
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = out_shape[2], ow = out_shape[3];
  const index_t n_cols = oh * ow;
  const index_t patch = geometry_.patch_size();

  Tensor out{Shape{n, out_channels_, oh, ow}};
  std::vector<float> scratch;
  std::vector<std::int8_t> codes;
  std::vector<std::int32_t> acc(static_cast<std::size_t>(out_channels_ * n_cols));
  for (index_t s = 0; s < n; ++s) {
    im2col_codes(input.data() + s * geometry_.in_channels * h * w, h, w,
                 geometry_, input_params_, scratch, codes);
    gemm_i8_nn(weight_.data.data(), codes.data(), acc.data(), out_channels_,
               n_cols, patch);
    float* out_s = out.data() + s * out_channels_ * n_cols;
    for (index_t f = 0; f < out_channels_; ++f) {
      const float scale = dequant_scales_[static_cast<std::size_t>(f)];
      const float b = bias_.empty() ? 0.0f : bias_[f];
      const std::int32_t* acc_row = acc.data() + f * n_cols;
      float* o_row = out_s + f * n_cols;
      for (index_t j = 0; j < n_cols; ++j)
        o_row[j] = static_cast<float>(acc_row[j]) * scale + b;
    }
  }
  return out;
}

Tensor QuantizedConv2d::backward(const Tensor&) {
  QDNN_CHECK(false, name_ << ": quantized modules are inference-only");
  return {};
}

// ---------------------------------------------------------------------------
// QuantizedProposedConv2d
// ---------------------------------------------------------------------------

QuantizedProposedConv2d::QuantizedProposedConv2d(
    quadratic::ProposedQuadConv2d& trained, const Tensor& sample, int bits,
    double percentile)
    : name_(trained.name() + ".int8"),
      geometry_(trained.geometry()),
      filters_(trained.filters()),
      rank_(trained.rank()),
      emit_features_(trained.emit_features()),
      w_(quantize_per_channel(trained.w().value, bits)),
      q_(quantize_per_channel(trained.q().value, bits)),
      lambda_(trained.lambda().value),
      bias_(trained.bias().value),
      input_params_(choose_params_percentile(sample.data(), sample.numel(),
                                             bits, percentile)) {
  QDNN_CHECK_EQ(sample.rank(), 4, name_ << ": sample must be [N,C,H,W]");
  QDNN_CHECK_EQ(sample.dim(1), geometry_.in_channels, name_ << ": channels");
  const index_t fr = filters_ * rank_;
  w_scales_.resize(static_cast<std::size_t>(filters_));
  q_scales_.resize(static_cast<std::size_t>(fr));
  for (index_t f = 0; f < filters_; ++f)
    w_scales_[static_cast<std::size_t>(f)] =
        input_params_.scale * w_.params[static_cast<std::size_t>(f)].scale;
  for (index_t r = 0; r < fr; ++r)
    q_scales_[static_cast<std::size_t>(r)] =
        input_params_.scale * q_.params[static_cast<std::size_t>(r)].scale;
}

Tensor QuantizedProposedConv2d::forward(const Tensor& input) {
  const Shape out_shape = output_shape(input.shape());
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = out_shape[2], ow = out_shape[3];
  const index_t n_cols = oh * ow;
  const index_t patch = geometry_.patch_size();
  const index_t fr = filters_ * rank_;
  const index_t ch_per_filter = emit_features_ ? rank_ + 1 : 1;

  Tensor out{Shape{n, out_channels(), oh, ow}};
  std::vector<float> scratch;
  std::vector<std::int8_t> codes;
  std::vector<std::int32_t> acc_w(static_cast<std::size_t>(filters_ * n_cols));
  std::vector<std::int32_t> acc_q(static_cast<std::size_t>(fr * n_cols));
  for (index_t s = 0; s < n; ++s) {
    im2col_codes(input.data() + s * geometry_.in_channels * h * w, h, w,
                 geometry_, input_params_, scratch, codes);
    // The proposed neuron's deployment advantage in integer form: both
    // the linear part and the features come from the same code matrix.
    gemm_i8_nn(w_.data.data(), codes.data(), acc_w.data(), filters_, n_cols,
               patch);
    gemm_i8_nn(q_.data.data(), codes.data(), acc_q.data(), fr, n_cols,
               patch);

    float* out_s = out.data() + s * out_channels() * n_cols;
    for (index_t f = 0; f < filters_; ++f) {
      const float s_w = w_scales_[static_cast<std::size_t>(f)];
      const float* lam = lambda_.data() + f * rank_;
      float* y_row = out_s + f * ch_per_filter * n_cols;
      const std::int32_t* accw_row = acc_w.data() + f * n_cols;
      const float b = bias_[f];
      for (index_t j = 0; j < n_cols; ++j)
        y_row[j] = static_cast<float>(accw_row[j]) * s_w + b;
      for (index_t i = 0; i < rank_; ++i) {
        const index_t row = f * rank_ + i;
        const float s_q = q_scales_[static_cast<std::size_t>(row)];
        const std::int32_t* accq_row = acc_q.data() + row * n_cols;
        const float l = lam[i];
        float* o_row = emit_features_ ? y_row + (1 + i) * n_cols : nullptr;
        for (index_t j = 0; j < n_cols; ++j) {
          const float fij = static_cast<float>(accq_row[j]) * s_q;
          y_row[j] += l * fij * fij;
          if (o_row) o_row[j] = fij;
        }
      }
    }
  }
  return out;
}

Tensor QuantizedProposedConv2d::backward(const Tensor&) {
  QDNN_CHECK(false, name_ << ": quantized modules are inference-only");
  return {};
}

}  // namespace qdnn::quantize
