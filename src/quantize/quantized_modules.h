// Inference-only integer implementations of the two neuron families the
// deployment story cares about: the linear baseline and the proposed
// quadratic neuron.
//
// Both are built *from* a trained float layer (post-training
// quantization): weights move to per-channel int8 grids at construction,
// activations are quantized with a grid calibrated offline on sample
// batches (choose_params_percentile).  forward() then runs entirely in
// int8·int8→int32 arithmetic plus one fp32 rescale per output channel.
//
// The proposed neuron quantizes unusually well for a second-order unit:
// its only integer computation is the same x·[w; Qᵏ]ᵀ GEMM a linear layer
// performs — the squaring happens *after* dequantization on the k fp32
// features fᵏ, so no int16/int32 requantization chain is needed and the
// quadratic response inherits the linear part's error bound (times the
// |Λ|·|f| amplification measured in tests/quantize/).
//
// These modules are inference-only: backward() is a checked error.
#pragma once

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "quadratic/quad_conv.h"
#include "quadratic/quad_dense.h"
#include "quantize/int8_ops.h"
#include "quantize/qtensor.h"

namespace qdnn::quantize {

// y = deq(q(x)·Wqᵀ)·s + b, weights per-channel int8.
class QuantizedLinear : public nn::Module {
 public:
  // Calibration: `sample` is a representative activation batch [N, in];
  // its percentile-absmax fixes the input grid for all future batches.
  QuantizedLinear(nn::Linear& trained, const Tensor& sample, int bits = 8,
                  double percentile = 0.999);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input_shape) const override {
    QDNN_CHECK_EQ(input_shape.rank(), 2, name_ << ": expected [N, in]");
    return Shape{input_shape[0], out_};
  }
  std::vector<nn::Parameter*> parameters() override { return {}; }
  std::string name() const override { return name_; }

  const QuantParams& input_params() const { return input_params_; }
  index_t weight_storage_bytes() const { return weight_.storage_bytes(); }

 private:
  std::string name_;
  index_t in_ = 0, out_ = 0;
  QTensorPerChannel weight_;  // [out, in] int8, one scale per row
  Tensor bias_;               // [out] fp32 (empty if the source had none)
  QuantParams input_params_;
  // input_scale · weight_scale per channel, folded once at construction
  // (both factors are immutable after the ctor).
  std::vector<float> dequant_scales_;  // [out]
};

// Integer proposed neuron: two int8 GEMMs (w, then Qᵏ) over one quantized
// input, fp32 epilogue y = y₁ + b + Σλᵢfᵢ², output layout identical to
// ProposedQuadraticDense.
class QuantizedProposedDense : public nn::Module {
 public:
  QuantizedProposedDense(quadratic::ProposedQuadraticDense& trained,
                         const Tensor& sample, int bits = 8,
                         double percentile = 0.999);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input_shape) const override {
    QDNN_CHECK_EQ(input_shape.rank(), 2, name_ << ": expected [N, in]");
    return Shape{input_shape[0], out_features()};
  }
  std::vector<nn::Parameter*> parameters() override { return {}; }
  std::string name() const override { return name_; }

  index_t out_features() const { return units_ * (rank_ + 1); }
  index_t weight_storage_bytes() const {
    return w_.storage_bytes() + q_.storage_bytes() +
           lambda_.numel() * static_cast<index_t>(sizeof(float));
  }

 private:
  std::string name_;
  index_t in_ = 0, units_ = 0, rank_ = 0;
  QTensorPerChannel w_;  // [units, in]
  QTensorPerChannel q_;  // [units*rank, in]
  Tensor lambda_;        // [units, rank] fp32 — k values/unit, negligible
  Tensor bias_;          // [units] fp32
  QuantParams input_params_;
  std::vector<float> w_scales_, q_scales_;  // folded at construction
};

// Integer standard convolution: per-filter int8 weights, calibrated
// activation grid; forward is im2col → int8 codes → gemm_i8_nn → fp32
// rescale.  Zero padding is exact (code 0) on the symmetric grid.
class QuantizedConv2d : public nn::Module {
 public:
  // `sample` is a representative input batch [N, C, H, W].
  QuantizedConv2d(nn::Conv2d& trained, const Tensor& sample, int bits = 8,
                  double percentile = 0.999);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input_shape) const override {
    return nn::conv_output_shape(geometry_, out_channels_, input_shape, name_);
  }
  std::vector<nn::Parameter*> parameters() override { return {}; }
  std::string name() const override { return name_; }

  index_t weight_storage_bytes() const { return weight_.storage_bytes(); }

 private:
  std::string name_;
  nn::ConvGeometry geometry_;
  index_t out_channels_ = 0;
  QTensorPerChannel weight_;  // [out, patch]
  Tensor bias_;               // [out] fp32 (empty if source had none)
  QuantParams input_params_;
  std::vector<float> dequant_scales_;  // [out], folded at construction
};

// Integer proposed quadratic convolution: the same fused [w; Qᵏ] integer
// GEMM as the float layer, fp32 epilogue for y = y₁ + b + Σλᵢfᵢ²; channel
// layout identical to ProposedQuadConv2d (y followed by fᵏ per filter).
class QuantizedProposedConv2d : public nn::Module {
 public:
  QuantizedProposedConv2d(quadratic::ProposedQuadConv2d& trained,
                          const Tensor& sample, int bits = 8,
                          double percentile = 0.999);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input_shape) const override {
    return nn::conv_output_shape(geometry_, out_channels(), input_shape, name_);
  }
  std::vector<nn::Parameter*> parameters() override { return {}; }
  std::string name() const override { return name_; }

  index_t out_channels() const {
    return filters_ * (emit_features_ ? rank_ + 1 : 1);
  }
  index_t weight_storage_bytes() const {
    return w_.storage_bytes() + q_.storage_bytes() +
           lambda_.numel() * static_cast<index_t>(sizeof(float));
  }

 private:
  std::string name_;
  nn::ConvGeometry geometry_;
  index_t filters_ = 0, rank_ = 0;
  bool emit_features_ = true;
  QTensorPerChannel w_;  // [filters, patch]
  QTensorPerChannel q_;  // [filters*rank, patch]
  Tensor lambda_;        // [filters, rank] fp32
  Tensor bias_;          // [filters] fp32
  QuantParams input_params_;
  std::vector<float> w_scales_, q_scales_;  // folded at construction
};

}  // namespace qdnn::quantize
