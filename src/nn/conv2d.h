// Conv2d: standard (linear-neuron) 2-D convolution, [N,C,H,W] layout.
//
// Implemented as panel im2col + one GEMM per sample.  Each output
// channel is one linear neuron with fan-in n = C·K² sweeping the image —
// the baseline whose parameter and MAC cost the paper's Table I compares
// against.
#pragma once

#include "nn/im2col.h"
#include "nn/init.h"
#include "nn/module.h"

namespace qdnn::nn {

class Conv2d : public Module {
 public:
  Conv2d(index_t in_channels, index_t out_channels, index_t kernel,
         index_t stride, index_t padding, Rng& rng, bool bias = true,
         std::string name = "conv");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  // v2: each sample's patches are written in the gemm's tile-panel
  // layout (im2col_panels) into the workspace, and one gemm writes the
  // output channels directly.
  Shape output_shape(const Shape& input_shape) const override;
  bool supports_forward_into() const override { return true; }
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace& ws) override;

  // The [out, patch] weight is the gemm's A operand, read row by row
  // untransposed, and the patch side is laid out per call — so freeze
  // has no pack to materialize (and deliberately does not copy the
  // weights); it only drops the training cache.
  void freeze() override;

  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }

  index_t in_channels() const { return geometry_.in_channels; }
  index_t out_channels() const { return out_channels_; }
  const ConvGeometry& geometry() const { return geometry_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

 private:
  ConvGeometry geometry_;
  index_t out_channels_;
  bool has_bias_;
  std::string name_;
  Parameter weight_;  // [out_channels, C·K·K]
  Parameter bias_;    // [out_channels]
  Tensor cached_input_;
};

}  // namespace qdnn::nn
