// Convolutional quadratic layers.
//
// A conv filter of family X is one X-neuron with fan-in n = C_in·K² swept
// over the image: every layer here evaluates its quadratic form on the
// im2col patch matrix, so the per-neuron math matches quad_dense exactly
// (property tests assert this equivalence).
//
// ProposedQuadConv2d realises the paper's Fig. 3 deployment: each filter
// emits 1 + k channels (its quadratic output y followed by the k
// intermediate features fᵏ), placed along the channel dimension, so a
// layer that must produce C channels needs only ≈C/(k+1) filters
// (nearest rounding — see proposed_filters below).
#pragma once

#include "nn/im2col.h"
#include "nn/init.h"
#include "nn/module.h"
#include "quadratic/neuron_spec.h"

namespace qdnn::quadratic {

// ---------------------------------------------------------------------------
// Proposed neuron, conv form.  out_channels = filters · (rank+1); channel
// layout per filter f: [y_f, f_1, …, f_k].
// ---------------------------------------------------------------------------
class ProposedQuadConv2d : public nn::Module {
 public:
  // emit_features = false turns off the vectorized output (Sec. III-B):
  // fᵏ is still computed and squared into y, but not emitted as channels —
  // the "sum-only" ablation of bench/ablation_feature_reuse.
  ProposedQuadConv2d(index_t in_channels, index_t filters, index_t kernel,
                     index_t stride, index_t padding, index_t rank,
                     Rng& rng, float lambda_lr_scale = 1e-3f,
                     std::string name = "proposed_conv",
                     bool emit_features = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  // v2: the serving path of the paper's Fig. 3 deployment.  W·x and
  // every Qᵏ·x come from one gemm over one panel im2col of each sample,
  // written straight into the output channels; only the fused weights
  // and the patch panels live in the workspace (plus the gemm result in
  // sum-only mode, where fᵏ is not an output channel).
  Shape output_shape(const Shape& input_shape) const override;
  bool supports_forward_into() const override { return true; }
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace& ws) override;

  // W and Q are the gemm's A operand, interleaved per filter into
  // [w_f; q_f1..q_fk] rows by each forward call (a copy of
  // (k+1)·patch floats per filter, small next to the gemm); the gemm
  // reads A row by row untransposed, so there is nothing to pack and
  // freeze only drops the training caches.
  void freeze() override;

  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return name_; }

  index_t filters() const { return filters_; }
  index_t rank() const { return rank_; }
  bool emit_features() const { return emit_features_; }
  index_t out_channels() const {
    return filters_ * (emit_features_ ? rank_ + 1 : 1);
  }
  const nn::ConvGeometry& geometry() const { return geometry_; }

  nn::Parameter& w() { return w_; }
  nn::Parameter& q() { return q_; }
  nn::Parameter& lambda() { return lambda_; }
  nn::Parameter& bias() { return b_; }

 private:
  // Writes W and Q interleaved per filter, [w_f; q_f1..q_fk], into
  // `fused` ([filters·(rank+1), patch]).
  void fuse_weights(float* fused) const;
  // One sample's forward, shared by forward() and forward_into() so
  // training and serving cannot drift: panel im2col, one fused gemm,
  // then y = y₁ + b + Σλᵢfᵢ² in place.  Returns the gemm result
  // ([filters·(rank+1), OH·OW] rows [y₁_f, f_1..f_k]): out_s itself
  // when features are emitted, else `scratch`.
  const float* forward_sample(const float* image, index_t h, index_t w,
                              const float* fused, float* panels,
                              float* scratch, float* out_s) const;

  nn::ConvGeometry geometry_;
  index_t filters_, rank_;
  bool emit_features_;
  std::string name_;
  nn::Parameter w_;       // [filters, patch]
  nn::Parameter q_;       // [filters*rank, patch]
  nn::Parameter lambda_;  // [filters, rank]
  nn::Parameter b_;       // [filters]
  Tensor cached_input_;
  Tensor cached_f_;       // [N, filters*rank, OH*OW]
};

// ---------------------------------------------------------------------------
// Rank-1 factored families [19]/[21]/[23], conv form.
// ---------------------------------------------------------------------------
class FactoredQuadConv2d : public nn::Module {
 public:
  FactoredQuadConv2d(index_t in_channels, index_t out_channels,
                     index_t kernel, index_t stride, index_t padding,
                     NeuronKind mode, Rng& rng,
                     std::string name = "factored_conv");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input_shape) const override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return name_; }

  NeuronKind mode() const { return mode_; }
  index_t out_channels() const { return filters_; }

 private:
  bool has_w3() const { return mode_ != NeuronKind::kBuKarpatne; }
  bool squares_input() const { return mode_ == NeuronKind::kQuad1; }

  nn::ConvGeometry geometry_;
  index_t filters_;
  NeuronKind mode_;
  std::string name_;
  nn::Parameter w1_, w2_, w3_;  // [filters, patch] each
  nn::Parameter c_;             // [filters] output bias
  Tensor cached_input_;
  Tensor cached_a_;  // [N, filters, OH*OW]
  Tensor cached_b_;
};

// ---------------------------------------------------------------------------
// Low-rank family [18], conv form: y = colᵀQ₁Q₂ᵀcol + wᵀcol + b.
// ---------------------------------------------------------------------------
class LowRankQuadConv2d : public nn::Module {
 public:
  LowRankQuadConv2d(index_t in_channels, index_t out_channels,
                    index_t kernel, index_t stride, index_t padding,
                    index_t rank, Rng& rng,
                    std::string name = "lowrank_conv");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input_shape) const override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return name_; }

  index_t rank() const { return rank_; }

 private:
  nn::ConvGeometry geometry_;
  index_t filters_, rank_;
  std::string name_;
  nn::Parameter q1_, q2_;  // [filters*rank, patch]
  nn::Parameter w_;        // [filters, patch]
  nn::Parameter b_;        // [filters]
  Tensor cached_input_;
  Tensor cached_a_;        // [N, filters*rank, OH*OW]
  Tensor cached_c_;
};

// ---------------------------------------------------------------------------
// General quadratic neuron [17]/[16], conv form.  O(n²) parameters per
// filter — intended for small geometries (first-layer deployments as in
// [17], unit tests, and conversion experiments).
// ---------------------------------------------------------------------------
class GeneralQuadConv2d : public nn::Module {
 public:
  GeneralQuadConv2d(index_t in_channels, index_t out_channels,
                    index_t kernel, index_t stride, index_t padding,
                    bool include_linear, Rng& rng,
                    std::string name = "general_conv");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input_shape) const override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return name_; }

  nn::Parameter& m() { return m_; }
  nn::Parameter& w() { return w_; }

 private:
  nn::ConvGeometry geometry_;
  index_t filters_;
  bool include_linear_;
  std::string name_;
  nn::Parameter m_;  // [filters, patch, patch]
  nn::Parameter w_;  // [filters, patch]
  nn::Parameter b_;  // [filters]
  Tensor cached_input_;
};

// ---------------------------------------------------------------------------
// Factory used by the model builders.
// ---------------------------------------------------------------------------

// Number of proposed-neuron filters used to approximate `target_channels`
// output channels: nearest(target/(k+1)), at least 1.
index_t proposed_filters(const NeuronSpec& spec, index_t target_channels);

// Actual channel count a conv layer of this family produces when asked
// for `target_channels`: proposed_filters·(k+1) for the proposed neuron
// (nearest rounding keeps widths comparable to the linear baseline);
// identical to target for everyone else.
index_t conv_out_channels(const NeuronSpec& spec, index_t target_channels);

// Builds a conv layer producing conv_out_channels(spec, target_channels)
// channels.
nn::ModulePtr make_conv_neuron(const NeuronSpec& spec, index_t in_channels,
                               index_t target_channels, index_t kernel,
                               index_t stride, index_t padding, Rng& rng,
                               std::string name);

}  // namespace qdnn::quadratic
