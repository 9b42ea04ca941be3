// Position-wise feed-forward block of the Transformer:
// Linear(d→d_ff) → ReLU → Linear(d_ff→d), applied to flattened [N·T, D].
#pragma once

#include "nn/activations.h"
#include "nn/linear.h"

namespace qdnn::models {

class FeedForward : public nn::Module {
 public:
  FeedForward(index_t d_model, index_t d_ff, Rng& rng, std::string name);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input_shape) const override;
  // The block flattens to fc1 → relu → fc2, all native — its only
  // serving face: a stage driver serves it layer-by-layer.
  void flatten_into(std::vector<nn::PipelineStage>& stages) override;
  void freeze() override;
  void unfreeze() override;
  void set_training(bool training) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  nn::Linear fc1_;
  nn::ReLU relu_;
  nn::Linear fc2_;
};

}  // namespace qdnn::models
