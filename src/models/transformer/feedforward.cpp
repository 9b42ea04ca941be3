#include "models/transformer/feedforward.h"

namespace qdnn::models {

FeedForward::FeedForward(index_t d_model, index_t d_ff, Rng& rng,
                         std::string name)
    : name_(std::move(name)),
      fc1_(d_model, d_ff, rng, true, name_ + ".fc1"),
      fc2_(d_ff, d_model, rng, true, name_ + ".fc2") {}

Tensor FeedForward::forward(const Tensor& input) {
  return fc2_.forward(relu_.forward(fc1_.forward(input)));
}

Tensor FeedForward::backward(const Tensor& grad_output) {
  return fc1_.backward(relu_.backward(fc2_.backward(grad_output)));
}

Shape FeedForward::output_shape(const Shape& input_shape) const {
  return fc2_.output_shape(relu_.output_shape(fc1_.output_shape(input_shape)));
}

void FeedForward::flatten_into(std::vector<nn::PipelineStage>& stages) {
  fc1_.flatten_into(stages);
  relu_.flatten_into(stages);
  fc2_.flatten_into(stages);
}

void FeedForward::freeze() {
  fc1_.freeze();
  relu_.freeze();
  fc2_.freeze();
  Module::freeze();
}

void FeedForward::unfreeze() {
  fc1_.unfreeze();
  relu_.unfreeze();
  fc2_.unfreeze();
  Module::unfreeze();
}

void FeedForward::set_training(bool training) {
  Module::set_training(training);
  fc1_.set_training(training);
  relu_.set_training(training);
  fc2_.set_training(training);
}

std::vector<nn::Parameter*> FeedForward::parameters() {
  std::vector<nn::Parameter*> params = fc1_.parameters();
  for (nn::Parameter* p : fc2_.parameters()) params.push_back(p);
  return params;
}

}  // namespace qdnn::models
