// Encoder–decoder Transformer ("Attention Is All You Need" topology) with
// pluggable attention projections — the Table II experiment vehicle.
//
// The baseline uses linear projections of width d_model.  The quadratic
// configuration replaces all MHA projections with the proposed neuron and
// narrows the projection width (`proj_dim`), which is how the paper's
// quadratic Transformer reaches −20.3% parameters at equal/better BLEU:
// each quadratic neuron emits k+1 values, so fewer (and more expressive)
// neurons produce the attention features.
#pragma once

#include <memory>

#include "models/transformer/attention.h"
#include "models/transformer/feedforward.h"
#include "models/transformer/positional.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"

namespace qdnn::models {

struct TransformerConfig {
  index_t src_vocab = 512;
  index_t tgt_vocab = 512;
  index_t d_model = 64;
  index_t n_heads = 4;
  index_t n_layers = 2;
  index_t d_ff = 128;
  // Width of the Q/K/V projections; d_model for the standard model,
  // reduced for the quadratic configuration.  Must divide by n_heads (and
  // by rank+1 when spec is the proposed neuron).
  index_t proj_dim = 64;
  index_t max_len = 64;
  float dropout = 0.1f;
  quadratic::NeuronSpec spec;  // family for the MHA projections
  std::uint64_t seed = 1;
};

// One pre-norm-free encoder block: self-attn (+res, LN), FFN (+res, LN).
//
// Also a Module: the single-Tensor overrides run the block on [N, T, D]
// with full-length (unpadded) attention, and flatten_into exposes the
// block as primitive stages (attention, residual-add, LayerNorm, FFN
// sublayers) — its only serving face: every driver (InferenceSession,
// prefill in DecodeSession) runs those stages on a runtime::StageLane
// with native kernels.  Dropout is skipped in the flattened pipeline: it
// is exactly identity in eval mode.
class EncoderLayer : public nn::Module {
 public:
  EncoderLayer(const TransformerConfig& config, Rng& rng, std::string name);

  // Training entry: flattened [N·T, D] activations with padding lengths.
  Tensor forward(const Tensor& x, index_t n, index_t t,
                 const std::vector<index_t>& lengths);

  // Module API.  forward accepts [N, T, D] or the gradient layout
  // matching the last forward for backward.
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad) override;
  Shape output_shape(const Shape& input_shape) const override;
  void flatten_into(std::vector<nn::PipelineStage>& stages) override;
  void freeze() override;
  void unfreeze() override;
  std::vector<nn::Parameter*> parameters() override;
  void set_training(bool training) override;
  std::string name() const override { return name_; }

  MultiHeadAttention& self_attention() { return self_attn_; }

 private:
  std::string name_;
  index_t d_model_;
  MultiHeadAttention self_attn_;
  nn::Dropout drop1_;
  nn::LayerNorm ln1_;
  FeedForward ffn_;
  nn::Dropout drop2_;
  nn::LayerNorm ln2_;
};

// One decoder block: causal self-attn (+res, LN), cross-attn over the
// encoder output (+res, LN), FFN (+res, LN).
//
// Also a Module — the serving face of the block is the *decode step*:
// flatten_into exposes one KV-cached step on the new token's
// activations [N, D] as primitive stages (attention steps against
// session-bound KV caches — causal masking is implicit in the
// self-attention cache length — residual-adds, LayerNorms, FFN
// sublayers), which runtime::DecodeSession runs on its step lane.  The
// single-Tensor forward is a checked error (the block needs the encoder
// context); training flows through the multi-arg overloads.
class DecoderLayer : public nn::Module {
 public:
  DecoderLayer(const TransformerConfig& config, Rng& rng, std::string name);

  // Training entry: flattened [N·Tt, D] activations.
  Tensor forward(const Tensor& y, const Tensor& enc_out, index_t n,
                 index_t tt, index_t ts,
                 const std::vector<index_t>& src_lengths);
  // Returns {grad_y, grad_enc_out}.  (Named distinctly from the Module
  // backward override, which differs only in return type.)
  std::pair<Tensor, Tensor> backward_dual(const Tensor& grad);

  // Module API.  forward/backward are checked errors (two-input layer);
  // the step stages need their attention steps bound by a DecodeSession.
  Tensor forward(const Tensor&) override;
  Tensor backward(const Tensor&) override;
  void flatten_into(std::vector<nn::PipelineStage>& stages) override;
  void freeze() override;
  void unfreeze() override;
  std::vector<nn::Parameter*> parameters() override;
  void set_training(bool training) override;
  std::string name() const override { return name_; }

  // Session bind points.
  MultiHeadAttention& self_attention() { return self_attn_; }
  MultiHeadAttention& cross_attention() { return cross_attn_; }
  SelfAttentionStep& self_step() { return self_step_; }
  CrossAttentionStep& cross_step() { return cross_step_; }

 private:
  std::string name_;
  index_t d_model_;
  MultiHeadAttention self_attn_;
  nn::Dropout drop1_;
  nn::LayerNorm ln1_;
  MultiHeadAttention cross_attn_;
  nn::Dropout drop2_;
  nn::LayerNorm ln2_;
  FeedForward ffn_;
  nn::Dropout drop3_;
  nn::LayerNorm ln3_;
  SelfAttentionStep self_step_;
  CrossAttentionStep cross_step_;
};

class Transformer {
 public:
  explicit Transformer(const TransformerConfig& config);

  // Teacher-forced training pass.
  // src_ids: [N, Ts]; tgt_in_ids: [N, Tt] (shifted-right target).
  // Returns logits [N·Tt, tgt_vocab].
  Tensor forward_train(const Tensor& src_ids, const Tensor& tgt_in_ids,
                       const std::vector<index_t>& src_lengths);

  // Backward from dL/d(logits); accumulates all parameter gradients.
  void backward(const Tensor& grad_logits);

  // Greedy autoregressive decoding (inference).  Returns one id sequence
  // per sample, each ending at eos or max_steps.  Served through a
  // KV-cached runtime::DecodeSession (O(T) per emitted token) and
  // bit-identical to greedy_decode_reference; switches the model to eval
  // mode (decoding through train-mode dropout was never meaningful).
  // max_steps counts emitted tokens: the implicit bos occupies position 0
  // and step s embeds position s, so max_steps may equal max_len exactly;
  // max_steps == 0 returns empty sequences without touching the model.
  std::vector<std::vector<index_t>> greedy_decode(
      const Tensor& src_ids, const std::vector<index_t>& src_lengths,
      index_t bos, index_t eos, index_t max_steps);

  // The legacy teacher-forced decoder: re-runs every decoder layer over
  // the growing prefix each step (O(T²) per sequence) — kept as the
  // regression oracle for the KV-cached path and as the uncached side of
  // bench/table2_transformer.  Rows that emitted eos are compacted out of
  // the batch instead of being re-decoded.
  std::vector<std::vector<index_t>> greedy_decode_reference(
      const Tensor& src_ids, const std::vector<index_t>& src_lengths,
      index_t bos, index_t eos, index_t max_steps);

  std::vector<nn::Parameter*> parameters();
  void set_training(bool training);
  // Serving bind/unbind over the whole model (both embeddings, encoder
  // and decoder stacks, output projection): prepack constant GEMM
  // operands and drop training caches.  Mutating parameters afterwards
  // leaves the packs stale — unfreeze() (or freeze() again) after any
  // weight update.
  void freeze();
  void unfreeze();
  index_t num_parameters();

  const TransformerConfig& config() const { return config_; }

  // Encoder forward on token ids — public so the serving facade
  // (TransformerEncoder) and equivalence tests share the training path.
  // Returns flattened [N·Ts, D].
  Tensor encode(const Tensor& src_ids,
                const std::vector<index_t>& src_lengths);

  // Serving access for TransformerEncoder.
  nn::Embedding& src_embedding() { return *src_embed_; }
  const PositionalEncoding& positional() const { return pos_; }
  index_t num_encoder_layers() const {
    return static_cast<index_t>(encoder_.size());
  }
  EncoderLayer& encoder_layer(index_t i) {
    return *encoder_[static_cast<std::size_t>(i)];
  }

  // Serving access for runtime::DecodeSession.
  nn::Embedding& tgt_embedding() { return *tgt_embed_; }
  index_t num_decoder_layers() const {
    return static_cast<index_t>(decoder_.size());
  }
  DecoderLayer& decoder_layer(index_t i) {
    return *decoder_[static_cast<std::size_t>(i)];
  }
  nn::Linear& output_projection() { return *out_proj_; }

 private:
  Tensor decode(const Tensor& tgt_in_ids, const Tensor& enc_out, index_t ts,
                const std::vector<index_t>& src_lengths);

  TransformerConfig config_;
  Rng rng_;
  std::unique_ptr<nn::Embedding> src_embed_;
  std::unique_ptr<nn::Embedding> tgt_embed_;
  PositionalEncoding pos_;
  std::vector<std::unique_ptr<EncoderLayer>> encoder_;
  std::vector<std::unique_ptr<DecoderLayer>> decoder_;
  std::unique_ptr<nn::Linear> out_proj_;
  // Forward caches for backward.
  index_t n_ = 0, ts_ = 0, tt_ = 0;
  std::vector<index_t> src_lengths_;
};

// Serving facade over the encoder stack of a Transformer: one Module
// mapping src ids [N, T] → encoder output [N, T, D], whose flatten_into
// yields the native stage pipeline
//   embed → scale+positional → (attention, +res, LN, FFN, +res, LN)ᴸ
// so a stage driver serves the encoder layer-by-layer, allocation-free,
// bit-identical to Transformer::encode with full-length (unpadded)
// sequences: an InferenceSession over the facade, and every
// DecodeSession prefill, which runs the plan over a source's valid
// prefix — padded keys get exact-zero softmax weights, so those rows
// equal Transformer::encode's valid rows on the padded batch.
// Non-owning: the Transformer must outlive the facade and any session
// holding it.
class TransformerEncoder : public nn::Module {
 public:
  explicit TransformerEncoder(Transformer& model);

  Tensor forward(const Tensor& src_ids) override;  // [N, T] → [N, T, D]
  Tensor backward(const Tensor& grad_output) override;  // checked error
  Shape output_shape(const Shape& input_shape) const override;
  void flatten_into(std::vector<nn::PipelineStage>& stages) override;
  void freeze() override;
  void unfreeze() override;
  std::vector<nn::Parameter*> parameters() override;
  void set_training(bool training) override;
  std::string name() const override { return "transformer_encoder"; }

 private:
  Transformer* model_;
  PositionalScale scale_pos_;
};

}  // namespace qdnn::models
