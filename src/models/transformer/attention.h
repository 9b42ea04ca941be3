// Multi-head scaled-dot-product attention with pluggable projections.
//
// The paper's Table II experiment deploys the proposed quadratic neuron in
// "all linear projection operators in the multi-head attention blocks", so
// the four projections (Q, K, V, output) are built through
// quadratic::make_dense_neuron and can be linear or proposed-quadratic.
// The quadratic configuration uses a reduced projection width — the
// quadratic neurons' higher expressivity per output is what lets the model
// shed >20% of its parameters at equal/better BLEU.
//
// Shapes: training activations flow flattened as [N·T, D] with batch/time
// dims passed explicitly; padding is handled with per-sample key lengths
// and `causal` masks future positions (decoder self-attention).
//
// MultiHeadAttention is also a Module: the single-input overrides treat
// [N, T, D] input as full-length non-causal *self*-attention — the
// encoder serving stage.  forward_into is native (projections, scores and
// context all live in the workspace) so a flattened encoder pipeline runs
// allocation-free; the score/softmax/context kernel is shared with the
// training forward so the two paths cannot drift.  Serving never masks
// this stage: prefill encodes only a source's valid prefix, and a row
// whose padded keys are masked is bit-identical to the same row encoded
// at the valid length (the exact-zero weights below), so the valid rows
// of a padded training-path batch are reproduced exactly.
//
// The incremental (KV-cached) decoding API serves autoregressive steps:
// self_attend_step projects one new token per sample, appends its K/V
// into a caller-owned cache and attends over the cached prefix (causal
// masking is implicit in the cache length); project_kv materializes the
// encoder-side K/V once so cross_attend_step reuses them every step.
// Both step kernels take PER-ROW cache lengths — each sample carries its
// own ring position (self) / source length (cross), so rows admitted at
// different times coexist in one gemm-backed batch step (continuous
// batching).  Rows behind the batch maximum mask the tail with -1e30
// scores, which softmax turns into exact zeros — so every row is
// bit-identical to a solo pass of just that row.  Both step kernels run
// through the same score/softmax/context code as the training forward
// and are bit-identical to the matching row of a full-prefix pass.
#pragma once

#include <memory>

#include "nn/module.h"
#include "quadratic/quad_dense.h"

namespace qdnn::models {

// Paged KV addressing for the step kernels (PR 10): token position j of
// sample s lives at
//   pool + table[s·pages_per_row + j/page_tokens]·page_floats
//        + slice_offset + (j mod page_tokens)·proj_dim
// where `table` is the session's per-row page table over a
// runtime::KvPagePool and `slice_offset` selects this tensor's K-or-V
// slice of one layer inside the page.  page_tokens must be a power of
// two (the kernels resolve j with shift/mask, never a divide).  Unmapped
// table entries point at the pool's sentinel page; the masked-score /
// zero-weight contract guarantees live rows never read past what they
// mapped, so the indirection changes ADDRESSES only — the reduction
// order (and therefore every bit) is identical to the dense layout.
struct PagedKvView {
  float* pool = nullptr;           // pool storage base (page 0 = sentinel)
  const index_t* table = nullptr;  // [N, pages_per_row] page ids
  index_t page_floats = 0;         // floats per page
  index_t pages_per_row = 0;       // table entries per sample
  index_t page_tokens = 0;         // token rows per page (power of two)
  index_t slice_offset = 0;        // this K-or-V slice within a page
  bool valid() const { return pool != nullptr && table != nullptr; }
};

class MultiHeadAttention : public nn::Module {
 public:
  // proj_dim: total width of the Q/K/V projections (split across heads).
  // Must be divisible by n_heads (and by rank+1 for the proposed neuron).
  MultiHeadAttention(index_t d_model, index_t n_heads, index_t proj_dim,
                     const quadratic::NeuronSpec& spec, Rng& rng,
                     std::string name);

  // --- training API ------------------------------------------------------

  // q_input: [N·Tq, D]; kv_input: [N·Tk, D].  kv_lengths[i] = number of
  // valid (non-pad) key positions for sample i (Tk for all if empty).
  Tensor forward(const Tensor& q_input, const Tensor& kv_input, index_t n,
                 index_t tq, index_t tk, bool causal,
                 const std::vector<index_t>& kv_lengths);

  // Returns {grad_q_input, grad_kv_input}.  (Named distinctly from the
  // Module backward override, which differs only in return type.)
  std::pair<Tensor, Tensor> backward_qkv(const Tensor& grad_output);

  // --- Module API (self-attention on [N, T, D]) --------------------------

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input_shape) const override;
  bool supports_forward_into() const override;
  // Full-length self-attention on [N, T, D], entirely from `ws` (never
  // touches the training caches), so concurrent calls against one module
  // are safe.
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace& ws) override;

  void freeze() override;
  void unfreeze() override;

  // --- incremental (KV-cached) decoding API ------------------------------
  //
  // All three entry points are allocation-free (scratch from `ws` only),
  // never touch the training caches, and are bit-identical to the
  // corresponding rows of the teacher-forced forward().

  // Decoder self-attention for one new token per sample.  x: [N, D], the
  // step's activation.  k_cache/v_cache: paged views over the session's
  // KV page pool (capacity = ring step bound); row s's new K/V are
  // written at paged position row_steps[s] and its attention runs over
  // positions [0, row_steps[s]] — the causal mask is implicit in the
  // per-row cache length, and rows at different ring positions share one
  // batch step.  row_steps: N entries.  out: [N, D].
  void self_attend_step(const ConstTensorView& x, const TensorView& out,
                        const PagedKvView& k_cache,
                        const PagedKvView& v_cache, index_t capacity,
                        const index_t* row_steps, Workspace& ws);

  // Cross-attention bind: projects encoder output rows [N·Tk, D] into
  // k_cache/v_cache [N, Tk, P] once; every subsequent step reuses them.
  void project_kv(const ConstTensorView& enc_flat, index_t n, index_t tk,
                  const TensorView& k_cache, const TensorView& v_cache,
                  Workspace& ws);

  // Cross-attention for one new token per sample against K/V staged by
  // project_kv and committed into pool pages.  tk is the batch-wide
  // source capacity (max_src); kv_lengths masks padded source positions
  // per sample (empty = all tk valid; may hold more than N entries when
  // the session keeps full-width per-row state), exactly as the training
  // forward.  Scores span only the longest of the N rows' lengths (at
  // least 1), since keys past it are masked for every row.
  void cross_attend_step(const ConstTensorView& x, const TensorView& out,
                         const PagedKvView& k_cache,
                         const PagedKvView& v_cache, index_t tk,
                         const std::vector<index_t>& kv_lengths,
                         Workspace& ws);

  std::vector<nn::Parameter*> parameters() override;
  void set_training(bool training) override;
  std::string name() const override { return name_; }

  index_t proj_dim() const { return proj_dim_; }

 private:
  index_t d_model_, n_heads_, proj_dim_, head_dim_;
  std::string name_;
  nn::ModulePtr wq_, wk_, wv_, wo_;
  // Forward caches (training only; forward_into never touches them).
  index_t n_ = 0, tq_ = 0, tk_ = 0;
  Tensor q_, k_, v_;     // [N·T, P]
  Tensor attn_;          // [N, H, Tq, Tk] softmax weights
};

// ---------------------------------------------------------------------------
// Decode-step pipeline stages.
//
// A decoder layer flattens into per-sublayer stages (attention, residual
// add, LayerNorm, FFN) just like an encoder layer, but its attention
// sublayers carry per-session state — KV cache rings, the per-row step
// counters, the encoder K/V and source lengths.  These adapters make the attention
// steps expressible as ordinary [N, D] -> [N, D] PipelineStage modules: a
// non-owning view over the MultiHeadAttention plus cache bindings that a
// runtime::DecodeSession installs at bind/prime time.  One session may
// bind a decoder at a time (bind() rejects double-binding); the adapters
// own no parameters — freeze/parameters flow through the wrapped
// attention via DecoderLayer.
// ---------------------------------------------------------------------------

class SelfAttentionStep : public nn::Module {
 public:
  SelfAttentionStep(MultiHeadAttention& attn, std::string name);

  // k/v: paged views over the session's page pool (capacity = ring step
  // bound); `row_steps` points at the session's per-row step counters
  // (entry s = paged position written and attended for sample s this
  // call; the vector must hold at least N entries).
  void bind(const PagedKvView& k_cache, const PagedKvView& v_cache,
            index_t capacity, const std::vector<index_t>* row_steps);
  void unbind();
  bool bound() const { return row_steps_ != nullptr; }

  Tensor forward(const Tensor&) override;   // checked error (serving-only)
  Tensor backward(const Tensor&) override;  // checked error
  Shape output_shape(const Shape& input_shape) const override;
  bool supports_forward_into() const override;
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace& ws) override;
  std::string name() const override { return name_; }

 private:
  MultiHeadAttention* attn_;
  std::string name_;
  PagedKvView k_, v_;
  index_t capacity_ = 0;
  const std::vector<index_t>* row_steps_ = nullptr;
};

class CrossAttentionStep : public nn::Module {
 public:
  CrossAttentionStep(MultiHeadAttention& attn, std::string name);

  // k/v: paged views over the encoder-side K/V pages committed by the
  // session (tk = batch-wide source capacity); `kv_lengths` points at
  // the session's source-length vector (empty = all tk positions valid).
  void bind(const PagedKvView& k_cache, const PagedKvView& v_cache,
            index_t tk, const std::vector<index_t>* kv_lengths);
  void unbind();
  bool bound() const { return kv_lengths_ != nullptr; }

  Tensor forward(const Tensor&) override;   // checked error (serving-only)
  Tensor backward(const Tensor&) override;  // checked error
  Shape output_shape(const Shape& input_shape) const override;
  bool supports_forward_into() const override;
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace& ws) override;
  std::string name() const override { return name_; }

 private:
  MultiHeadAttention* attn_;
  std::string name_;
  PagedKvView k_, v_;
  index_t tk_ = 0;
  const std::vector<index_t>* kv_lengths_ = nullptr;
};

}  // namespace qdnn::models
