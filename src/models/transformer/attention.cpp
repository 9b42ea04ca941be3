#include "models/transformer/attention.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "linalg/gemm.h"
#include "nn/softmax.h"

namespace qdnn::models {

namespace {

// Key/value address resolvers for the shared attention kernel: both
// expose `row(s, j)` — the base of sample s's key (or value) row at
// token position j.  DenseKvAddr strides a contiguous [N·stride, P]
// buffer (the training forward, the serving encoder, the staging
// buffers); PagedKvAddr chases the per-row page table of a
// runtime::KvPagePool (the decode-step KV caches).  The kernel body is
// identical either way, so the addressing scheme can never change the
// reduction order — dense and paged attention are bit-identical.
struct DenseKvAddr {
  const float* base;
  index_t stride;  // rows per sample
  index_t proj;
  const float* row(index_t s, index_t j) const {
    return base + (s * stride + j) * proj;
  }
};

struct PagedKvAddr {
  const float* pool;
  const index_t* table;
  index_t page_floats;
  index_t pages_per_row;
  index_t shift;  // log2(page_tokens)
  index_t mask;   // page_tokens - 1
  index_t slice_offset;
  index_t proj;
  const float* row(index_t s, index_t j) const {
    const index_t page = table[s * pages_per_row + (j >> shift)];
    return pool + page * page_floats + slice_offset + (j & mask) * proj;
  }
};

// Builds the resolver from a view, validating the paged geometry: the
// deepest attended position (tk - 1) must land inside the table, and
// page_tokens must be a power of two (shift/mask addressing).
PagedKvAddr make_paged_addr(const PagedKvView& view, index_t tk,
                            index_t proj, const char* who) {
  QDNN_CHECK(view.valid(), who << ": paged KV view not bound");
  QDNN_CHECK(view.page_tokens >= 1 &&
                 (view.page_tokens & (view.page_tokens - 1)) == 0,
             who << ": page_tokens " << view.page_tokens
                 << " is not a power of two");
  index_t shift = 0;
  while ((static_cast<index_t>(1) << shift) < view.page_tokens) ++shift;
  QDNN_CHECK(((tk - 1) >> shift) < view.pages_per_row,
             who << ": " << tk << " attended positions exceed "
                 << view.pages_per_row << " pages of " << view.page_tokens
                 << " tokens");
  return PagedKvAddr{view.pool,          view.table,
                     view.page_floats,   view.pages_per_row,
                     shift,              view.page_tokens - 1,
                     view.slice_offset,  proj};
}

// Scores → masked softmax → context, shared by the training forward(),
// the serving forward_into() and the KV-cached step kernels — one
// definition so the paths cannot drift.  q [N·Tq, P]; k_src/v_src
// resolve each sample's first Tk key/value rows (see the resolvers
// above); writes softmax weights into `attn` [N, H, Tq, Tk] and
// accumulates the per-head context into `context` [N·Tq, P], which must
// be zeroed by the caller.  `kv_lengths` is a per-sample key-count array
// (or null: all Tk keys valid); `kv_len_bias` is added to every entry —
// the self-attention step passes its per-row ring positions with bias 1.
// Masked tails score -1e30, which softmax maps to exact 0.0f weights, so
// a row with valid_k < Tk is bit-identical to the same row run at
// Tk = valid_k — the property continuous batching (and paged storage:
// positions past valid_k are never dereferenced) rests on.
template <class KvAddr>
void attention_forward_impl(const float* q, const KvAddr& k_src,
                            const KvAddr& v_src, index_t n, index_t n_heads,
                            index_t tq, index_t tk, index_t proj_dim,
                            index_t head_dim, bool causal,
                            const index_t* kv_lengths, index_t kv_len_bias,
                            float* attn, float* context) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  for (index_t s = 0; s < n; ++s) {
    const index_t valid_k =
        kv_lengths != nullptr ? kv_lengths[s] + kv_len_bias : tk;
    for (index_t h = 0; h < n_heads; ++h) {
      float* scores = attn + ((s * n_heads + h) * tq) * tk;
      // scores[i, j] = (q_i · k_j) * scale over this head's slice.
      for (index_t i = 0; i < tq; ++i) {
        const float* q_row =
            q + (s * tq + i) * proj_dim + h * head_dim;
        float* score_row = scores + i * tk;
        const index_t limit = causal ? std::min(i + 1, valid_k) : valid_k;
        for (index_t j = 0; j < tk; ++j) {
          if (j < limit) {
            const float* k_row = k_src.row(s, j) + h * head_dim;
            score_row[j] = scale * linalg::dot(q_row, k_row, head_dim);
          } else {
            score_row[j] = -1e30f;  // masked: pad or future position
          }
        }
      }
      nn::softmax_rows(scores, tq, tk);
      // context = attn · V
      for (index_t i = 0; i < tq; ++i) {
        float* ctx_row =
            context + (s * tq + i) * proj_dim + h * head_dim;
        const float* score_row = scores + i * tk;
        for (index_t j = 0; j < tk; ++j) {
          const float a = score_row[j];
          if (a == 0.0f) continue;
          const float* v_row = v_src.row(s, j) + h * head_dim;
          linalg::axpy(head_dim, a, v_row, ctx_row);
        }
      }
    }
  }
}

// Dense entry point (training forward, serving encoder): k/v hold
// `kv_stride` rows per sample of which the first Tk are attended.
void attention_forward(const float* q, const float* k, const float* v,
                       index_t n, index_t n_heads, index_t tq, index_t tk,
                       index_t kv_stride, index_t proj_dim,
                       index_t head_dim, bool causal,
                       const index_t* kv_lengths, index_t kv_len_bias,
                       float* attn, float* context) {
  attention_forward_impl(q, DenseKvAddr{k, kv_stride, proj_dim},
                         DenseKvAddr{v, kv_stride, proj_dim}, n, n_heads,
                         tq, tk, proj_dim, head_dim, causal, kv_lengths,
                         kv_len_bias, attn, context);
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(index_t d_model, index_t n_heads,
                                       index_t proj_dim,
                                       const quadratic::NeuronSpec& spec,
                                       Rng& rng, std::string name)
    : d_model_(d_model),
      n_heads_(n_heads),
      proj_dim_(proj_dim),
      head_dim_(proj_dim / n_heads),
      name_(std::move(name)) {
  QDNN_CHECK(proj_dim % n_heads == 0,
             name_ << ": proj_dim " << proj_dim << " not divisible by "
                   << n_heads << " heads");
  wq_ = quadratic::make_dense_neuron(spec, d_model, proj_dim, rng,
                                     name_ + ".wq");
  wk_ = quadratic::make_dense_neuron(spec, d_model, proj_dim, rng,
                                     name_ + ".wk");
  wv_ = quadratic::make_dense_neuron(spec, d_model, proj_dim, rng,
                                     name_ + ".wv");
  wo_ = quadratic::make_dense_neuron(spec, proj_dim, d_model, rng,
                                     name_ + ".wo");
}

Tensor MultiHeadAttention::forward(const Tensor& q_input,
                                   const Tensor& kv_input, index_t n,
                                   index_t tq, index_t tk, bool causal,
                                   const std::vector<index_t>& kv_lengths) {
  QDNN_CHECK_EQ(q_input.dim(0), n * tq, name_ << ": q rows");
  QDNN_CHECK_EQ(kv_input.dim(0), n * tk, name_ << ": kv rows");
  QDNN_CHECK(kv_lengths.empty() ||
                 static_cast<index_t>(kv_lengths.size()) == n,
             name_ << ": kv_lengths size");
  n_ = n;
  tq_ = tq;
  tk_ = tk;

  q_ = wq_->forward(q_input);
  k_ = wk_->forward(kv_input);
  v_ = wv_->forward(kv_input);

  attn_ = Tensor{Shape{n, n_heads_, tq, tk}};
  Tensor context{Shape{n * tq, proj_dim_}};
  attention_forward(q_.data(), k_.data(), v_.data(), n, n_heads_, tq, tk,
                    /*kv_stride=*/tk, proj_dim_, head_dim_, causal,
                    kv_lengths.empty() ? nullptr : kv_lengths.data(),
                    /*kv_len_bias=*/0, attn_.data(), context.data());
  // Keep the context for wo_'s backward via its own cache.
  return wo_->forward(context);
}

std::pair<Tensor, Tensor> MultiHeadAttention::backward_qkv(
    const Tensor& grad_output) {
  QDNN_CHECK(n_ > 0, name_ << ": backward before forward");
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  Tensor g_context = wo_->backward(grad_output);  // [N·Tq, P]
  Tensor g_q{Shape{n_ * tq_, proj_dim_}};
  Tensor g_k{Shape{n_ * tk_, proj_dim_}};
  Tensor g_v{Shape{n_ * tk_, proj_dim_}};

  std::vector<float> g_scores(static_cast<std::size_t>(tq_ * tk_));
  for (index_t s = 0; s < n_; ++s) {
    for (index_t h = 0; h < n_heads_; ++h) {
      const float* attn = attn_.data() + ((s * n_heads_ + h) * tq_) * tk_;
      // dL/d(attn[i,j]) = g_ctx_i · v_j ; dL/dv_j += attn[i,j] g_ctx_i
      for (index_t i = 0; i < tq_; ++i) {
        const float* gc_row =
            g_context.data() + (s * tq_ + i) * proj_dim_ + h * head_dim_;
        const float* attn_row = attn + i * tk_;
        float* gs_row = g_scores.data() + i * tk_;
        for (index_t j = 0; j < tk_; ++j) {
          const float* v_row =
              v_.data() + (s * tk_ + j) * proj_dim_ + h * head_dim_;
          gs_row[j] = linalg::dot(gc_row, v_row, head_dim_);
          if (attn_row[j] != 0.0f) {
            float* gv_row =
                g_v.data() + (s * tk_ + j) * proj_dim_ + h * head_dim_;
            linalg::axpy(head_dim_, attn_row[j], gc_row, gv_row);
          }
        }
      }
      // Back through softmax (masked entries have attn = 0, so they
      // receive zero gradient automatically).
      nn::softmax_backward_rows(attn, g_scores.data(), tq_, tk_);
      // dq_i += scale * Σ_j gs[i,j] k_j ; dk_j += scale * Σ_i gs[i,j] q_i
      for (index_t i = 0; i < tq_; ++i) {
        float* gq_row =
            g_q.data() + (s * tq_ + i) * proj_dim_ + h * head_dim_;
        const float* q_row =
            q_.data() + (s * tq_ + i) * proj_dim_ + h * head_dim_;
        const float* gs_row = g_scores.data() + i * tk_;
        for (index_t j = 0; j < tk_; ++j) {
          const float g = gs_row[j] * scale;
          if (g == 0.0f) continue;
          const float* k_row =
              k_.data() + (s * tk_ + j) * proj_dim_ + h * head_dim_;
          linalg::axpy(head_dim_, g, k_row, gq_row);
          float* gk_row =
              g_k.data() + (s * tk_ + j) * proj_dim_ + h * head_dim_;
          linalg::axpy(head_dim_, g, q_row, gk_row);
        }
      }
    }
  }

  Tensor grad_q_input = wq_->backward(g_q);
  Tensor grad_kv_input = wk_->backward(g_k);
  grad_kv_input += wv_->backward(g_v);
  return {std::move(grad_q_input), std::move(grad_kv_input)};
}

// ---------------------------------------------------------------------------
// Module API: full-length non-causal self-attention on [N, T, D].
// ---------------------------------------------------------------------------

Tensor MultiHeadAttention::forward(const Tensor& x) {
  QDNN_CHECK(x.rank() == 3 && x.dim(2) == d_model_,
             name_ << ": expected [N, T, " << d_model_ << "]");
  const index_t n = x.dim(0), t = x.dim(1);
  const Tensor flat = x.reshaped(Shape{n * t, d_model_});
  return forward(flat, flat, n, t, t, /*causal=*/false, {})
      .reshaped(Shape{n, t, d_model_});
}

Tensor MultiHeadAttention::backward(const Tensor& grad_output) {
  QDNN_CHECK(grad_output.rank() == 3, name_ << ": expected [N, T, D] grad");
  const index_t n = grad_output.dim(0), t = grad_output.dim(1);
  auto [g_q, g_kv] =
      backward_qkv(grad_output.reshaped(Shape{n * t, d_model_}));
  g_q += g_kv;  // q and kv came from the same input
  return g_q.reshaped(Shape{n, t, d_model_});
}

Shape MultiHeadAttention::output_shape(const Shape& input_shape) const {
  QDNN_CHECK(input_shape.rank() == 3 && input_shape[2] == d_model_,
             name_ << ": expected [N, T, " << d_model_ << "]");
  return input_shape;
}

bool MultiHeadAttention::supports_forward_into() const {
  return wq_->supports_forward_into() && wk_->supports_forward_into() &&
         wv_->supports_forward_into() && wo_->supports_forward_into();
}

void MultiHeadAttention::forward_into(const ConstTensorView& input,
                                      const TensorView& output,
                                      Workspace& ws) {
  QDNN_CHECK(input.rank() == 3 && input.dim(2) == d_model_,
             name_ << ": expected [N, T, " << d_model_ << "]");
  QDNN_CHECK(output.shape() == input.shape(),
             name_ << ": bad output view " << output.shape());
  const index_t n = input.dim(0), t = input.dim(1);
  const index_t nt = n * t;

  // Projections, scores and context all live in the workspace; the
  // training caches (q_, k_, v_, attn_) are never touched, so concurrent
  // shard calls are safe.
  const ConstTensorView flat_in(Shape{nt, d_model_}, input.data());
  float* q = ws.alloc(nt * proj_dim_);
  float* k = ws.alloc(nt * proj_dim_);
  float* v = ws.alloc(nt * proj_dim_);
  wq_->forward_into(flat_in, TensorView(Shape{nt, proj_dim_}, q), ws);
  wk_->forward_into(flat_in, TensorView(Shape{nt, proj_dim_}, k), ws);
  wv_->forward_into(flat_in, TensorView(Shape{nt, proj_dim_}, v), ws);

  float* attn = ws.alloc(n * n_heads_ * t * t);
  float* context = ws.alloc(nt * proj_dim_);
  for (index_t i = 0; i < nt * proj_dim_; ++i) context[i] = 0.0f;
  attention_forward(q, k, v, n, n_heads_, t, t, /*kv_stride=*/t, proj_dim_,
                    head_dim_, /*causal=*/false, /*kv_lengths=*/nullptr,
                    /*kv_len_bias=*/0, attn, context);

  wo_->forward_into(ConstTensorView(Shape{nt, proj_dim_}, context),
                    TensorView(Shape{nt, d_model_}, output.data()), ws);
}

// ---------------------------------------------------------------------------
// Incremental (KV-cached) decoding API.
// ---------------------------------------------------------------------------

void MultiHeadAttention::self_attend_step(const ConstTensorView& x,
                                          const TensorView& out,
                                          const PagedKvView& k_cache,
                                          const PagedKvView& v_cache,
                                          index_t capacity,
                                          const index_t* row_steps,
                                          Workspace& ws) {
  QDNN_CHECK(x.rank() == 2 && x.dim(1) == d_model_,
             name_ << ": step input must be [N, " << d_model_ << "]");
  const index_t n = x.dim(0);
  QDNN_CHECK(row_steps != nullptr, name_ << ": null row_steps");
  index_t max_step = 0;
  for (index_t s = 0; s < n; ++s) {
    QDNN_CHECK(row_steps[s] >= 0 && row_steps[s] < capacity,
               name_ << ": row " << s << " step " << row_steps[s]
                     << " outside cache capacity " << capacity);
    max_step = std::max(max_step, row_steps[s]);
  }
  QDNN_CHECK(out.rank() == 2 && out.dim(0) == n && out.dim(1) == d_model_,
             name_ << ": bad step output view " << out.shape());
  const index_t tk = max_step + 1;
  const PagedKvAddr k_addr = make_paged_addr(k_cache, tk, proj_dim_, "self");
  const PagedKvAddr v_addr = make_paged_addr(v_cache, tk, proj_dim_, "self");

  // Project the new tokens in one batch gemm; scatter each row's K/V at
  // its own paged ring position (parked rows' table entries point at the
  // pool's sentinel page, so their writes are harmless).
  float* q = ws.alloc(n * proj_dim_);
  float* k_new = ws.alloc(n * proj_dim_);
  float* v_new = ws.alloc(n * proj_dim_);
  wq_->forward_into(x, TensorView(Shape{n, proj_dim_}, q), ws);
  wk_->forward_into(x, TensorView(Shape{n, proj_dim_}, k_new), ws);
  wv_->forward_into(x, TensorView(Shape{n, proj_dim_}, v_new), ws);
  for (index_t s = 0; s < n; ++s) {
    float* k_dst = const_cast<float*>(k_addr.row(s, row_steps[s]));
    float* v_dst = const_cast<float*>(v_addr.row(s, row_steps[s]));
    std::memcpy(k_dst, k_new + s * proj_dim_,
                static_cast<std::size_t>(proj_dim_) * sizeof(float));
    std::memcpy(v_dst, v_new + s * proj_dim_,
                static_cast<std::size_t>(proj_dim_) * sizeof(float));
  }

  // Row s attends over its cached prefix [0, row_steps[s]] — exactly the
  // last row of a causal full-prefix pass over that row alone.  Rows
  // behind the batch-deepest position mask the tail (exact-zero softmax
  // weights, positions past it never dereferenced), so mixed ring
  // positions share one kernel call.
  float* attn = ws.alloc(n * n_heads_ * tk);
  float* context = ws.alloc(n * proj_dim_);
  for (index_t i = 0; i < n * proj_dim_; ++i) context[i] = 0.0f;
  attention_forward_impl(q, k_addr, v_addr, n, n_heads_,
                         /*tq=*/1, tk, proj_dim_, head_dim_,
                         /*causal=*/false, row_steps,
                         /*kv_len_bias=*/1, attn, context);

  wo_->forward_into(ConstTensorView(Shape{n, proj_dim_}, context),
                    TensorView(Shape{n, d_model_}, out.data()), ws);
}

void MultiHeadAttention::project_kv(const ConstTensorView& enc_flat,
                                    index_t n, index_t tk,
                                    const TensorView& k_cache,
                                    const TensorView& v_cache,
                                    Workspace& ws) {
  QDNN_CHECK(enc_flat.rank() == 2 && enc_flat.dim(0) == n * tk &&
                 enc_flat.dim(1) == d_model_,
             name_ << ": encoder rows must be [N·Tk, " << d_model_
                   << "], got " << enc_flat.shape());
  const Shape cache_shape{n, tk, proj_dim_};
  QDNN_CHECK(k_cache.shape() == cache_shape &&
                 v_cache.shape() == cache_shape,
             name_ << ": KV cache must be " << cache_shape << ", got "
                   << k_cache.shape() << " / " << v_cache.shape());
  // [N, Tk, P] is contiguous [N·Tk, P]: project straight into the cache.
  wk_->forward_into(enc_flat,
                    TensorView(Shape{n * tk, proj_dim_}, k_cache.data()),
                    ws);
  wv_->forward_into(enc_flat,
                    TensorView(Shape{n * tk, proj_dim_}, v_cache.data()),
                    ws);
}

void MultiHeadAttention::cross_attend_step(
    const ConstTensorView& x, const TensorView& out,
    const PagedKvView& k_cache, const PagedKvView& v_cache, index_t tk,
    const std::vector<index_t>& kv_lengths, Workspace& ws) {
  QDNN_CHECK(x.rank() == 2 && x.dim(1) == d_model_,
             name_ << ": step input must be [N, " << d_model_ << "]");
  const index_t n = x.dim(0);
  QDNN_CHECK(tk >= 1, name_ << ": cross capacity must be >= 1, got " << tk);
  // At least one length per sample: a session bound below its max_batch
  // width keeps the full-width per-row state (tail entries unused).
  QDNN_CHECK(kv_lengths.empty() ||
                 static_cast<index_t>(kv_lengths.size()) >= n,
             name_ << ": " << kv_lengths.size()
                   << " kv_lengths for batch " << n);
  QDNN_CHECK(out.rank() == 2 && out.dim(0) == n && out.dim(1) == d_model_,
             name_ << ": bad step output view " << out.shape());
  // Span only the keys some stepped row attends.  Every dropped key is
  // masked for every row (-1e30 → an exact 0.0f weight that adds nothing
  // to the sequential softmax sum and is skipped by the context loop), so
  // the narrower span changes no bit.
  if (!kv_lengths.empty()) {
    index_t span = 1;
    for (index_t s = 0; s < n; ++s)
      span = std::max(span, kv_lengths[static_cast<std::size_t>(s)]);
    tk = std::min(tk, span);
  }
  const PagedKvAddr k_addr = make_paged_addr(k_cache, tk, proj_dim_,
                                             "cross");
  const PagedKvAddr v_addr = make_paged_addr(v_cache, tk, proj_dim_,
                                             "cross");

  float* q = ws.alloc(n * proj_dim_);
  wq_->forward_into(x, TensorView(Shape{n, proj_dim_}, q), ws);

  float* attn = ws.alloc(n * n_heads_ * tk);
  float* context = ws.alloc(n * proj_dim_);
  for (index_t i = 0; i < n * proj_dim_; ++i) context[i] = 0.0f;
  attention_forward_impl(q, k_addr, v_addr, n, n_heads_,
                         /*tq=*/1, tk, proj_dim_, head_dim_,
                         /*causal=*/false,
                         kv_lengths.empty() ? nullptr : kv_lengths.data(),
                         /*kv_len_bias=*/0, attn, context);

  wo_->forward_into(ConstTensorView(Shape{n, proj_dim_}, context),
                    TensorView(Shape{n, d_model_}, out.data()), ws);
}

void MultiHeadAttention::freeze() {
  wq_->freeze();
  wk_->freeze();
  wv_->freeze();
  wo_->freeze();
  // Stale training caches have no business under a serving process.
  q_ = Tensor{};
  k_ = Tensor{};
  v_ = Tensor{};
  attn_ = Tensor{};
  n_ = tq_ = tk_ = 0;
  Module::freeze();
}

void MultiHeadAttention::unfreeze() {
  wq_->unfreeze();
  wk_->unfreeze();
  wv_->unfreeze();
  wo_->unfreeze();
  Module::unfreeze();
}

std::vector<nn::Parameter*> MultiHeadAttention::parameters() {
  std::vector<nn::Parameter*> params;
  for (nn::Module* m : {wq_.get(), wk_.get(), wv_.get(), wo_.get()})
    for (nn::Parameter* p : m->parameters()) params.push_back(p);
  return params;
}

void MultiHeadAttention::set_training(bool training) {
  nn::Module::set_training(training);
  wq_->set_training(training);
  wk_->set_training(training);
  wv_->set_training(training);
  wo_->set_training(training);
}

// ---------------------------------------------------------------------------
// SelfAttentionStep
// ---------------------------------------------------------------------------

SelfAttentionStep::SelfAttentionStep(MultiHeadAttention& attn,
                                     std::string name)
    : attn_(&attn), name_(std::move(name)) {}

void SelfAttentionStep::bind(const PagedKvView& k_cache,
                             const PagedKvView& v_cache, index_t capacity,
                             const std::vector<index_t>* row_steps) {
  QDNN_CHECK(row_steps != nullptr, name_ << ": null row_steps counters");
  QDNN_CHECK(k_cache.valid() && v_cache.valid(),
             name_ << ": invalid paged KV view");
  QDNN_CHECK(capacity >= 1,
             name_ << ": capacity must be >= 1, got " << capacity);
  QDNN_CHECK(row_steps_ == nullptr || row_steps_ == row_steps,
             name_ << ": decoder already bound by another DecodeSession — "
                      "destroy it before binding a new one");
  k_ = k_cache;
  v_ = v_cache;
  capacity_ = capacity;
  row_steps_ = row_steps;
}

void SelfAttentionStep::unbind() {
  k_ = PagedKvView{};
  v_ = PagedKvView{};
  capacity_ = 0;
  row_steps_ = nullptr;
}

Tensor SelfAttentionStep::forward(const Tensor&) {
  QDNN_CHECK(false, name_ << ": serving-only stage — train through "
                             "DecoderLayer::forward");
  return {};
}

Tensor SelfAttentionStep::backward(const Tensor&) {
  QDNN_CHECK(false, name_ << ": serving-only stage has no backward");
  return {};
}

Shape SelfAttentionStep::output_shape(const Shape& input_shape) const {
  QDNN_CHECK(input_shape.rank() == 2,
             name_ << ": expected [N, D] step input");
  return input_shape;
}

bool SelfAttentionStep::supports_forward_into() const {
  return attn_->supports_forward_into();
}

void SelfAttentionStep::forward_into(const ConstTensorView& input,
                                     const TensorView& output,
                                     Workspace& ws) {
  QDNN_CHECK(bound(), name_ << ": KV cache not bound (prime a "
                               "DecodeSession first)");
  QDNN_CHECK(static_cast<index_t>(row_steps_->size()) >= input.dim(0),
             name_ << ": " << row_steps_->size()
                   << " row step counters for batch " << input.dim(0));
  attn_->self_attend_step(input, output, k_, v_, capacity_,
                          row_steps_->data(), ws);
}

// ---------------------------------------------------------------------------
// CrossAttentionStep
// ---------------------------------------------------------------------------

CrossAttentionStep::CrossAttentionStep(MultiHeadAttention& attn,
                                       std::string name)
    : attn_(&attn), name_(std::move(name)) {}

void CrossAttentionStep::bind(const PagedKvView& k_cache,
                              const PagedKvView& v_cache, index_t tk,
                              const std::vector<index_t>* kv_lengths) {
  QDNN_CHECK(kv_lengths != nullptr, name_ << ": null kv_lengths");
  QDNN_CHECK(k_cache.valid() && v_cache.valid(),
             name_ << ": invalid paged KV view");
  QDNN_CHECK(tk >= 1, name_ << ": tk must be >= 1, got " << tk);
  QDNN_CHECK(kv_lengths_ == nullptr || kv_lengths_ == kv_lengths,
             name_ << ": decoder already bound by another DecodeSession — "
                      "destroy it before binding a new one");
  k_ = k_cache;
  v_ = v_cache;
  tk_ = tk;
  kv_lengths_ = kv_lengths;
}

void CrossAttentionStep::unbind() {
  k_ = PagedKvView{};
  v_ = PagedKvView{};
  tk_ = 0;
  kv_lengths_ = nullptr;
}

Tensor CrossAttentionStep::forward(const Tensor&) {
  QDNN_CHECK(false, name_ << ": serving-only stage — train through "
                             "DecoderLayer::forward");
  return {};
}

Tensor CrossAttentionStep::backward(const Tensor&) {
  QDNN_CHECK(false, name_ << ": serving-only stage has no backward");
  return {};
}

Shape CrossAttentionStep::output_shape(const Shape& input_shape) const {
  QDNN_CHECK(input_shape.rank() == 2,
             name_ << ": expected [N, D] step input");
  return input_shape;
}

bool CrossAttentionStep::supports_forward_into() const {
  return attn_->supports_forward_into();
}

void CrossAttentionStep::forward_into(const ConstTensorView& input,
                                      const TensorView& output,
                                      Workspace& ws) {
  QDNN_CHECK(bound(), name_ << ": encoder K/V not bound (prime a "
                               "DecodeSession first)");
  attn_->cross_attend_step(input, output, k_, v_, tk_, *kv_lengths_, ws);
}

}  // namespace qdnn::models
