#include "quadratic/quad_dense.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/gemm.h"
#include "nn/linear.h"
#include "quadratic/kervolution.h"

namespace qdnn::quadratic {

namespace {

// c [n, cols] = x · Bᵀ for a layer's fused weight operand B [cols, in]:
// from the pack freeze() made, else fused into the workspace by `fuse`
// and transposed per call.  The one gemm of the proposed and low-rank
// layers' forward paths.
template <typename Fuse>
void fused_gemm(const linalg::PackedWeights& packed, const Fuse& fuse,
                const float* x, index_t n, index_t in, index_t cols,
                float* c, Workspace& ws) {
  if (packed.packed()) {
    linalg::gemm_prepacked(false, n, cols, in, 1.0f, x, in, packed, 0.0f,
                           c, cols);
    return;
  }
  float* b = ws.alloc(cols * in);
  fuse(b);
  linalg::gemm(false, true, n, cols, in, 1.0f, x, in, b, in, 0.0f, c, cols,
               ws.alloc(linalg::gemm_scratch_floats(false, true, n, cols,
                                                    in)));
}

}  // namespace

// ---------------------------------------------------------------------------
// ProposedQuadraticDense
// ---------------------------------------------------------------------------

ProposedQuadraticDense::ProposedQuadraticDense(index_t in_features,
                                               index_t units, index_t rank,
                                               Rng& rng,
                                               float lambda_lr_scale,
                                               std::string name,
                                               bool emit_features)
    : in_(in_features),
      units_(units),
      rank_(rank),
      emit_features_(emit_features),
      name_(std::move(name)),
      w_(name_ + ".w", Tensor{Shape{units, in_features}}),
      q_(name_ + ".q", Tensor{Shape{units * rank, in_features}}),
      lambda_(name_ + ".lambda", Tensor{Shape{units, rank}}),
      b_(name_ + ".b", Tensor{Shape{units}}) {
  QDNN_CHECK(in_features > 0 && units > 0 && rank > 0,
             name_ << ": dims must be positive");
  // w and each row of Qᵏ act as independent linear neurons of fan-in n
  // (Sec. III-B), so both get He initialization.
  nn::kaiming_normal(w_.value, in_, rng);
  nn::kaiming_normal(q_.value, in_, rng);
  nn::lambda_init(lambda_.value, rng);
  q_.group = "quadratic_q";
  lambda_.group = "quadratic_lambda";
  lambda_.lr_scale = lambda_lr_scale;
  lambda_.decay = false;
  b_.decay = false;
}

void ProposedQuadraticDense::fuse_weights(float* fused) const {
  for (index_t u = 0; u < units_; ++u) {
    float* dst = fused + u * (rank_ + 1) * in_;
    std::copy_n(w_.value.data() + u * in_, in_, dst);
    std::copy_n(q_.value.data() + u * rank_ * in_, rank_ * in_, dst + in_);
  }
}

void ProposedQuadraticDense::finish(const float* proj, index_t n,
                                    float* out) const {
  const index_t per = rank_ + 1;
  const index_t ch = emit_features_ ? per : 1;
  for (index_t s = 0; s < n; ++s)
    for (index_t u = 0; u < units_; ++u) {
      const float* p_u = proj + (s * units_ + u) * per;
      const float* lam = lambda_.value.data() + u * rank_;
      float y2 = 0.0f;
      for (index_t i = 0; i < rank_; ++i)
        y2 += lam[i] * p_u[1 + i] * p_u[1 + i];
      out[(s * units_ + u) * ch] = p_u[0] + b_.value[u] + y2;
    }
}

Tensor ProposedQuadraticDense::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_, name_ << ": in_features");
  cached_input_ = input;
  const index_t n = input.dim(0);
  const index_t cols = units_ * (rank_ + 1);

  // Training reads the live weights, never a freeze-time pack.
  cached_f_ = Tensor{Shape{n, cols}};
  Workspace ws;
  fused_gemm(linalg::PackedWeights{}, [this](float* b) { fuse_weights(b); },
             input.data(), n, in_, cols, cached_f_.data(), ws);
  Tensor out = emit_features_ ? cached_f_ : Tensor{Shape{n, units_}};
  finish(cached_f_.data(), n, out.data());
  return out;
}

Shape ProposedQuadraticDense::output_shape(const Shape& input_shape) const {
  QDNN_CHECK_EQ(input_shape.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input_shape[1], in_, name_ << ": in_features");
  return Shape{input_shape[0], out_features()};
}

void ProposedQuadraticDense::forward_into(const ConstTensorView& input,
                                          const TensorView& output, Workspace& ws) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_, name_ << ": in_features");
  const index_t n = input.dim(0);
  const index_t cols = units_ * (rank_ + 1);
  QDNN_CHECK(output.rank() == 2 && output.dim(0) == n &&
                 output.dim(1) == out_features(),
             name_ << ": bad output view " << output.shape());

  // With features emitted the gemm rows are the output's interleave.
  float* proj = emit_features_ ? output.data() : ws.alloc(n * cols);
  fused_gemm(packed_, [this](float* b) { fuse_weights(b); }, input.data(),
             n, in_, cols, proj, ws);
  finish(proj, n, output.data());
}

void ProposedQuadraticDense::freeze() {
  const index_t cols = units_ * (rank_ + 1);
  std::vector<float> fused(static_cast<std::size_t>(cols * in_));
  fuse_weights(fused.data());
  packed_.pack(/*trans=*/true, in_, cols, fused.data(), in_);
  cached_input_ = Tensor{};
  cached_f_ = Tensor{};
  Module::freeze();
}

void ProposedQuadraticDense::unfreeze() {
  packed_.clear();
  Module::unfreeze();
}

Tensor ProposedQuadraticDense::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  const index_t n = cached_input_.dim(0);
  const index_t uk = units_ * rank_;
  QDNN_CHECK(grad_output.shape() == Shape({n, out_features()}),
             name_ << ": grad shape " << grad_output.shape());

  // Split the incoming gradient into the y-channel part g_y [N, units] and
  // the f-channel part; fold the quadratic chain rule into g_f:
  //   dL/df_i = g_f_i + 2 λ_i f_i g_y      (y = … + Σ λ_i f_i²)
  Tensor g_y{Shape{n, units_}};
  Tensor g_f{Shape{n, uk}};
  const index_t per = rank_ + 1;
  const index_t ch = emit_features_ ? per : 1;
  for (index_t s = 0; s < n; ++s) {
    const float* g_row = grad_output.data() + s * out_features();
    const float* f_row = cached_f_.data() + s * units_ * per;
    for (index_t u = 0; u < units_; ++u) {
      const float* g_u = g_row + u * ch;
      const float gy = g_u[0];
      g_y.at(s, u) = gy;
      b_.grad[u] += gy;
      const float* f_u = f_row + u * per + 1;
      const float* lam = lambda_.value.data() + u * rank_;
      float* lam_g = lambda_.grad.data() + u * rank_;
      float* gf_u = g_f.data() + s * uk + u * rank_;
      for (index_t i = 0; i < rank_; ++i) {
        lam_g[i] += gy * f_u[i] * f_u[i];
        // In sum-only mode fᵏ has no emitted channel of its own.
        const float g_direct = emit_features_ ? g_u[1 + i] : 0.0f;
        gf_u[i] = g_direct + 2.0f * lam[i] * f_u[i] * gy;
      }
    }
  }

  // Parameter gradients via GEMM: dW += g_yᵀ x, dQ += g_fᵀ x.
  linalg::gemm(true, false, units_, in_, n, 1.0f, g_y.data(), units_,
               cached_input_.data(), in_, 1.0f, w_.grad.data(), in_);
  linalg::gemm(true, false, uk, in_, n, 1.0f, g_f.data(), uk,
               cached_input_.data(), in_, 1.0f, q_.grad.data(), in_);

  // Input gradient: dx = g_y W + g_f Q.
  Tensor grad_input{Shape{n, in_}};
  linalg::gemm(false, false, n, in_, units_, 1.0f, g_y.data(), units_,
               w_.value.data(), in_, 0.0f, grad_input.data(), in_);
  linalg::gemm(false, false, n, in_, uk, 1.0f, g_f.data(), uk,
               q_.value.data(), in_, 1.0f, grad_input.data(), in_);
  return grad_input;
}

std::vector<nn::Parameter*> ProposedQuadraticDense::parameters() {
  return {&w_, &q_, &lambda_, &b_};
}

// ---------------------------------------------------------------------------
// GeneralQuadraticDense
// ---------------------------------------------------------------------------

GeneralQuadraticDense::GeneralQuadraticDense(index_t in_features,
                                             index_t units, Rng& rng,
                                             bool include_linear,
                                             std::string name)
    : in_(in_features),
      units_(units),
      include_linear_(include_linear),
      name_(std::move(name)),
      m_(name_ + ".m", Tensor{Shape{units, in_features, in_features}}),
      w_(name_ + ".w",
         include_linear ? Tensor{Shape{units, in_features}} : Tensor{}),
      b_(name_ + ".b", include_linear ? Tensor{Shape{units}} : Tensor{}) {
  QDNN_CHECK(in_features > 0 && units > 0, name_ << ": dims positive");
  // The quadratic form scales like ‖x‖²·‖M‖, so M starts at 1/n scale.
  rng.fill_normal(m_.value, 0.0f, 1.0f / static_cast<float>(in_));
  m_.group = "quadratic_q";
  if (include_linear_) {
    nn::kaiming_normal(w_.value, in_, rng);
    b_.decay = false;
  }
}

Tensor GeneralQuadraticDense::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_, name_ << ": in_features");
  cached_input_ = input;
  const index_t n = input.dim(0);
  Tensor out{Shape{n, units_}};
  std::vector<float> mx(static_cast<std::size_t>(in_));
  for (index_t s = 0; s < n; ++s) {
    const float* x = input.data() + s * in_;
    for (index_t u = 0; u < units_; ++u) {
      const float* m_u = m_.value.data() + u * in_ * in_;
      linalg::gemv(false, in_, in_, 1.0f, m_u, in_, x, 0.0f, mx.data());
      float y = linalg::dot(x, mx.data(), in_);
      if (include_linear_)
        y += linalg::dot(w_.value.data() + u * in_, x, in_) + b_.value[u];
      out.at(s, u) = y;
    }
  }
  return out;
}

Shape GeneralQuadraticDense::output_shape(const Shape& input_shape) const {
  QDNN_CHECK_EQ(input_shape.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input_shape[1], in_, name_ << ": in_features");
  return Shape{input_shape[0], units_};
}

void GeneralQuadraticDense::forward_into(const ConstTensorView& input,
                                         const TensorView& output, Workspace& ws) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_, name_ << ": in_features");
  const index_t n = input.dim(0);
  QDNN_CHECK(output.rank() == 2 && output.dim(0) == n &&
                 output.dim(1) == units_,
             name_ << ": bad output view " << output.shape());
  float* mx = ws.alloc(in_);
  for (index_t s = 0; s < n; ++s) {
    const float* x = input.data() + s * in_;
    for (index_t u = 0; u < units_; ++u) {
      const float* m_u = m_.value.data() + u * in_ * in_;
      linalg::gemv(false, in_, in_, 1.0f, m_u, in_, x, 0.0f, mx);
      float y = linalg::dot(x, mx, in_);
      if (include_linear_)
        y += linalg::dot(w_.value.data() + u * in_, x, in_) + b_.value[u];
      output.at(s, u) = y;
    }
  }
}

void GeneralQuadraticDense::freeze() {
  cached_input_ = Tensor{};
  Module::freeze();
}

Tensor GeneralQuadraticDense::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  const index_t n = cached_input_.dim(0);
  QDNN_CHECK(grad_output.shape() == Shape({n, units_}),
             name_ << ": grad shape");
  Tensor grad_input{Shape{n, in_}};
  std::vector<float> mx(static_cast<std::size_t>(in_));
  std::vector<float> mtx(static_cast<std::size_t>(in_));
  for (index_t s = 0; s < n; ++s) {
    const float* x = cached_input_.data() + s * in_;
    float* gx = grad_input.data() + s * in_;
    for (index_t u = 0; u < units_; ++u) {
      const float gy = grad_output.at(s, u);
      if (gy == 0.0f) continue;
      const float* m_u = m_.value.data() + u * in_ * in_;
      float* gm_u = m_.grad.data() + u * in_ * in_;
      // dM += g · x xᵀ ; dx += g (M + Mᵀ) x
      linalg::gemv(false, in_, in_, 1.0f, m_u, in_, x, 0.0f, mx.data());
      linalg::gemv(true, in_, in_, 1.0f, m_u, in_, x, 0.0f, mtx.data());
      for (index_t i = 0; i < in_; ++i) {
        const float gxi = gy * x[i];
        linalg::axpy(in_, gxi, x, gm_u + i * in_);
        gx[i] += gy * (mx[static_cast<std::size_t>(i)] +
                       mtx[static_cast<std::size_t>(i)]);
      }
      if (include_linear_) {
        linalg::axpy(in_, gy, x, w_.grad.data() + u * in_);
        linalg::axpy(in_, gy, w_.value.data() + u * in_, gx);
        b_.grad[u] += gy;
      }
    }
  }
  return grad_input;
}

std::vector<nn::Parameter*> GeneralQuadraticDense::parameters() {
  if (include_linear_) return {&m_, &w_, &b_};
  return {&m_};
}

// ---------------------------------------------------------------------------
// LowRankQuadraticDense
// ---------------------------------------------------------------------------

LowRankQuadraticDense::LowRankQuadraticDense(index_t in_features,
                                             index_t units, index_t rank,
                                             Rng& rng, std::string name)
    : in_(in_features),
      units_(units),
      rank_(rank),
      name_(std::move(name)),
      q1_(name_ + ".q1", Tensor{Shape{units * rank, in_features}}),
      q2_(name_ + ".q2", Tensor{Shape{units * rank, in_features}}),
      w_(name_ + ".w", Tensor{Shape{units, in_features}}),
      b_(name_ + ".b", Tensor{Shape{units}}) {
  QDNN_CHECK(in_features > 0 && units > 0 && rank > 0,
             name_ << ": dims positive");
  // Product of two factors: init each at 1/sqrt scale so xᵀQ₁Q₂ᵀx starts
  // small relative to the linear term.
  const float scale = 1.0f / static_cast<float>(in_);
  rng.fill_normal(q1_.value, 0.0f, std::sqrt(scale));
  rng.fill_normal(q2_.value, 0.0f, std::sqrt(scale));
  nn::kaiming_normal(w_.value, in_, rng);
  q1_.group = "quadratic_q";
  q2_.group = "quadratic_q";
  b_.decay = false;
}

void LowRankQuadraticDense::fuse_weights(float* fused) const {
  const index_t uk = units_ * rank_;
  std::copy_n(q1_.value.data(), uk * in_, fused);
  std::copy_n(q2_.value.data(), uk * in_, fused + uk * in_);
  std::copy_n(w_.value.data(), units_ * in_, fused + 2 * uk * in_);
}

void LowRankQuadraticDense::finish(const float* proj, index_t n,
                                   float* out) const {
  const index_t uk = units_ * rank_;
  const index_t cols = 2 * uk + units_;
  for (index_t s = 0; s < n; ++s) {
    const float* p_s = proj + s * cols;
    for (index_t u = 0; u < units_; ++u)
      out[s * units_ + u] =
          p_s[2 * uk + u] +
          (linalg::dot(p_s + u * rank_, p_s + uk + u * rank_, rank_) +
           b_.value[u]);
  }
}

Tensor LowRankQuadraticDense::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_, name_ << ": in_features");
  cached_input_ = input;
  const index_t n = input.dim(0);
  const index_t cols = 2 * units_ * rank_ + units_;

  // Training reads the live weights, never a freeze-time pack.
  cached_proj_ = Tensor{Shape{n, cols}};
  Workspace ws;
  fused_gemm(linalg::PackedWeights{}, [this](float* b) { fuse_weights(b); },
             input.data(), n, in_, cols, cached_proj_.data(), ws);
  Tensor out{Shape{n, units_}};
  finish(cached_proj_.data(), n, out.data());
  return out;
}

Shape LowRankQuadraticDense::output_shape(const Shape& input_shape) const {
  QDNN_CHECK_EQ(input_shape.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input_shape[1], in_, name_ << ": in_features");
  return Shape{input_shape[0], units_};
}

void LowRankQuadraticDense::forward_into(const ConstTensorView& input,
                                         const TensorView& output, Workspace& ws) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_, name_ << ": in_features");
  const index_t n = input.dim(0);
  const index_t cols = 2 * units_ * rank_ + units_;
  QDNN_CHECK(output.rank() == 2 && output.dim(0) == n &&
                 output.dim(1) == units_,
             name_ << ": bad output view " << output.shape());

  float* proj = ws.alloc(n * cols);
  fused_gemm(packed_, [this](float* b) { fuse_weights(b); }, input.data(),
             n, in_, cols, proj, ws);
  finish(proj, n, output.data());
}

void LowRankQuadraticDense::freeze() {
  const index_t cols = 2 * units_ * rank_ + units_;
  std::vector<float> fused(static_cast<std::size_t>(cols * in_));
  fuse_weights(fused.data());
  packed_.pack(/*trans=*/true, in_, cols, fused.data(), in_);
  cached_input_ = Tensor{};
  cached_proj_ = Tensor{};
  Module::freeze();
}

void LowRankQuadraticDense::unfreeze() {
  packed_.clear();
  Module::unfreeze();
}

Tensor LowRankQuadraticDense::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  const index_t n = cached_input_.dim(0);
  const index_t uk = units_ * rank_;
  QDNN_CHECK(grad_output.shape() == Shape({n, units_}),
             name_ << ": grad shape");

  // y = a·c + wᵀx + b with a = Q₁ᵀx, c = Q₂ᵀx:
  //   dL/da = g·c, dL/dc = g·a, then dQ₁ += (dL/da)ᵀ x etc.
  Tensor g_a{Shape{n, uk}};
  Tensor g_c{Shape{n, uk}};
  const index_t cols = 2 * uk + units_;
  for (index_t s = 0; s < n; ++s)
    for (index_t u = 0; u < units_; ++u) {
      const float gy = grad_output.at(s, u);
      b_.grad[u] += gy;
      const float* a = cached_proj_.data() + s * cols + u * rank_;
      const float* c = a + uk;
      float* ga = g_a.data() + s * uk + u * rank_;
      float* gc = g_c.data() + s * uk + u * rank_;
      for (index_t i = 0; i < rank_; ++i) {
        ga[i] = gy * c[i];
        gc[i] = gy * a[i];
      }
    }

  linalg::gemm(true, false, uk, in_, n, 1.0f, g_a.data(), uk,
               cached_input_.data(), in_, 1.0f, q1_.grad.data(), in_);
  linalg::gemm(true, false, uk, in_, n, 1.0f, g_c.data(), uk,
               cached_input_.data(), in_, 1.0f, q2_.grad.data(), in_);
  linalg::gemm(true, false, units_, in_, n, 1.0f, grad_output.data(),
               units_, cached_input_.data(), in_, 1.0f, w_.grad.data(), in_);

  Tensor grad_input{Shape{n, in_}};
  linalg::gemm(false, false, n, in_, uk, 1.0f, g_a.data(), uk,
               q1_.value.data(), in_, 0.0f, grad_input.data(), in_);
  linalg::gemm(false, false, n, in_, uk, 1.0f, g_c.data(), uk,
               q2_.value.data(), in_, 1.0f, grad_input.data(), in_);
  linalg::gemm(false, false, n, in_, units_, 1.0f, grad_output.data(),
               units_, w_.value.data(), in_, 1.0f, grad_input.data(), in_);
  return grad_input;
}

std::vector<nn::Parameter*> LowRankQuadraticDense::parameters() {
  return {&q1_, &q2_, &w_, &b_};
}

// ---------------------------------------------------------------------------
// FactoredQuadraticDense
// ---------------------------------------------------------------------------

FactoredQuadraticDense::FactoredQuadraticDense(index_t in_features,
                                               index_t units,
                                               NeuronKind mode, Rng& rng,
                                               std::string name)
    : in_(in_features), units_(units), mode_(mode), name_(std::move(name)) {
  QDNN_CHECK(mode == NeuronKind::kQuad1 || mode == NeuronKind::kQuad2 ||
                 mode == NeuronKind::kBuKarpatne,
             name_ << ": mode must be a rank-1 factored family");
  QDNN_CHECK(in_features > 0 && units > 0, name_ << ": dims positive");
  w1_ = nn::Parameter(name_ + ".w1", Tensor{Shape{units, in_features}});
  w2_ = nn::Parameter(name_ + ".w2", Tensor{Shape{units, in_features}});
  // The product (w₁ᵀx)(w₂ᵀx) needs each factor at 1/sqrt scale of the
  // usual He stddev so the product has unit-appropriate variance.
  const float f_std = std::sqrt(1.0f / static_cast<float>(in_));
  rng.fill_normal(w1_.value, 0.0f, f_std);
  rng.fill_normal(w2_.value, 0.0f, f_std);
  w1_.group = "quadratic_q";
  w2_.group = "quadratic_q";
  if (has_w3()) {
    w3_ = nn::Parameter(name_ + ".w3", Tensor{Shape{units, in_features}});
    nn::kaiming_normal(w3_.value, in_, rng);
  }
  if (has_inner_bias()) {
    b1_ = nn::Parameter(name_ + ".b1", Tensor{Shape{units}});
    b2_ = nn::Parameter(name_ + ".b2", Tensor{Shape{units}});
    b1_.decay = false;
    b2_.decay = false;
  }
  c_ = nn::Parameter(name_ + ".c", Tensor{Shape{units}});
  c_.decay = false;
}

Tensor FactoredQuadraticDense::forward(const Tensor& input) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_, name_ << ": in_features");
  cached_input_ = input;
  const index_t n = input.dim(0);

  cached_a_ = Tensor{Shape{n, units_}};
  cached_b_ = Tensor{Shape{n, units_}};
  linalg::gemm(false, true, n, units_, in_, 1.0f, input.data(), in_,
               w1_.value.data(), in_, 0.0f, cached_a_.data(), units_);
  linalg::gemm(false, true, n, units_, in_, 1.0f, input.data(), in_,
               w2_.value.data(), in_, 0.0f, cached_b_.data(), units_);
  if (has_inner_bias()) {
    for (index_t s = 0; s < n; ++s)
      for (index_t u = 0; u < units_; ++u) {
        cached_a_.at(s, u) += b1_.value[u];
        cached_b_.at(s, u) += b2_.value[u];
      }
  }

  Tensor out{Shape{n, units_}};
  if (has_w3()) {
    if (squares_input()) {
      // w₃ᵀ(x ⊙ x)
      Tensor x2 = hadamard(input, input);
      linalg::gemm(false, true, n, units_, in_, 1.0f, x2.data(), in_,
                   w3_.value.data(), in_, 0.0f, out.data(), units_);
    } else {
      linalg::gemm(false, true, n, units_, in_, 1.0f, input.data(), in_,
                   w3_.value.data(), in_, 0.0f, out.data(), units_);
    }
  }
  for (index_t s = 0; s < n; ++s)
    for (index_t u = 0; u < units_; ++u) {
      float y = out.at(s, u) + cached_a_.at(s, u) * cached_b_.at(s, u) +
                c_.value[u];
      if (mode_ == NeuronKind::kBuKarpatne) y += cached_a_.at(s, u);
      out.at(s, u) = y;
    }
  return out;
}

Shape FactoredQuadraticDense::output_shape(const Shape& input_shape) const {
  QDNN_CHECK_EQ(input_shape.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input_shape[1], in_, name_ << ": in_features");
  return Shape{input_shape[0], units_};
}

void FactoredQuadraticDense::forward_into(const ConstTensorView& input,
                                          const TensorView& output, Workspace& ws) {
  QDNN_CHECK_EQ(input.rank(), 2, name_ << ": expected [N, in]");
  QDNN_CHECK_EQ(input.dim(1), in_, name_ << ": in_features");
  const index_t n = input.dim(0);
  QDNN_CHECK(output.rank() == 2 && output.dim(0) == n &&
                 output.dim(1) == units_,
             name_ << ": bad output view " << output.shape());

  const bool pre = packed_w1_.packed();
  float* a = ws.alloc(n * units_);
  if (pre) {
    linalg::gemm_prepacked(false, n, units_, in_, 1.0f, input.data(), in_,
                           packed_w1_, 0.0f, a, units_);
  } else {
    linalg::gemm(false, true, n, units_, in_, 1.0f, input.data(), in_,
                 w1_.value.data(), in_, 0.0f, a, units_,
                 ws.alloc(linalg::gemm_scratch_floats(false, true, n,
                                                      units_, in_)));
  }
  float* b = ws.alloc(n * units_);
  if (pre) {
    linalg::gemm_prepacked(false, n, units_, in_, 1.0f, input.data(), in_,
                           packed_w2_, 0.0f, b, units_);
  } else {
    linalg::gemm(false, true, n, units_, in_, 1.0f, input.data(), in_,
                 w2_.value.data(), in_, 0.0f, b, units_,
                 ws.alloc(linalg::gemm_scratch_floats(false, true, n,
                                                      units_, in_)));
  }
  if (has_inner_bias()) {
    for (index_t s = 0; s < n; ++s)
      for (index_t u = 0; u < units_; ++u) {
        a[s * units_ + u] += b1_.value[u];
        b[s * units_ + u] += b2_.value[u];
      }
  }

  if (has_w3()) {
    const float* w3_in = input.data();
    if (squares_input()) {
      // w₃ᵀ(x ⊙ x)
      float* x2 = ws.alloc(n * in_);
      for (index_t i = 0; i < n * in_; ++i)
        x2[i] = input.data()[i] * input.data()[i];
      w3_in = x2;
    }
    if (pre) {
      linalg::gemm_prepacked(false, n, units_, in_, 1.0f, w3_in, in_,
                             packed_w3_, 0.0f, output.data(), units_);
    } else {
      linalg::gemm(false, true, n, units_, in_, 1.0f, w3_in, in_,
                   w3_.value.data(), in_, 0.0f, output.data(), units_,
                   ws.alloc(linalg::gemm_scratch_floats(false, true, n,
                                                        units_, in_)));
    }
  } else {
    output.zero();
  }
  for (index_t s = 0; s < n; ++s)
    for (index_t u = 0; u < units_; ++u) {
      const float av = a[s * units_ + u], bv = b[s * units_ + u];
      float y = output.at(s, u) + av * bv + c_.value[u];
      if (mode_ == NeuronKind::kBuKarpatne) y += av;
      output.at(s, u) = y;
    }
}

void FactoredQuadraticDense::freeze() {
  packed_w1_.pack(/*trans=*/true, in_, units_, w1_.value.data(), in_);
  packed_w2_.pack(/*trans=*/true, in_, units_, w2_.value.data(), in_);
  if (has_w3())
    packed_w3_.pack(/*trans=*/true, in_, units_, w3_.value.data(), in_);
  cached_input_ = Tensor{};
  cached_a_ = Tensor{};
  cached_b_ = Tensor{};
  Module::freeze();
}

void FactoredQuadraticDense::unfreeze() {
  packed_w1_.clear();
  packed_w2_.clear();
  packed_w3_.clear();
  Module::unfreeze();
}

Tensor FactoredQuadraticDense::backward(const Tensor& grad_output) {
  QDNN_CHECK(!cached_input_.empty(), name_ << ": backward before forward");
  const index_t n = cached_input_.dim(0);
  QDNN_CHECK(grad_output.shape() == Shape({n, units_}),
             name_ << ": grad shape");

  Tensor g_a{Shape{n, units_}};
  Tensor g_b{Shape{n, units_}};
  for (index_t s = 0; s < n; ++s)
    for (index_t u = 0; u < units_; ++u) {
      const float gy = grad_output.at(s, u);
      c_.grad[u] += gy;
      float ga = gy * cached_b_.at(s, u);
      const float gb = gy * cached_a_.at(s, u);
      if (mode_ == NeuronKind::kBuKarpatne) ga += gy;  // + w₁ᵀx term
      g_a.at(s, u) = ga;
      g_b.at(s, u) = gb;
      if (has_inner_bias()) {
        b1_.grad[u] += ga;
        b2_.grad[u] += gb;
      }
    }

  linalg::gemm(true, false, units_, in_, n, 1.0f, g_a.data(), units_,
               cached_input_.data(), in_, 1.0f, w1_.grad.data(), in_);
  linalg::gemm(true, false, units_, in_, n, 1.0f, g_b.data(), units_,
               cached_input_.data(), in_, 1.0f, w2_.grad.data(), in_);

  Tensor grad_input{Shape{n, in_}};
  linalg::gemm(false, false, n, in_, units_, 1.0f, g_a.data(), units_,
               w1_.value.data(), in_, 0.0f, grad_input.data(), in_);
  linalg::gemm(false, false, n, in_, units_, 1.0f, g_b.data(), units_,
               w2_.value.data(), in_, 1.0f, grad_input.data(), in_);

  if (has_w3()) {
    if (squares_input()) {
      const Tensor x2 = hadamard(cached_input_, cached_input_);
      linalg::gemm(true, false, units_, in_, n, 1.0f, grad_output.data(),
                   units_, x2.data(), in_, 1.0f, w3_.grad.data(), in_);
      // d/dx of w₃ᵀ(x⊙x) = 2 x ⊙ (g W₃)
      Tensor gw3{Shape{n, in_}};
      linalg::gemm(false, false, n, in_, units_, 1.0f, grad_output.data(),
                   units_, w3_.value.data(), in_, 0.0f, gw3.data(), in_);
      for (index_t i = 0; i < grad_input.numel(); ++i)
        grad_input[i] += 2.0f * gw3[i] * cached_input_[i];
    } else {
      linalg::gemm(true, false, units_, in_, n, 1.0f, grad_output.data(),
                   units_, cached_input_.data(), in_, 1.0f,
                   w3_.grad.data(), in_);
      linalg::gemm(false, false, n, in_, units_, 1.0f, grad_output.data(),
                   units_, w3_.value.data(), in_, 1.0f, grad_input.data(),
                   in_);
    }
  }
  return grad_input;
}

std::vector<nn::Parameter*> FactoredQuadraticDense::parameters() {
  std::vector<nn::Parameter*> params{&w1_, &w2_};
  if (has_w3()) params.push_back(&w3_);
  if (has_inner_bias()) {
    params.push_back(&b1_);
    params.push_back(&b2_);
  }
  params.push_back(&c_);
  return params;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

nn::ModulePtr make_dense_neuron(const NeuronSpec& spec, index_t in_features,
                                index_t out_features, Rng& rng,
                                std::string name) {
  switch (spec.kind) {
    case NeuronKind::kLinear:
      return std::make_unique<nn::Linear>(in_features, out_features, rng,
                                          true, std::move(name));
    case NeuronKind::kGeneral:
      return std::make_unique<GeneralQuadraticDense>(
          in_features, out_features, rng, true, std::move(name));
    case NeuronKind::kPure:
      return std::make_unique<GeneralQuadraticDense>(
          in_features, out_features, rng, false, std::move(name));
    case NeuronKind::kLowRank:
      return std::make_unique<LowRankQuadraticDense>(
          in_features, out_features, spec.rank, rng, std::move(name));
    case NeuronKind::kQuad1:
    case NeuronKind::kQuad2:
    case NeuronKind::kBuKarpatne:
      return std::make_unique<FactoredQuadraticDense>(
          in_features, out_features, spec.kind, rng, std::move(name));
    case NeuronKind::kKervolution:
      return std::make_unique<KervolutionDense>(
          in_features, out_features, spec.kerv_degree, spec.kerv_c, rng,
          std::move(name));
    case NeuronKind::kProposed: {
      const index_t per = spec.rank + 1;
      QDNN_CHECK(out_features % per == 0,
                 name << ": out_features " << out_features
                      << " not a multiple of rank+1 = " << per);
      return std::make_unique<ProposedQuadraticDense>(
          in_features, out_features / per, spec.rank, rng,
          spec.lambda_lr_scale, std::move(name));
    }
    case NeuronKind::kProposedSumOnly:
      return std::make_unique<ProposedQuadraticDense>(
          in_features, out_features, spec.rank, rng, spec.lambda_lr_scale,
          std::move(name), /*emit_features=*/false);
  }
  QDNN_CHECK(false, "make_dense_neuron: unknown kind");
  return nullptr;
}

}  // namespace qdnn::quadratic
