#include "quadratic/quad_dense.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "backend_util.h"
#include "gradcheck_util.h"
#include "linalg/eig.h"
#include "linalg/gemm.h"

namespace qdnn::quadratic {
namespace {

using qdnn::testing::for_each_gemm_backend;
using qdnn::testing::gradcheck_module;
using qdnn::testing::random_tensor;

nn::Parameter& param_named(nn::Module& layer, const std::string& suffix) {
  for (nn::Parameter* p : layer.parameters())
    if (p->name.size() >= suffix.size() &&
        p->name.compare(p->name.size() - suffix.size(), suffix.size(),
                        suffix) == 0)
      return *p;
  throw std::runtime_error("no parameter " + suffix);
}

// x · Bᵀ for a row-major weight B [cols, in], as one plain gemm.
std::vector<float> project(const Tensor& x, const Tensor& b) {
  const index_t n = x.dim(0), in = x.dim(1), cols = b.dim(0);
  std::vector<float> c(static_cast<std::size_t>(n * cols));
  linalg::gemm(false, true, n, cols, in, 1.0f, x.data(), in, b.data(), in,
               0.0f, c.data(), cols);
  return c;
}

// The proposed dense layer as separate W and Q gemms and a per-unit
// assembly of [y, f_1..f_k] with y = (y₁ + b) + Σλᵢfᵢ², the λ sum formed
// from 0 — the computation its one fused gemm must reproduce bit for bit.
Tensor proposed_dense_reference(ProposedQuadraticDense& layer,
                                const Tensor& x) {
  const index_t n = x.dim(0), units = layer.units(), rank = layer.rank();
  const index_t ch = layer.emit_features() ? rank + 1 : 1;
  const std::vector<float> lin = project(x, layer.w().value);
  const std::vector<float> f = project(x, layer.q().value);
  Tensor out{Shape{n, layer.out_features()}};
  for (index_t s = 0; s < n; ++s)
    for (index_t u = 0; u < units; ++u) {
      const float* f_u = f.data() + (s * units + u) * rank;
      const float* lam = layer.lambda().value.data() + u * rank;
      float y2 = 0.0f;
      for (index_t i = 0; i < rank; ++i) y2 += lam[i] * f_u[i] * f_u[i];
      float* o_u = out.data() + (s * units + u) * ch;
      o_u[0] = lin[static_cast<std::size_t>(s * units + u)] +
               layer.bias().value[u] + y2;
      if (layer.emit_features())
        for (index_t i = 0; i < rank; ++i) o_u[1 + i] = f_u[i];
    }
  return out;
}

// The low-rank dense layer as separate Q₁, Q₂ and W gemms, then
// y = Wᵀx + (Q₁ᵀx · Q₂ᵀx + b).
Tensor lowrank_dense_reference(LowRankQuadraticDense& layer,
                               const Tensor& x) {
  const index_t n = x.dim(0), rank = layer.rank();
  const std::vector<float> a = project(x, param_named(layer, ".q1").value);
  const std::vector<float> c = project(x, param_named(layer, ".q2").value);
  const std::vector<float> lin = project(x, param_named(layer, ".w").value);
  const Tensor& b = param_named(layer, ".b").value;
  const index_t units = b.dim(0), uk = units * rank;
  Tensor out{Shape{n, units}};
  for (index_t s = 0; s < n; ++s)
    for (index_t u = 0; u < units; ++u)
      out.at(s, u) = lin[static_cast<std::size_t>(s * units + u)] +
                     (linalg::dot(a.data() + s * uk + u * rank,
                                  c.data() + s * uk + u * rank, rank) +
                      b[u]);
  return out;
}

// forward, unfrozen forward_into and frozen forward_into all equal `ref`
// bit for bit; the layer is left unfrozen.
void expect_every_path_equals(nn::Module& layer, const Tensor& x,
                              const Tensor& ref) {
  EXPECT_EQ(max_abs_diff(layer.forward(x), ref), 0.0f) << "forward";
  for (bool frozen : {false, true}) {
    if (frozen) layer.freeze();
    Tensor y{ref.shape()};
    Workspace ws;
    layer.forward_into(x, y, ws);
    EXPECT_EQ(max_abs_diff(y, ref), 0.0f)
        << (frozen ? "frozen" : "unfrozen") << " forward_into";
  }
  layer.unfreeze();
}

// Both fused dense layers ≡ their separate-gemm references under every
// backend, at batch sizes 1, 2, 7 and 13, with fused operand widths off
// the 16-column panel grid (proposed: 9, 20 and 35 columns; low-rank:
// 15, 35 and 63), features emitted and sum-only.  Biases are drawn
// nonzero so the epilogue's addition order shows in the bits.
TEST(FusedDense, EveryPathBitIdenticalToSeparateGemmReference) {
  for_each_gemm_backend([](linalg::GemmBackend) {
    int cases = 0;
    for (index_t m : {1, 2, 7, 13})
      for (auto [units, rank] : {std::pair<index_t, index_t>{3, 2},
                                 {5, 3},
                                 {7, 4}})
        for (index_t in : {11, 37}) {
          SCOPED_TRACE("m=" + std::to_string(m) + " units=" +
                       std::to_string(units) + " k=" + std::to_string(rank) +
                       " in=" + std::to_string(in));
          const Tensor x = random_tensor(Shape{m, in}, 200 + cases);
          for (bool emit : {true, false}) {
            SCOPED_TRACE(emit ? "emit" : "sum-only");
            Rng rng(100 + cases);
            ProposedQuadraticDense layer(in, units, rank, rng, 1e-3f,
                                         "fused", emit);
            rng.fill_normal(layer.bias().value, 0.0f, 1.0f);
            expect_every_path_equals(layer, x,
                                     proposed_dense_reference(layer, x));
          }
          Rng rng(300 + cases);
          LowRankQuadraticDense lowrank(in, units, rank, rng);
          rng.fill_normal(param_named(lowrank, ".b").value, 0.0f, 1.0f);
          expect_every_path_equals(lowrank, x,
                                   lowrank_dense_reference(lowrank, x));
          ++cases;
        }
    EXPECT_EQ(cases, 24);
  });
}

// Frozen with features emitted, the one gemm writes the output directly:
// the layer draws no workspace.  Sum-only mode draws exactly the gemm's
// [y₁, fᵏ] rows; unfrozen, the fused operand and its transpose too.
TEST(ProposedDense, FrozenForwardIntoDrawsNoWorkspace) {
  const index_t n = 5, in = 12, units = 4, rank = 3;
  const Tensor x = random_tensor(Shape{n, in}, 40);
  for (bool emit : {true, false}) {
    Rng rng(41);
    ProposedQuadraticDense layer(in, units, rank, rng, 1e-3f, "ws", emit);
    Tensor y{Shape{n, layer.out_features()}};
    Workspace unfrozen_ws;
    layer.forward_into(x, y, unfrozen_ws);
    layer.freeze();
    Workspace ws;
    layer.forward_into(x, y, ws);
    EXPECT_EQ(ws.watermark(), emit ? 0 : n * units * (rank + 1))
        << (emit ? "emit" : "sum-only");
    EXPECT_GT(unfrozen_ws.watermark(), ws.watermark());
  }
}

// --------------------------- proposed neuron ------------------------------

TEST(ProposedDense, OutputLayoutAndShape) {
  Rng rng(1);
  ProposedQuadraticDense layer(6, 2, 3, rng);
  EXPECT_EQ(layer.out_features(), 8);  // 2 units × (3+1)
  const Tensor y = layer.forward(random_tensor(Shape{5, 6}, 2));
  EXPECT_EQ(y.shape(), Shape({5, 8}));
}

TEST(ProposedDense, MatchesManualFormula) {
  // y = wᵀx + b + Σ λᵢ fᵢ², f = Qᵀx — checked element-wise against a
  // brute-force evaluation.
  Rng rng(3);
  const index_t n = 5, k = 3;
  ProposedQuadraticDense layer(n, 1, k, rng);
  const Tensor x = random_tensor(Shape{2, n}, 4);
  const Tensor y = layer.forward(x);

  for (index_t s = 0; s < 2; ++s) {
    // f_i = q_i · x
    float quad = 0.0f;
    for (index_t i = 0; i < k; ++i) {
      float f = 0.0f;
      for (index_t j = 0; j < n; ++j)
        f += layer.q().value[i * n + j] * x.at(s, j);
      EXPECT_NEAR(y.at(s, 1 + i), f, 1e-5f) << "f channel " << i;
      quad += layer.lambda().value[i] * f * f;
    }
    float lin = layer.bias().value[0];
    for (index_t j = 0; j < n; ++j)
      lin += layer.w().value[j] * x.at(s, j);
    EXPECT_NEAR(y.at(s, 0), lin + quad, 1e-4f);
  }
}

// Equivalence with the general quadratic neuron: when Q has orthonormal
// columns, y = xᵀQΛQᵀx + wᵀx + b must equal the general form with
// M = QΛQᵀ (the paper's Eq. (7)).
TEST(ProposedDense, EquivalentToGeneralWithReconstructedM) {
  Rng rng(5);
  const index_t n = 6, k = 6;  // full rank for exact equality
  ProposedQuadraticDense proposed(n, 1, k, rng);
  // Orthonormalize Q via eigendecomposition of a random symmetric matrix.
  Tensor sym{Shape{n, n}};
  rng.fill_normal(sym, 0.0f, 1.0f);
  sym = linalg::symmetrize(sym);
  const linalg::EigResult eig = linalg::eigh(sym);
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < n; ++j)
      proposed.q().value[i * n + j] = eig.eigenvectors.at(j, i);

  // M = Q Λ Qᵀ with the layer's λ.
  Tensor q_cols{Shape{n, k}};
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < n; ++j)
      q_cols.at(j, i) = proposed.q().value[i * n + j];
  Tensor lam{Shape{k}};
  for (index_t i = 0; i < k; ++i) lam[i] = proposed.lambda().value[i];
  const Tensor m = linalg::reconstruct(q_cols, lam);

  const Tensor x = random_tensor(Shape{3, n}, 6);
  const Tensor y = proposed.forward(x);
  for (index_t s = 0; s < 3; ++s) {
    Tensor xs{Shape{n}};
    for (index_t j = 0; j < n; ++j) xs[j] = x.at(s, j);
    double expected = linalg::quadratic_form(m, xs) +
                      proposed.bias().value[0];
    for (index_t j = 0; j < n; ++j)
      expected += proposed.w().value[j] * xs[j];
    EXPECT_NEAR(y.at(s, 0), expected, 1e-3f) << "sample " << s;
  }
}

TEST(ProposedDense, Gradcheck) {
  Rng rng(7);
  ProposedQuadraticDense layer(5, 2, 3, rng);
  EXPECT_TRUE(gradcheck_module(layer, random_tensor(Shape{3, 5}, 8)));
}

TEST(ProposedDense, LambdaHasLrScaleAndGroup) {
  Rng rng(9);
  ProposedQuadraticDense layer(4, 1, 2, rng, /*lambda_lr_scale=*/1e-4f);
  EXPECT_FLOAT_EQ(layer.lambda().lr_scale, 1e-4f);
  EXPECT_EQ(layer.lambda().group, "quadratic_lambda");
  EXPECT_EQ(layer.q().group, "quadratic_q");
  EXPECT_EQ(layer.w().group, "linear");
}

TEST(ProposedDense, ZeroLambdaReducesToLinearPlusFeatures) {
  Rng rng(10);
  ProposedQuadraticDense layer(4, 1, 2, rng);
  layer.lambda().value.zero();
  const Tensor x = random_tensor(Shape{2, 4}, 11);
  const Tensor y = layer.forward(x);
  // With Λ = 0 the y channel is exactly the linear neuron.
  for (index_t s = 0; s < 2; ++s) {
    float lin = layer.bias().value[0];
    for (index_t j = 0; j < 4; ++j) lin += layer.w().value[j] * x.at(s, j);
    EXPECT_NEAR(y.at(s, 0), lin, 1e-5f);
  }
}

// ---------------------------- general neuron ------------------------------

TEST(GeneralDense, MatchesQuadraticForm) {
  Rng rng(12);
  const index_t n = 4;
  GeneralQuadraticDense layer(n, 2, rng, /*include_linear=*/true);
  const Tensor x = random_tensor(Shape{3, n}, 13);
  const Tensor y = layer.forward(x);
  for (index_t s = 0; s < 3; ++s)
    for (index_t u = 0; u < 2; ++u) {
      Tensor m{Shape{n, n}};
      for (index_t i = 0; i < n * n; ++i)
        m[i] = layer.m().value[u * n * n + i];
      Tensor xs{Shape{n}};
      for (index_t j = 0; j < n; ++j) xs[j] = x.at(s, j);
      double expected = linalg::quadratic_form(m, xs) +
                        layer.bias().value[u];
      for (index_t j = 0; j < n; ++j)
        expected += layer.w().value[u * n + j] * xs[j];
      EXPECT_NEAR(y.at(s, u), expected, 1e-4f);
    }
}

TEST(GeneralDense, PureVariantHasNoLinearTerm) {
  Rng rng(14);
  GeneralQuadraticDense layer(3, 1, rng, /*include_linear=*/false);
  EXPECT_EQ(layer.parameters().size(), 1u);
  // Quadratic form of -x equals that of x (even function).
  Tensor x = random_tensor(Shape{1, 3}, 15);
  const Tensor y1 = layer.forward(x);
  x *= -1.0f;
  const Tensor y2 = layer.forward(x);
  EXPECT_NEAR(y1[0], y2[0], 1e-5f);
}

TEST(GeneralDense, Gradcheck) {
  Rng rng(16);
  GeneralQuadraticDense layer(4, 2, rng, true);
  EXPECT_TRUE(gradcheck_module(layer, random_tensor(Shape{2, 4}, 17)));
}

TEST(GeneralDense, GradcheckPure) {
  Rng rng(18);
  GeneralQuadraticDense layer(3, 2, rng, false);
  EXPECT_TRUE(gradcheck_module(layer, random_tensor(Shape{2, 3}, 19)));
}

// ---------------------------- low-rank neuron -----------------------------

TEST(LowRankDense, MatchesManualFormula) {
  Rng rng(20);
  const index_t n = 4, k = 2;
  LowRankQuadraticDense layer(n, 1, k, rng);
  const Tensor x = random_tensor(Shape{2, n}, 21);
  const Tensor y = layer.forward(x);
  auto param = [&](const char* name) -> nn::Parameter* {
    for (nn::Parameter* p : layer.parameters())
      if (p->name.find(name) != std::string::npos) return p;
    return nullptr;
  };
  const nn::Parameter* q1 = param(".q1");
  const nn::Parameter* q2 = param(".q2");
  const nn::Parameter* w = param(".w");
  const nn::Parameter* b = param(".b");
  for (index_t s = 0; s < 2; ++s) {
    double expected = b->value[0];
    for (index_t i = 0; i < k; ++i) {
      double a = 0.0, c = 0.0;
      for (index_t j = 0; j < n; ++j) {
        a += q1->value[i * n + j] * x.at(s, j);
        c += q2->value[i * n + j] * x.at(s, j);
      }
      expected += a * c;
    }
    for (index_t j = 0; j < n; ++j)
      expected += w->value[j] * x.at(s, j);
    EXPECT_NEAR(y.at(s, 0), expected, 1e-4f);
  }
}

TEST(LowRankDense, Gradcheck) {
  Rng rng(22);
  LowRankQuadraticDense layer(5, 2, 3, rng);
  EXPECT_TRUE(gradcheck_module(layer, random_tensor(Shape{2, 5}, 23)));
}

// ---------------------------- factored neurons ----------------------------

TEST(FactoredDense, Quad2MatchesManual) {
  Rng rng(24);
  const index_t n = 4;
  FactoredQuadraticDense layer(n, 1, NeuronKind::kQuad2, rng);
  const Tensor x = random_tensor(Shape{1, n}, 25);
  auto param = [&](const char* name) -> nn::Parameter* {
    for (nn::Parameter* p : layer.parameters())
      if (p->name.find(name) != std::string::npos) return p;
    return nullptr;
  };
  double a = 0.0, b = 0.0, w3x = 0.0;
  for (index_t j = 0; j < n; ++j) {
    a += param(".w1")->value[j] * x[j];
    b += param(".w2")->value[j] * x[j];
    w3x += param(".w3")->value[j] * x[j];
  }
  const double expected = a * b + w3x + param(".c")->value[0];
  EXPECT_NEAR(layer.forward(x)[0], expected, 1e-4f);
}

TEST(FactoredDense, Quad1SquaresInput) {
  Rng rng(26);
  const index_t n = 3;
  FactoredQuadraticDense layer(n, 1, NeuronKind::kQuad1, rng);
  auto param = [&](const char* name) -> nn::Parameter* {
    for (nn::Parameter* p : layer.parameters())
      if (p->name.find(name) != std::string::npos) return p;
    return nullptr;
  };
  const Tensor x = random_tensor(Shape{1, n}, 27);
  double a = param(".b1")->value[0], b = param(".b2")->value[0],
         w3x2 = 0.0;
  for (index_t j = 0; j < n; ++j) {
    a += param(".w1")->value[j] * x[j];
    b += param(".w2")->value[j] * x[j];
    w3x2 += param(".w3")->value[j] * x[j] * x[j];
  }
  const double expected = a * b + w3x2 + param(".c")->value[0];
  EXPECT_NEAR(layer.forward(x)[0], expected, 1e-4f);
}

TEST(FactoredDense, BuKarpatneReusesW1) {
  Rng rng(28);
  const index_t n = 3;
  FactoredQuadraticDense layer(n, 1, NeuronKind::kBuKarpatne, rng);
  // Only w1, w2 and output bias: 2 weight vectors.
  EXPECT_EQ(layer.parameters().size(), 3u);
  auto param = [&](const char* name) -> nn::Parameter* {
    for (nn::Parameter* p : layer.parameters())
      if (p->name.find(name) != std::string::npos) return p;
    return nullptr;
  };
  const Tensor x = random_tensor(Shape{1, n}, 29);
  double a = 0.0, b = 0.0;
  for (index_t j = 0; j < n; ++j) {
    a += param(".w1")->value[j] * x[j];
    b += param(".w2")->value[j] * x[j];
  }
  const double expected = a * b + a + param(".c")->value[0];
  EXPECT_NEAR(layer.forward(x)[0], expected, 1e-4f);
}

TEST(FactoredDense, GradcheckAllModes) {
  for (NeuronKind mode : {NeuronKind::kQuad1, NeuronKind::kQuad2,
                          NeuronKind::kBuKarpatne}) {
    Rng rng(30);
    FactoredQuadraticDense layer(4, 2, mode, rng);
    EXPECT_TRUE(gradcheck_module(layer, random_tensor(Shape{2, 4}, 31)))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(FactoredDense, RejectsNonFactoredMode) {
  Rng rng(32);
  EXPECT_THROW(FactoredQuadraticDense(4, 1, NeuronKind::kGeneral, rng),
               std::runtime_error);
}

// ------------------------------ factory -----------------------------------

TEST(Factory, BuildsEveryFamily) {
  for (NeuronKind kind :
       {NeuronKind::kLinear, NeuronKind::kGeneral, NeuronKind::kPure,
        NeuronKind::kBuKarpatne, NeuronKind::kLowRank, NeuronKind::kQuad1,
        NeuronKind::kQuad2, NeuronKind::kKervolution,
        NeuronKind::kProposed}) {
    Rng rng(33);
    NeuronSpec spec = NeuronSpec::of(kind, 3);
    const index_t out = (kind == NeuronKind::kProposed) ? 8 : 5;
    auto layer = make_dense_neuron(spec, 6, out, rng, "factory_test");
    const Tensor y = layer->forward(random_tensor(Shape{2, 6}, 34));
    EXPECT_EQ(y.shape(), Shape({2, out})) << spec.kind_name();
  }
}

TEST(Factory, ProposedRequiresDivisibleWidth) {
  Rng rng(35);
  const NeuronSpec spec = NeuronSpec::proposed(3);
  EXPECT_THROW(make_dense_neuron(spec, 4, 7, rng, "bad"),
               std::runtime_error);
}

}  // namespace
}  // namespace qdnn::quadratic
