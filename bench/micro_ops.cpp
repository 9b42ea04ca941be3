// Engineering micro-benchmarks (google-benchmark): GEMM, im2col conv,
// eigendecomposition, forward/backward throughput of each neuron family
// at equal layer width — the empirical counterpart of Table I's MAC
// counts — and the legacy-forward vs InferenceSession serving comparison
// (the allocation cost the v2 execution API removes).
#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "linalg/eig.h"
#include "linalg/gemm.h"
#include "linalg/gemm_backend.h"
#include "linalg/packed_weights.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "quadratic/quad_conv.h"
#include "quadratic/quad_dense.h"
#include "quantize/quantized_modules.h"
#include "runtime/inference_session.h"

using namespace qdnn;
using quadratic::NeuronKind;
using quadratic::NeuronSpec;

namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t{std::move(shape)};
  rng.fill_uniform(t, -1.0f, 1.0f);
  return t;
}

void BM_Gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  const Tensor a = random_tensor(Shape{n, n}, 1);
  const Tensor b = random_tensor(Shape{n, n}, 2);
  Tensor c{Shape{n, n}};
  for (auto _ : state) {
    linalg::gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Gemm backend section: the three serving shapes every decode tick is
// built from, prepacked (the frozen-session path), per dispatch backend.
// Arg0 picks the shape, Arg1 the backend (GemmBackend enum value);
// combinations the build/CPU can't run are skipped.  CI's backend gate
// reads these rows (label "<shape>/<backend>") from the JSON report.
void BM_GemmBackend(benchmark::State& state) {
  struct ServeShape {
    const char* name;
    index_t m, n, k;
  };
  // decode step [batch x P][P x P]; prefill [N*T x D][D x D]; logit
  // projection [batch x vocab] — a d_model-48, vocab-256 decoder at batch
  // 8 with 28-token sources (tests/linalg/gemm_backend_test.cpp checks
  // the same shapes for parity).
  static constexpr ServeShape kShapes[] = {
      {"decode", 8, 48, 48},
      {"prefill", 224, 48, 48},
      {"logits", 8, 256, 48},
  };
  const ServeShape& s = kShapes[state.range(0)];
  const auto backend = static_cast<linalg::GemmBackend>(state.range(1));
  if (!linalg::gemm_backend_supported(backend)) {
    state.SkipWithError("backend not supported on this build/CPU");
    return;
  }
  const linalg::GemmBackend prev = linalg::active_gemm_backend();
  linalg::set_gemm_backend(backend);
  const Tensor a = random_tensor(Shape{s.m, s.k}, 1);
  const Tensor b = random_tensor(Shape{s.k, s.n}, 2);
  linalg::PackedWeights pw;
  pw.pack(false, s.k, s.n, b.data(), s.n);
  Tensor c{Shape{s.m, s.n}};
  for (auto _ : state) {
    linalg::gemm_prepacked(false, s.m, s.n, s.k, 1.0f, a.data(), s.k, pw,
                           0.0f, c.data(), s.n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * s.m * s.n * s.k);
  state.SetLabel(std::string(s.name) + "/" +
                 linalg::gemm_backend_name(backend));
  linalg::set_gemm_backend(prev);
}
BENCHMARK(BM_GemmBackend)->ArgsProduct({{0, 1, 2}, {0, 1, 2}});

void BM_Eigh(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(3);
  Tensor m{Shape{n, n}};
  rng.fill_normal(m, 0.0f, 1.0f);
  m = linalg::symmetrize(m);
  for (auto _ : state) {
    auto result = linalg::eigh(m);
    benchmark::DoNotOptimize(result.eigenvalues.data());
  }
}
BENCHMARK(BM_Eigh)->Arg(16)->Arg(48)->Arg(96);

// Forward pass of one conv layer per neuron family, equal target width.
void conv_forward_bench(benchmark::State& state, const NeuronSpec& spec) {
  Rng rng(4);
  auto layer =
      quadratic::make_conv_neuron(spec, 16, 16, 3, 1, 1, rng, "bench");
  const Tensor x = random_tensor(Shape{4, 16, 16, 16}, 5);
  for (auto _ : state) {
    Tensor y = layer->forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}

void BM_ConvLinear(benchmark::State& state) {
  conv_forward_bench(state, NeuronSpec::linear());
}
void BM_ConvProposed(benchmark::State& state) {
  conv_forward_bench(state, NeuronSpec::proposed(9));
}
void BM_ConvQuad1(benchmark::State& state) {
  conv_forward_bench(state, NeuronSpec::of(NeuronKind::kQuad1));
}
void BM_ConvQuad2(benchmark::State& state) {
  conv_forward_bench(state, NeuronSpec::of(NeuronKind::kQuad2));
}
void BM_ConvLowRank(benchmark::State& state) {
  conv_forward_bench(state, NeuronSpec::of(NeuronKind::kLowRank, 9));
}
void BM_ConvKervolution(benchmark::State& state) {
  conv_forward_bench(state, NeuronSpec::of(NeuronKind::kKervolution));
}
BENCHMARK(BM_ConvLinear);
BENCHMARK(BM_ConvProposed);
BENCHMARK(BM_ConvQuad1);
BENCHMARK(BM_ConvQuad2);
BENCHMARK(BM_ConvLowRank);
BENCHMARK(BM_ConvKervolution);

// Forward+backward of the proposed conv vs linear conv — the end-to-end
// training-cost comparison.
void BM_TrainStepLinear(benchmark::State& state) {
  Rng rng(6);
  nn::Conv2d conv(8, 8, 3, 1, 1, rng);
  const Tensor x = random_tensor(Shape{4, 8, 12, 12}, 7);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    Tensor g = conv.backward(y);
    benchmark::DoNotOptimize(g.data());
  }
}
void BM_TrainStepProposed(benchmark::State& state) {
  Rng rng(8);
  quadratic::ProposedQuadConv2d conv(8, 1, 3, 1, 1, 7, rng);
  const Tensor x = random_tensor(Shape{4, 8, 12, 12}, 9);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    Tensor g = conv.backward(y);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_TrainStepLinear);
BENCHMARK(BM_TrainStepProposed);

// Integer deployment kernels: int8 GEMM vs the fp32 GEMM it replaces,
// and the full quantized proposed-conv forward vs its float source.
void BM_GemmInt8(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(10);
  std::vector<std::int8_t> a(static_cast<std::size_t>(n * n));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(255) - 127);
  for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(255) - 127);
  std::vector<std::int32_t> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    quantize::gemm_i8(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmInt8)->Arg(64)->Arg(128)->Arg(256);

void BM_QuantizedProposedConvForward(benchmark::State& state) {
  Rng rng(11);
  quadratic::ProposedQuadConv2d conv(16, 2, 3, 1, 1, 7, rng);
  const Tensor sample = random_tensor(Shape{4, 16, 16, 16}, 12);
  quantize::QuantizedProposedConv2d qconv(conv, sample, 8);
  const Tensor x = random_tensor(Shape{4, 16, 16, 16}, 13);
  for (auto _ : state) {
    Tensor y = qconv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_QuantizedProposedConvForward);

// ---------------------------------------------------------------------------
// Serving-path comparison: the same MLP through the legacy allocating
// Module::forward chain vs a warmed-up InferenceSession.  At small batch
// sizes the legacy path is dominated by per-layer Tensor allocation and
// copying; the session runs the identical kernels on preallocated
// buffers.
// ---------------------------------------------------------------------------

std::unique_ptr<nn::Sequential> make_linear_mlp(std::uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>("linear_mlp");
  for (int i = 0; i < 3; ++i) {
    net->emplace<nn::Linear>(256, 256, rng, true,
                             "fc" + std::to_string(i));
    net->emplace<nn::ReLU>();
  }
  return net;
}

std::unique_ptr<nn::Sequential> make_quad_mlp(std::uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>("quad_mlp");
  for (int i = 0; i < 3; ++i) {
    // units·(rank+1) = 64·4 = 256 output channels per layer.
    net->emplace<quadratic::ProposedQuadraticDense>(
        256, 64, 3, rng, 1e-3f, "qfc" + std::to_string(i));
    net->emplace<nn::ReLU>();
  }
  return net;
}

template <typename MakeNet>
void mlp_legacy_bench(benchmark::State& state, MakeNet make_net) {
  const index_t batch = state.range(0);
  auto net = make_net(30);
  net->set_training(false);
  const Tensor x = random_tensor(Shape{batch, 256}, 31);
  for (auto _ : state) {
    Tensor y = net->forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

template <typename MakeNet>
void mlp_session_bench(benchmark::State& state, MakeNet make_net,
                       bool freeze = true) {
  const index_t batch = state.range(0);
  runtime::SessionConfig config;
  config.sample_shape = Shape{256};
  config.max_batch = batch;
  config.freeze = freeze;
  runtime::InferenceSession session(make_net(30), config);
  const Tensor x = random_tensor(Shape{batch, 256}, 31);
  for (auto _ : state) {
    const ConstTensorView& y = session.run(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_LinearMlpLegacyForward(benchmark::State& state) {
  mlp_legacy_bench(state, make_linear_mlp);
}
void BM_LinearMlpSession(benchmark::State& state) {
  mlp_session_bench(state, make_linear_mlp);
}
void BM_ProposedMlpLegacyForward(benchmark::State& state) {
  mlp_legacy_bench(state, make_quad_mlp);
}
void BM_ProposedMlpSession(benchmark::State& state) {
  mlp_session_bench(state, make_quad_mlp);
}
BENCHMARK(BM_LinearMlpLegacyForward)->Arg(1)->Arg(8)->Arg(64);
BENCHMARK(BM_LinearMlpSession)->Arg(1)->Arg(8)->Arg(64);
BENCHMARK(BM_ProposedMlpLegacyForward)->Arg(1)->Arg(8)->Arg(64);
BENCHMARK(BM_ProposedMlpSession)->Arg(1)->Arg(8)->Arg(64);

// ---------------------------------------------------------------------------
// Before the freeze-time weight prepack: the identical session pipeline
// with freeze disabled, so constant weights are re-packed on every call
// from workspace scratch.  The "after" numbers are BM_*MlpSession above
// (sessions freeze at bind by default).
// ---------------------------------------------------------------------------

void BM_LinearMlpSessionUnfrozen(benchmark::State& state) {
  mlp_session_bench(state, make_linear_mlp, /*freeze=*/false);
}
void BM_ProposedMlpSessionUnfrozen(benchmark::State& state) {
  mlp_session_bench(state, make_quad_mlp, /*freeze=*/false);
}
BENCHMARK(BM_LinearMlpSessionUnfrozen)->Arg(1)->Arg(8)->Arg(64);
BENCHMARK(BM_ProposedMlpSessionUnfrozen)->Arg(1)->Arg(8)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The backend this process resolved (QDNN_SIMD build option, CPU
  // support, QDNN_GEMM_BACKEND), in the report's context block.
  benchmark::AddCustomContext(
      "gemm_backend",
      linalg::gemm_backend_name(linalg::active_gemm_backend()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
