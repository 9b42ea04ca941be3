// InferenceSession contract tests: bit-identity with the legacy
// Module::forward path (quadratic MLP and ResNet), determinism across
// calls, batch sharding across threads, and the headline property — zero
// heap allocations in steady state, asserted with a counting global
// allocator.
#include "runtime/inference_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "alloc_counter.h"
#include "decode_test_util.h"
#include "linalg/gemm_backend.h"
#include "models/resnet.h"
#include "obs/trace.h"
#include "models/transformer/transformer.h"
#include "runtime/decode_session.h"
#include "serve/scheduler.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "nn/softmax.h"
#include "quadratic/quad_conv.h"
#include "quadratic/quad_dense.h"

namespace qdnn::runtime {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t{std::move(shape)};
  rng.fill_uniform(t, -1.0f, 1.0f);
  return t;
}

// A quadratic MLP whose every layer has a native forward_into.
std::unique_ptr<nn::Sequential> make_quad_mlp(std::uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>("quad_mlp");
  net->emplace<quadratic::ProposedQuadraticDense>(/*in=*/12, /*units=*/4,
                                                  /*rank=*/3, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Linear>(16, 10, rng, true, "head");
  net->emplace<nn::Softmax>();
  return net;
}

SessionConfig dense_config(index_t in, index_t max_batch, int threads = 1) {
  SessionConfig config;
  config.sample_shape = Shape{in};
  config.max_batch = max_batch;
  config.num_threads = threads;
  return config;
}

TEST(InferenceSession, BitIdenticalToLegacyForwardOnQuadMlp) {
  auto net = make_quad_mlp(7);
  net->set_training(false);
  const Tensor x = random_tensor(Shape{5, 12}, 1);
  const Tensor ref = net->forward(x);

  InferenceSession session(std::move(net), dense_config(12, 8));
  EXPECT_TRUE(session.fully_native());
  EXPECT_EQ(session.num_stages(), 4);
  const ConstTensorView& out = session.run(x);
  ASSERT_EQ(out.shape(), ref.shape());
  EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(ref)), 0.0f);
}

TEST(InferenceSession, BitIdenticalToLegacyForwardOnResNet) {
  models::ResNetConfig rc;
  rc.depth = 8;
  rc.num_classes = 4;
  rc.image_size = 8;
  rc.base_width = 4;
  rc.spec = models::NeuronSpec::proposed(3);
  rc.seed = 3;
  auto net = models::make_cifar_resnet(rc);
  net->set_training(false);
  const Tensor x = random_tensor(Shape{3, 3, 8, 8}, 2);
  const Tensor ref = net->forward(x);

  SessionConfig config;
  config.sample_shape = Shape{3, 8, 8};
  config.max_batch = 4;
  InferenceSession session(std::move(net), config);
  // ResNet flattens into a native stage pipeline (stem, blocks with
  // residual-add stages, GAP, fc) instead of one legacy-adapted stage.
  EXPECT_GT(session.num_stages(), 10);
  EXPECT_TRUE(session.fully_native());
  const ConstTensorView& out = session.run(x);
  ASSERT_EQ(out.shape(), ref.shape());
  EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(ref)), 0.0f);
}

TEST(InferenceSession, BitIdenticalAcrossEveryNativeLayerKind) {
  // One pipeline through every module with a native forward_into, so a
  // serving kernel that drifts from its forward() twin fails here.
  Rng rng(37);
  auto net = std::make_unique<nn::Sequential>("zoo");
  net->emplace<nn::Conv2d>(3, 6, 3, 1, 1, rng);
  net->emplace<nn::BatchNorm2d>(6);
  net->emplace<nn::GELU>();
  net->emplace<quadratic::ProposedQuadConv2d>(6, 2, 3, 1, 1, 3, rng);
  net->emplace<nn::GlobalAvgPool2d>();  // [N, 2·(3+1)] = [N, 8]
  net->emplace<nn::LayerNorm>(8);
  net->emplace<quadratic::LowRankQuadraticDense>(8, 6, 2, rng);
  net->emplace<nn::Tanh>();
  net->emplace<quadratic::FactoredQuadraticDense>(
      6, 6, quadratic::NeuronKind::kQuad1, rng);
  net->emplace<nn::Sigmoid>();
  net->emplace<quadratic::GeneralQuadraticDense>(6, 5, rng);
  net->emplace<nn::Dropout>(0.5f, rng);
  net->emplace<nn::Softmax>();
  net->set_training(false);

  const Tensor x = random_tensor(Shape{3, 3, 8, 8}, 8);
  const Tensor ref = net->forward(x);

  SessionConfig config;
  config.sample_shape = Shape{3, 8, 8};
  config.max_batch = 4;
  InferenceSession session(std::move(net), config);
  EXPECT_TRUE(session.fully_native());
  const ConstTensorView& out = session.run(x);
  ASSERT_EQ(out.shape(), ref.shape());
  EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(ref)), 0.0f);
}

TEST(InferenceSession, NestedSequentialFlattensToNativeStages) {
  // A nested Sequential flattens recursively: the session serves the
  // inner chain's children as first-class native stages.
  auto build = [] {
    Rng rng(41);
    auto inner = std::make_unique<nn::Sequential>("inner");
    inner->emplace<nn::Linear>(8, 12, rng, true, "a");
    inner->emplace<nn::ReLU>();
    inner->emplace<nn::Linear>(12, 6, rng, true, "b");
    auto outer = std::make_unique<nn::Sequential>("outer");
    outer->append(std::move(inner));
    outer->emplace<nn::Linear>(6, 4, rng, true, "head");
    return outer;
  };
  auto ref_net = build();
  ref_net->set_training(false);
  const Tensor x = random_tensor(Shape{3, 8}, 9);
  const Tensor ref = ref_net->forward(x);

  InferenceSession session(build(), dense_config(8, 4));
  EXPECT_EQ(session.num_stages(), 4);
  EXPECT_TRUE(session.fully_native());
  const ConstTensorView& out = session.run(x);
  ASSERT_EQ(out.shape(), ref.shape());
  EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(ref)), 0.0f);
}

TEST(InferenceSession, DeterministicAcrossRepeatedRuns) {
  auto net = make_quad_mlp(11);
  InferenceSession session(std::move(net), dense_config(12, 8));
  const Tensor x = random_tensor(Shape{8, 12}, 3);
  const Tensor first = session.run(x).to_tensor();
  for (int i = 0; i < 5; ++i) {
    const ConstTensorView& again = session.run(x);
    EXPECT_EQ(view_max_abs_diff(again, ConstTensorView(first)), 0.0f);
  }
}

TEST(InferenceSession, ThreadShardingIsBitIdentical) {
  const Tensor x = random_tensor(Shape{8, 12}, 4);
  InferenceSession single(make_quad_mlp(13), dense_config(12, 8, 1));
  InferenceSession sharded(make_quad_mlp(13), dense_config(12, 8, 3));
  EXPECT_EQ(sharded.num_threads(), 3);
  const Tensor ref = single.run(x).to_tensor();
  const ConstTensorView& out = sharded.run(x);
  EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(ref)), 0.0f);
}

TEST(InferenceSession, RejectsShardingOverLegacyAdaptedStages) {
  // MaxPool2d has no native forward_into; its legacy adapter mutates
  // shared caches and must not run concurrently.
  auto net = std::make_unique<nn::Sequential>("pool_net");
  net->emplace<nn::MaxPool2d>(2, 2);
  SessionConfig config;
  config.sample_shape = Shape{1, 4, 4};
  config.max_batch = 4;
  config.num_threads = 2;
  EXPECT_THROW(InferenceSession(std::move(net), config),
               std::runtime_error);

  // The same model is fine single-threaded.
  auto net2 = std::make_unique<nn::Sequential>("pool_net");
  net2->emplace<nn::MaxPool2d>(2, 2);
  config.num_threads = 1;
  InferenceSession session(std::move(net2), config);
  EXPECT_FALSE(session.fully_native());
  const Tensor x = random_tensor(Shape{2, 1, 4, 4}, 60);
  EXPECT_EQ(session.run(x).shape(), Shape({2, 1, 2, 2}));
}

// An identity stage whose first forward_into after arm() parks until
// release(), so a test can hold a session's run() mid-flight.
class ParkingIdentity : public nn::Module {
 public:
  Tensor forward(const Tensor& input) override { return input; }
  Tensor backward(const Tensor& grad) override { return grad; }
  bool supports_forward_into() const override { return true; }
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace&) override {
    std::copy(input.data(), input.data() + input.numel(), output.data());
    if (!armed_.exchange(false)) return;
    std::unique_lock<std::mutex> lk(mu_);
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return released_; });
  }
  std::string name() const override { return "parking_identity"; }

  void arm() { armed_ = true; }
  void wait_parked() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return parked_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false, released_ = false;  // guarded by mu_
};

TEST(InferenceSession, ConcurrentRunOnAShardedSessionFailsACheck) {
  // run() serves one caller at a time.  A session that finds a run()
  // mid-flight reports the second caller before rebinding anything — a
  // second run() at a different batch size must not re-slice the views
  // the first run's shards are reading — so the first run's output stays
  // bit-identical to a solo run.
  Rng rng(8);
  auto net = std::make_unique<nn::Sequential>("parked_mlp");
  ParkingIdentity* stage = net->emplace<ParkingIdentity>();
  net->emplace<nn::Linear>(4, 4, rng, true, "fc");
  InferenceSession session(std::move(net), dense_config(4, 4, 2));
  const Tensor x = random_tensor(Shape{4, 4}, 9);
  const Tensor solo = session.run(x).to_tensor();
  const Tensor smaller = random_tensor(Shape{2, 4}, 10);
  stage->arm();
  Tensor first_out;
  std::thread first([&] { first_out = session.run(x).to_tensor(); });
  stage->wait_parked();
  try {
    session.run(smaller);
    ADD_FAILURE() << "a concurrent run() went through";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("already in flight"),
              std::string::npos)
        << e.what();
  }
  stage->release();
  first.join();
  ASSERT_EQ(first_out.shape(), solo.shape());
  EXPECT_EQ(view_max_abs_diff(ConstTensorView(first_out),
                              ConstTensorView(solo)),
            0.0f);
  EXPECT_EQ(view_max_abs_diff(session.run(x), ConstTensorView(solo)), 0.0f);
}

// An identity stage that calls back into its session's run() once.
class ReentrantIdentity : public nn::Module {
 public:
  Tensor forward(const Tensor& input) override { return input; }
  Tensor backward(const Tensor& grad) override { return grad; }
  bool supports_forward_into() const override { return true; }
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace&) override {
    std::copy(input.data(), input.data() + input.numel(), output.data());
    if (InferenceSession* s = session.exchange(nullptr)) s->run(input);
  }
  std::string name() const override { return "reentrant_identity"; }

  std::atomic<InferenceSession*> session{nullptr};  // shards race for it
};

TEST(InferenceSession, RunReenteredFromAStageFailsACheck) {
  // Same-thread re-entry is caught by the same guard as a concurrent
  // caller, with the same message, sharded or not; the session serves
  // normally afterwards.
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    auto net = std::make_unique<nn::Sequential>("reentrant_net");
    ReentrantIdentity* stage = net->emplace<ReentrantIdentity>();
    InferenceSession session(std::move(net), dense_config(4, 4, threads));
    const Tensor x = random_tensor(Shape{4, 4}, 11);
    stage->session = &session;
    try {
      session.run(x);
      ADD_FAILURE() << "a re-entrant run() went through";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("already in flight"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(view_max_abs_diff(session.run(x), ConstTensorView(x)), 0.0f);
  }
}

TEST(InferenceSession, ServesVariableBatchSizesUpToMax) {
  auto net = make_quad_mlp(17);
  InferenceSession session(std::move(net), dense_config(12, 8));
  for (index_t n : {1, 3, 8, 2}) {
    const Tensor x = random_tensor(Shape{n, 12}, 40 + n);
    const ConstTensorView& out = session.run(x);
    EXPECT_EQ(out.shape(), Shape({n, 10}));
  }
  EXPECT_EQ(session.output_shape(5), Shape({5, 10}));
  const Tensor too_big = random_tensor(Shape{9, 12}, 50);
  EXPECT_THROW(session.run(too_big), std::runtime_error);
}

TEST(InferenceSession, SlicedBatchMatchesFullBatchRows) {
  // Serving rows in two requests must give the same bits as one batch —
  // the property the thread sharding relies on.
  auto net = make_quad_mlp(19);
  InferenceSession session(std::move(net), dense_config(12, 8));
  const Tensor x = random_tensor(Shape{6, 12}, 5);
  const Tensor full = session.run(x).to_tensor();
  Tensor head{Shape{2, 12}};
  std::memcpy(head.data(), x.data(), 2 * 12 * sizeof(float));
  const ConstTensorView& out = session.run(head);
  for (index_t i = 0; i < out.numel(); ++i)
    EXPECT_EQ(out[i], full[i]) << "row-slice mismatch at " << i;
}

TEST(InferenceSession, RejectsInputAliasingItsOutputBuffer) {
  // Feeding the returned view straight back in would make stage 0 read
  // the bytes it is overwriting; the session must reject the feedback.
  Rng rng(43);
  auto net = std::make_unique<nn::Sequential>("sq");
  net->emplace<nn::Linear>(8, 8, rng, true, "fc");
  InferenceSession session(std::move(net), dense_config(8, 4));
  const Tensor x = random_tensor(Shape{2, 8}, 10);
  const ConstTensorView& y = session.run(x);
  EXPECT_THROW(session.run(y), std::runtime_error);
  // A copied result is fine.
  const Tensor y_copy = session.run(x).to_tensor();
  EXPECT_NO_THROW(session.run(y_copy));
}

TEST(InferenceSession, ZeroHeapAllocationsInSteadyState) {
  auto net = make_quad_mlp(23);
  InferenceSession session(std::move(net), dense_config(12, 8));
  ASSERT_TRUE(session.fully_native());
  const Tensor x = random_tensor(Shape{8, 12}, 6);

  // Settle: first run after construction is already warm (constructor
  // warm-up ran at max_batch), but run twice to be safe.
  session.run(x);
  session.run(x);

  const long long before = g_live_allocs.load();
  const long long packs_before = linalg::gemm_heap_pack_calls();
  const long long weight_packs_before = linalg::gemm_weight_pack_calls();
  for (int i = 0; i < 10; ++i) session.run(x);
  const long long after = g_live_allocs.load();
  EXPECT_EQ(after - before, 0)
      << "steady-state run() performed " << (after - before)
      << " heap allocations";
  // No steady-state path may fall back to the scratch-allocating gemm
  // convenience overload, nor transpose a frozen weight per call.
  EXPECT_EQ(linalg::gemm_heap_pack_calls(), packs_before);
  EXPECT_EQ(linalg::gemm_weight_pack_calls(), weight_packs_before);
}

TEST(InferenceSession, BatchSizeChangesRebindWithoutAllocating) {
  // Every shard's lane re-slices its views in place: once each batch
  // size has run, alternating between them allocates nothing, sharded or
  // not, and every size stays bit-identical to its first run.
  for (const int threads : {1, 2}) {
    InferenceSession session(make_quad_mlp(29),
                             dense_config(12, 8, threads));
    const std::vector<index_t> sizes{8, 3, 1, 5};
    std::vector<Tensor> inputs, outputs;
    for (const index_t n : sizes) {
      inputs.push_back(random_tensor(Shape{n, 12}, 70 + n));
      outputs.push_back(session.run(inputs.back()).to_tensor());
    }
    const long long before = g_live_allocs.load();
    for (int rep = 0; rep < 3; ++rep)
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const ConstTensorView& out = session.run(inputs[i]);
        EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(outputs[i])), 0.0f)
            << "batch " << sizes[i] << ", threads " << threads;
      }
    EXPECT_EQ(g_live_allocs.load() - before, 0)
        << "batch-size changes allocated, threads " << threads;
  }
}

TEST(InferenceSession, WorkspaceWatermarkIsStableAcrossRuns) {
  // Unfrozen, the stages draw per-call gemm scratch (frozen, this MLP
  // draws none), so the watermark has something to hold steady.
  SessionConfig config = dense_config(12, 8);
  config.freeze = false;
  InferenceSession session(make_quad_mlp(29), config);
  const Tensor x = random_tensor(Shape{8, 12}, 7);
  session.run(x);
  const index_t ws = session.workspace_floats();
  EXPECT_GT(ws, 0);
  for (int i = 0; i < 5; ++i) session.run(x);
  EXPECT_EQ(session.workspace_floats(), ws);
  EXPECT_GT(session.activation_floats(), 0);
}

// ---------------------------------------------------------------------------
// Freeze / prepack regressions.
// ---------------------------------------------------------------------------

TEST(InferenceSession, FreezeShrinksWorkspaceWatermarkBitIdentically) {
  // The same model served frozen (default) and unfrozen: identical bits,
  // but the frozen session's workspace watermark must have dropped the
  // per-request gemm trans_b packing scratch.
  const Tensor x = random_tensor(Shape{8, 12}, 11);

  SessionConfig frozen_cfg = dense_config(12, 8);
  InferenceSession frozen(make_quad_mlp(31), frozen_cfg);
  EXPECT_TRUE(frozen.frozen());
  EXPECT_TRUE(frozen.model().frozen());

  SessionConfig unfrozen_cfg = dense_config(12, 8);
  unfrozen_cfg.freeze = false;
  InferenceSession unfrozen(make_quad_mlp(31), unfrozen_cfg);
  EXPECT_FALSE(unfrozen.frozen());
  EXPECT_FALSE(unfrozen.model().frozen());

  const Tensor ref = unfrozen.run(x).to_tensor();
  const ConstTensorView& out = frozen.run(x);
  ASSERT_EQ(out.shape(), ref.shape());
  EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(ref)), 0.0f);

  EXPECT_LT(frozen.workspace_floats(), unfrozen.workspace_floats())
      << "frozen watermark " << frozen.workspace_floats()
      << " should exclude packing scratch (unfrozen "
      << unfrozen.workspace_floats() << ")";
}

TEST(InferenceSession, FrozenSessionZeroHeapAllocationsInSteadyState) {
  // The headline regression of the freeze subsystem: a frozen session —
  // prepacked weights, flattened pipeline — performs no steady-state heap
  // allocations at all, counted by the global allocator.
  auto net = make_quad_mlp(33);
  InferenceSession session(std::move(net), dense_config(12, 8));
  ASSERT_TRUE(session.frozen());
  ASSERT_TRUE(session.fully_native());
  const Tensor x = random_tensor(Shape{8, 12}, 12);
  session.run(x);
  session.run(x);

  const long long before = g_live_allocs.load();
  for (int i = 0; i < 10; ++i) session.run(x);
  const long long after = g_live_allocs.load();
  EXPECT_EQ(after - before, 0)
      << "frozen steady-state run() performed " << (after - before)
      << " heap allocations";
}

TEST(InferenceSession, FrozenResNetPipelineZeroAllocAndShardable) {
  // ResNet now serves as an all-native flattened pipeline (residual-add
  // stages included), so it must run allocation-free and shard across
  // threads bit-identically.
  models::ResNetConfig rc;
  rc.depth = 8;
  rc.num_classes = 4;
  rc.image_size = 8;
  rc.base_width = 4;
  rc.spec = models::NeuronSpec::proposed(3);
  rc.seed = 13;
  SessionConfig config;
  config.sample_shape = Shape{3, 8, 8};
  config.max_batch = 4;

  InferenceSession session(models::make_cifar_resnet(rc), config);
  ASSERT_TRUE(session.fully_native());
  const Tensor x = random_tensor(Shape{4, 3, 8, 8}, 14);
  session.run(x);
  session.run(x);
  const long long before = g_live_allocs.load();
  for (int i = 0; i < 5; ++i) session.run(x);
  const long long after = g_live_allocs.load();
  EXPECT_EQ(after - before, 0)
      << "frozen ResNet run() performed " << (after - before)
      << " heap allocations";

  config.num_threads = 2;
  InferenceSession sharded(models::make_cifar_resnet(rc), config);
  EXPECT_EQ(sharded.num_threads(), 2);
  const Tensor ref = session.run(x).to_tensor();
  const ConstTensorView& out = sharded.run(x);
  EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(ref)), 0.0f);
}

// ---------------------------------------------------------------------------
// KV-cached decode regressions.
// ---------------------------------------------------------------------------

using qdnn::testing::random_src_ids;
using qdnn::testing::tiny_transformer_config;

TEST(DecodeSession, FrozenStepZeroHeapAllocationsInSteadyState) {
  // The headline decode regression: after warm-up and prime, every
  // step() — embed, all KV-cached decoder stages, output projection,
  // argmax — performs no heap allocation at all, counted by the global
  // allocator.
  models::Transformer model(tiny_transformer_config());
  model.set_training(false);
  DecodeSessionConfig sc;
  sc.max_batch = 4;
  sc.max_steps = 12;
  DecodeSession session(model, sc);
  ASSERT_TRUE(session.frozen());
  ASSERT_TRUE(session.fully_native());

  const Tensor src = random_src_ids(4, 6, 20, 51);
  session.prime(src, {});
  std::vector<index_t> feed(4, 1);
  // Settle: two steps after prime (the constructor warm-up already ran at
  // the deepest ring position, so the watermark is final).
  session.step(feed);
  feed = session.step(feed);

  const long long before = g_live_allocs.load();
  const long long packs_before = linalg::gemm_heap_pack_calls();
  for (int i = 0; i < 8; ++i) feed = session.step(feed);
  const long long after = g_live_allocs.load();
  EXPECT_EQ(after - before, 0)
      << "steady-state step() performed " << (after - before)
      << " heap allocations";
  // Decode steps must route every gemm through prepacked weights or
  // caller-provided scratch — never the allocating overload.
  EXPECT_EQ(linalg::gemm_heap_pack_calls(), packs_before);
}

// Restores the process-wide tracing flag on scope exit, so these tests
// behave identically whether CI exported QDNN_TRACE or not.
struct TraceFlagGuard {
  bool saved = obs::trace_enabled();
  ~TraceFlagGuard() { obs::set_trace_enabled(saved); }
};

TEST(DecodeSession, StepZeroHeapAllocationsWithTracingEnabled) {
  // The observability contract: tracing ON must not cost allocations
  // either — stage timing writes into bind-time buffers and trace/metric
  // recording into preallocated instruments.
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  models::Transformer model(tiny_transformer_config());
  model.set_training(false);
  DecodeSessionConfig sc;
  sc.max_batch = 4;
  sc.max_steps = 12;
  DecodeSession session(model, sc);

  const Tensor src = random_src_ids(4, 6, 20, 51);
  session.prime(src, {});
  std::vector<index_t> feed(4, 1);
  session.step(feed);
  feed = session.step(feed);

  const long long before = g_live_allocs.load();
  for (int i = 0; i < 8; ++i) feed = session.step(feed);
  const long long after = g_live_allocs.load();
  EXPECT_EQ(after - before, 0)
      << "traced steady-state step() performed " << (after - before)
      << " heap allocations";
  // The profile must actually have accumulated: embed + stages + argmax,
  // every slot stepped once per step().
  const auto profile = session.stage_profile();
  ASSERT_EQ(static_cast<index_t>(profile.size()),
            session.num_stages() + 2);
  EXPECT_EQ(profile.front().name, "embed");
  EXPECT_EQ(profile.back().name, "argmax");
  for (const obs::StageTiming& st : profile) {
    EXPECT_GE(st.calls, 10) << st.name;
    EXPECT_GT(st.total_ns, 0) << st.name;
  }
}

TEST(DecodeSession, TracingOffRecordsNoStageProfile) {
  TraceFlagGuard guard;
  obs::set_trace_enabled(false);
  models::Transformer model(tiny_transformer_config());
  model.set_training(false);
  DecodeSessionConfig sc;
  sc.max_batch = 2;
  sc.max_steps = 8;
  DecodeSession session(model, sc);
  session.prime(random_src_ids(2, 4, 20, 61), {});
  session.generate(1, 2);
  for (const obs::StageTiming& st : session.stage_profile()) {
    EXPECT_EQ(st.calls, 0) << st.name;
    EXPECT_EQ(st.total_ns, 0) << st.name;
  }
}

TEST(InferenceSession, StageProfileCoversThePlanPerShard) {
  // stage_profile() feeds qbench's infer.stage_share.*: one entry per
  // plan stage, named after its module ("residual_add" for add stages),
  // one call per stage per shard pass while tracing, none while off.
  TraceFlagGuard guard;
  obs::set_trace_enabled(false);
  models::ResNetConfig rc;
  rc.depth = 8;
  rc.num_classes = 4;
  rc.image_size = 8;
  rc.base_width = 4;
  rc.spec = models::NeuronSpec::proposed(3);
  rc.seed = 13;
  SessionConfig config;
  config.sample_shape = Shape{3, 8, 8};
  config.max_batch = 4;
  config.num_threads = 2;
  InferenceSession session(models::make_cifar_resnet(rc), config);
  const Tensor x = random_tensor(Shape{4, 3, 8, 8}, 15);
  session.run(x);  // untraced: the warm-up and this pass record nothing
  for (const obs::StageTiming& st : session.stage_profile())
    EXPECT_EQ(st.calls, 0) << st.name;

  obs::set_trace_enabled(true);
  const int runs = 3;
  for (int i = 0; i < runs; ++i) session.run(x);
  const auto profile = session.stage_profile();
  const auto& plan = session.pipeline();
  ASSERT_EQ(profile.size(), plan.size());
  int adds = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    adds += plan[i].is_add();
    EXPECT_EQ(profile[i].name, plan[i].is_add() ? std::string("residual_add")
                                                : plan[i].module->name())
        << "stage " << i;
    EXPECT_EQ(profile[i].calls, runs * session.num_threads())
        << profile[i].name;
    EXPECT_GT(profile[i].total_ns, 0) << profile[i].name;
  }
  EXPECT_GT(adds, 0) << "the ResNet plan must carry residual-add stages";
}

TEST(DecodeSession, FreezeShrinksDecodeWatermarkBitIdentically) {
  // Frozen vs unfrozen decode sessions: identical token sequences, but
  // the frozen watermark must have dropped the per-step gemm trans_b
  // packing scratch of the Q/K/V/output projections.
  const Tensor src = random_src_ids(3, 5, 20, 52);

  models::Transformer frozen_model(tiny_transformer_config());
  frozen_model.set_training(false);
  DecodeSessionConfig sc;
  sc.max_batch = 3;
  sc.max_steps = 10;
  DecodeSession frozen(frozen_model, sc);
  frozen.prime(src, {});
  const auto frozen_out = frozen.generate(1, 2);

  models::Transformer unfrozen_model(tiny_transformer_config());
  unfrozen_model.set_training(false);
  sc.freeze = false;
  DecodeSession unfrozen(unfrozen_model, sc);
  unfrozen.prime(src, {});
  const auto unfrozen_out = unfrozen.generate(1, 2);

  for (std::size_t r = 0; r < frozen_out.size(); ++r)
    EXPECT_EQ(frozen_out[r], unfrozen_out[r]) << "row " << r;
  EXPECT_LT(frozen.workspace_floats(), unfrozen.workspace_floats())
      << "frozen decode watermark " << frozen.workspace_floats()
      << " should exclude packing scratch (unfrozen "
      << unfrozen.workspace_floats() << ")";
}

TEST(DecodeSession, WatermarkStableAcrossPrimesAndSteps) {
  models::Transformer model(tiny_transformer_config());
  model.set_training(false);
  DecodeSessionConfig sc;
  sc.max_batch = 3;
  sc.max_steps = 12;
  DecodeSession session(model, sc);

  session.prime(random_src_ids(3, 6, 20, 53), {});
  session.generate(1, 2);
  const index_t ws = session.workspace_floats();
  EXPECT_GT(ws, 0);
  for (std::uint64_t seed : {54u, 55u}) {
    session.prime(random_src_ids(2, 4, 20, seed), {});
    session.generate(1, 2);
    EXPECT_EQ(session.workspace_floats(), ws);
  }
  EXPECT_GT(session.kv_cache_floats(), 0);
}

TEST(BatchScheduler, SteadyStateTickZeroHeapAllocations) {
  // The continuous-batching zero-alloc regression: with every batch row
  // live and the queue empty, a scheduler tick — park/feed bookkeeping,
  // the full per-row batch step, per-row sampling, token pushes into the
  // preallocated slot buffers — performs no heap allocation at all.
  // (Admission allocates by contract: it runs the encoder.)
  models::Transformer model(qdnn::testing::tiny_transformer_config());
  model.set_training(false);
  serve::BatchSchedulerConfig config;
  config.session.max_batch = 3;
  config.session.max_steps = 16;
  serve::BatchScheduler scheduler(model, config);
  ASSERT_TRUE(scheduler.session().frozen());
  ASSERT_TRUE(scheduler.session().fully_native());

  for (index_t i = 0; i < 3; ++i) {
    serve::Request req;
    req.src_ids = random_src_ids(1, 5, 20, 120 + i);
    req.max_new_tokens = 16;
    // Mix the heads so the sampling scratch paths are audited too.
    if (i == 1)
      req.sampling = serve::SamplingConfig::with_temperature(1.1f, 5);
    if (i == 2)
      req.sampling = serve::SamplingConfig::with_top_k(4, 0.9f, 6);
    scheduler.submit(std::move(req));
  }
  // First tick admits (allocates: encoder prime); one more to settle.
  scheduler.step();
  scheduler.step();
  ASSERT_EQ(scheduler.live_rows(), 3)
      << "rows retired early — pick different request seeds";

  const long long before = g_live_allocs.load();
  for (int i = 0; i < 8; ++i) scheduler.step();
  const long long after = g_live_allocs.load();
  EXPECT_EQ(after - before, 0)
      << "steady-state scheduler tick performed " << (after - before)
      << " heap allocations";
  scheduler.run();
  EXPECT_EQ(scheduler.take_results().size(), 3u);
}

TEST(BatchScheduler, SteadyStateTickZeroHeapAllocationsWithTracing) {
  // Same window as SteadyStateTickZeroHeapAllocations, but with the
  // telemetry fully live: per-token trace records, first-token stamps,
  // histogram observes and stage timing all land in preallocated storage.
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  models::Transformer model(qdnn::testing::tiny_transformer_config());
  model.set_training(false);
  serve::BatchSchedulerConfig config;
  config.session.max_batch = 3;
  config.session.max_steps = 16;
  serve::BatchScheduler scheduler(model, config);

  for (index_t i = 0; i < 3; ++i) {
    serve::Request req;
    req.src_ids = random_src_ids(1, 5, 20, 120 + i);
    req.max_new_tokens = 16;
    scheduler.submit(std::move(req));
  }
  scheduler.step();
  scheduler.step();
  ASSERT_EQ(scheduler.live_rows(), 3);

  const long long traced_before = scheduler.trace().recorded();
  const long long before = g_live_allocs.load();
  for (int i = 0; i < 8; ++i) scheduler.step();
  const long long after = g_live_allocs.load();
  EXPECT_EQ(after - before, 0)
      << "traced steady-state scheduler tick performed "
      << (after - before) << " heap allocations";
  // The measured ticks DID trace: 3 rows × 8 ticks of step events.
  EXPECT_GE(scheduler.trace().recorded() - traced_before, 24);
  scheduler.run();
  EXPECT_EQ(scheduler.take_results().size(), 3u);
}

TEST(BatchScheduler, SteadyStateZeroAllocWithPagingPrefixCacheAndSampling) {
  // PR 10 composition: small pages (so the measured ticks ACQUIRE self
  // pages mid-decode), a live prefix cache holding pinned entries, and
  // trace sampling (every 2nd request records its lifecycle).  The
  // steady-state tick must still perform zero heap allocations — page
  // acquisition works the pool's preallocated free list, the sampling
  // decision is a counter compare, and sampled records land in the
  // preallocated trace ring.
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  obs::set_trace_sample(2);
  models::Transformer model(qdnn::testing::tiny_transformer_config());
  model.set_training(false);
  serve::BatchSchedulerConfig config;
  config.session.max_batch = 3;
  config.session.max_steps = 16;
  config.session.page_tokens = 4;  // page boundary every 4 steps
  serve::BatchScheduler scheduler(model, config);

  // Warm the prefix cache: one request to completion publishes its
  // committed cross pages under the source hash.
  {
    serve::Request req;
    req.src_ids = random_src_ids(1, 5, 20, 120);
    req.max_new_tokens = 16;
    scheduler.submit(std::move(req));
    scheduler.run();
    scheduler.take_results();
  }
  ASSERT_GT(scheduler.session().prefix_cache().live_entries(), 0);

  for (index_t i = 0; i < 3; ++i) {
    serve::Request req;
    // Row 0 re-uses the cached source (admission takes the cache hit
    // path); the others prime cold.
    req.src_ids = random_src_ids(1, 5, 20, 120 + i);
    req.max_new_tokens = 16;
    scheduler.submit(std::move(req));
  }
  scheduler.step();
  scheduler.step();
  ASSERT_EQ(scheduler.live_rows(), 3);
  ASSERT_GT(scheduler.session().prefix_cache().hits(), 0);

  const long long before = g_live_allocs.load();
  for (int i = 0; i < 8; ++i) scheduler.step();
  const long long after = g_live_allocs.load();
  EXPECT_EQ(after - before, 0)
      << "paged+cached+sampled steady-state tick performed "
      << (after - before) << " heap allocations";
  scheduler.run();
  EXPECT_EQ(scheduler.take_results().size(), 3u);
  obs::set_trace_sample(1);
}

TEST(BatchScheduler, AsyncRetireAdmitCycleZeroHeapAllocations) {
  // The prefill/decode-split headline regression: with prefills computed
  // ahead by the pool, a scheduler tick that ADMITS (commit_row: a pure
  // K/V copy plus slot bookkeeping over the request's own warm token
  // buffer) and a tick that RETIRES (hand the buffer off, park the row)
  // perform no heap allocation at all — the full retire→admit slot cycle
  // included, and with it the stepped width shrinking when the top row
  // retires and growing back when it is refilled (the boundary views are
  // re-sliced, never reallocated).  With 0 workers the admitting tick
  // also runs its prefills inline, through the pool's warmed staging
  // slot — still zero-alloc.
  for (const index_t workers : {1, 0}) {
    models::Transformer model(qdnn::testing::tiny_transformer_config());
    model.set_training(false);
    serve::BatchSchedulerConfig config;
    config.session.max_batch = 2;
    config.session.max_steps = 8;
    config.prefill_workers = workers;
    serve::BatchScheduler scheduler(model, config);

    // Submits one request per budget, then waits for the pool so the
    // measured ticks admit without computing (and no worker thread
    // allocates inside a measured window).
    auto submit_wave = [&](std::uint64_t seed,
                           std::initializer_list<index_t> budgets) {
      std::uint64_t i = 0;
      for (const index_t budget : budgets) {
        serve::Request req;
        req.src_ids = random_src_ids(1, 4, 20, seed + i++);
        req.max_new_tokens = budget;
        scheduler.submit(std::move(req));
      }
      while (workers > 0 && scheduler.prefill_pool()->ready() <
                                static_cast<index_t>(budgets.size()))
        std::this_thread::yield();
    };

    // Wave 1 occupies both rows and retires them — the slots have cycled
    // once before the measurement, covering the moved-from buffer states.
    submit_wave(200, {2, 2});
    scheduler.step();
    scheduler.step();
    ASSERT_EQ(scheduler.take_results().size(), 2u) << "workers " << workers;

    // Wave 2 is fully prefilled before the window opens (with workers).
    // Row 1 retires after one token, so the second tick steps row 0 only.
    submit_wave(210, {3, 1});
    long long allocs = g_live_allocs.load();
    scheduler.step();  // admits both rows: commit_row + warm-buffer swap
    scheduler.step();  // row 1 parked on top: the step shrinks to 1 row
    allocs = g_live_allocs.load() - allocs;
    EXPECT_EQ(scheduler.session().logits().dim(0), 1)
        << "workers " << workers;
    ASSERT_EQ(scheduler.live_rows(), 1) << "workers " << workers;
    // Draining results and submitting allocate by contract: outside the
    // measured windows.
    EXPECT_EQ(scheduler.take_results().size(), 1u) << "workers " << workers;
    submit_wave(220, {1});

    const long long before = g_live_allocs.load();
    scheduler.step();  // refills row 1: the step grows back to 2 rows
    EXPECT_EQ(scheduler.session().logits().dim(0), 2)
        << "workers " << workers;
    scheduler.step();  // idle tick over parked rows
    allocs += g_live_allocs.load() - before;
    EXPECT_EQ(allocs, 0)
        << "retire→admit cycle with " << workers << " prefill workers "
        << "performed " << allocs << " heap allocations";
    EXPECT_EQ(scheduler.take_results().size(), 2u) << "workers " << workers;
    EXPECT_TRUE(scheduler.idle()) << "workers " << workers;
  }
}

TEST(BatchScheduler, SessionWatermarkStableAcrossAdmissions) {
  // Mid-flight admissions re-run prime projections and rebind nothing:
  // the consolidated workspace watermark must not move once warmed up.
  models::Transformer model(qdnn::testing::tiny_transformer_config());
  model.set_training(false);
  serve::BatchSchedulerConfig config;
  config.session.max_batch = 2;
  config.session.max_steps = 12;
  serve::BatchScheduler scheduler(model, config);
  const index_t ws = scheduler.session().workspace_floats();
  EXPECT_GT(ws, 0);

  for (index_t i = 0; i < 6; ++i) {
    serve::Request req;
    req.src_ids = random_src_ids(1, 3 + i % 4, 20, 140 + i);
    req.max_new_tokens = 2 + i % 7;
    scheduler.submit(std::move(req));
  }
  scheduler.run();
  EXPECT_EQ(scheduler.take_results().size(), 6u);
  EXPECT_EQ(scheduler.session().workspace_floats(), ws)
      << "admission/retirement churn grew the workspace";
  EXPECT_GT(scheduler.mean_occupancy(), 1.0);
}

TEST(InferenceSession, UnfreezeAfterWeightUpdateRestoresCorrectness) {
  // Mutating weights after freeze leaves the packs stale by contract;
  // re-freezing re-packs.  The serving results must track the re-pack.
  Rng rng(47);
  auto net = std::make_unique<nn::Sequential>("sq");
  auto* fc = net->emplace<nn::Linear>(6, 3, rng, true, "fc");
  net->set_training(false);

  net->freeze();
  const Tensor x = random_tensor(Shape{2, 6}, 15);
  Workspace ws;
  Tensor before{Shape{2, 3}};
  net->forward_into(ConstTensorView(x), TensorView(before), ws);

  // Perturb the weights; the frozen pack must still serve the OLD bits
  // (stale by contract), and freeze() again must pick up the new ones.
  fc->weight().value *= 2.0f;
  ws.reset();
  Tensor stale{Shape{2, 3}};
  net->forward_into(ConstTensorView(x), TensorView(stale), ws);
  EXPECT_EQ(max_abs_diff(stale, before), 0.0f);

  net->freeze();
  ws.reset();
  Tensor fresh{Shape{2, 3}};
  net->forward_into(ConstTensorView(x), TensorView(fresh), ws);
  const Tensor ref = fc->forward(x);
  EXPECT_EQ(max_abs_diff(fresh, ref), 0.0f);
  EXPECT_GT(max_abs_diff(fresh, before), 0.0f);

  // unfreeze() drops the packs entirely: serving reads live weights.
  net->unfreeze();
  EXPECT_FALSE(net->frozen());
  ws.reset();
  Tensor live{Shape{2, 3}};
  net->forward_into(ConstTensorView(x), TensorView(live), ws);
  EXPECT_EQ(max_abs_diff(live, ref), 0.0f);
}

}  // namespace
}  // namespace qdnn::runtime
