// Session-vs-training-path equivalence for the two models the paper
// benchmarks, served as flattened native stage pipelines:
//
//  * ResNet — stem, per-block stages with explicit residual-adds, GAP,
//    fc; final logits must be bit-identical to Module::forward.
//  * Transformer encoder — embed, scale+positional, and per-layer
//    attention / residual-add / LayerNorm / FFN stages; final hidden
//    states must be bit-identical to Transformer::encode.
//  * Prefill — the same encoder plan over a source's valid prefix; the
//    staged cross K/V must be bit-identical to the training path on the
//    padded source.
//
// Per-stage output shapes are validated against the pipeline plan so a
// flatten_into regression (wrong boundary wiring) fails loudly here.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alloc_counter.h"
#include "models/resnet.h"
#include "models/transformer/transformer.h"
#include "runtime/decode_session.h"
#include "runtime/inference_session.h"
#include "serve/scheduler.h"

namespace qdnn::models {
namespace {

using runtime::InferenceSession;
using runtime::SessionConfig;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t{std::move(shape)};
  rng.fill_uniform(t, -1.0f, 1.0f);
  return t;
}

Tensor random_ids(index_t n, index_t t, index_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  Tensor ids{Shape{n, t}};
  for (index_t i = 0; i < ids.numel(); ++i)
    ids[i] = static_cast<float>(rng.uniform_int(vocab));
  return ids;
}

// ---------------------------------------------------------------------------
// ResNet
// ---------------------------------------------------------------------------

TEST(ServingPipeline, ResNetStagesAndLogitsMatchTrainingPath) {
  for (bool quadratic : {false, true}) {
    models::ResNetConfig rc;
    rc.depth = 8;
    rc.num_classes = 5;
    rc.image_size = 8;
    rc.base_width = 4;
    rc.spec = quadratic ? NeuronSpec::proposed(3) : NeuronSpec::linear();
    rc.seed = 21;
    auto net = make_cifar_resnet(rc);
    net->set_training(false);
    const Tensor x = random_tensor(Shape{3, 3, 8, 8}, 22);
    const Tensor ref = net->forward(x);

    // The flattened plan mirrors the architecture: 3 stem stages, 3
    // blocks of (5 main + shortcut? + add + relu), GAP, fc.
    SessionConfig config;
    config.sample_shape = Shape{3, 8, 8};
    config.max_batch = 4;
    InferenceSession session(std::move(net), config);
    EXPECT_TRUE(session.fully_native());
    EXPECT_GT(session.num_stages(), 10);

    // Per-stage shapes: every boundary keeps the batch dimension, and
    // residual-add stages preserve their operand shape.
    const auto& plan = session.pipeline();
    index_t adds = 0;
    for (index_t i = 0; i < session.num_stages(); ++i) {
      const Shape s = session.stage_output_shape(i, 3);
      EXPECT_EQ(s[0], 3) << "stage " << i;
      if (plan[static_cast<std::size_t>(i)].is_add()) {
        ++adds;
        const index_t in =
            plan[static_cast<std::size_t>(i)].input;
        EXPECT_EQ(s, session.stage_output_shape(in, 3)) << "stage " << i;
      }
    }
    EXPECT_EQ(adds, 3);  // one residual-add per basic block (depth 8 = 3)
    EXPECT_EQ(session.stage_output_shape(session.num_stages() - 1, 3),
              Shape({3, 5}));

    const ConstTensorView& out = session.run(x);
    ASSERT_EQ(out.shape(), ref.shape());
    EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(ref)), 0.0f)
        << (quadratic ? "proposed" : "linear");
  }
}

TEST(ServingPipeline, ResNetProjectionShortcutStagesMatch) {
  // depth 14 with width multipliers introduces strided blocks whose
  // projection shortcut becomes its own conv+bn stage pair reading the
  // block-input boundary.
  models::ResNetConfig rc;
  rc.depth = 14;
  rc.num_classes = 3;
  rc.image_size = 8;
  rc.base_width = 4;
  rc.spec = NeuronSpec::proposed(3);
  rc.seed = 23;
  auto net = make_cifar_resnet(rc);
  net->set_training(false);
  const Tensor x = random_tensor(Shape{2, 3, 8, 8}, 24);
  const Tensor ref = net->forward(x);

  SessionConfig config;
  config.sample_shape = Shape{3, 8, 8};
  config.max_batch = 2;
  InferenceSession session(std::move(net), config);
  EXPECT_TRUE(session.fully_native());
  const ConstTensorView& out = session.run(x);
  ASSERT_EQ(out.shape(), ref.shape());
  EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(ref)), 0.0f);
}

// ---------------------------------------------------------------------------
// Transformer encoder
// ---------------------------------------------------------------------------

TransformerConfig small_config(const quadratic::NeuronSpec& spec) {
  TransformerConfig config;
  config.src_vocab = 31;
  config.tgt_vocab = 29;
  config.d_model = 16;
  config.n_heads = 2;
  config.n_layers = 2;
  config.d_ff = 24;
  config.proj_dim =
      spec.kind == quadratic::NeuronKind::kProposed ? 8 : 16;
  config.max_len = 12;
  config.dropout = 0.1f;  // exercised off through eval mode
  config.spec = spec;
  config.seed = 5;
  return config;
}

void expect_encoder_pipeline_matches(const quadratic::NeuronSpec& spec,
                                     std::uint64_t seed) {
  Transformer model(small_config(spec));
  model.set_training(false);
  const index_t n = 3, t = 7;
  const Tensor ids = random_ids(n, t, model.config().src_vocab, seed);
  const Tensor ref = model.encode(ids, {}).reshaped(
      Shape{n, t, model.config().d_model});

  SessionConfig config;
  config.sample_shape = Shape{t};
  config.max_batch = 4;
  InferenceSession session(
      std::make_unique<TransformerEncoder>(model), config);
  EXPECT_TRUE(session.fully_native());
  // embed + scale/pos + per layer: attn, add, ln1, fc1, relu, fc2, add,
  // ln2 → 2 + 8·n_layers stages.
  EXPECT_EQ(session.num_stages(), 2 + 8 * model.config().n_layers);

  // Every boundary is [n, T, width] with width = d_model, except the FFN
  // hidden boundaries (fc1 out and its ReLU) at d_ff.
  for (index_t i = 0; i < session.num_stages(); ++i) {
    const Shape s = session.stage_output_shape(i, n);
    ASSERT_EQ(s.rank(), 3) << "stage " << i;
    EXPECT_EQ(s[0], n) << "stage " << i;
    EXPECT_EQ(s[1], t) << "stage " << i;
    EXPECT_TRUE(s[2] == model.config().d_model ||
                s[2] == model.config().d_ff)
        << "stage " << i << " width " << s[2];
  }
  EXPECT_EQ(session.stage_output_shape(session.num_stages() - 1, n),
            Shape({n, t, model.config().d_model}));

  const ConstTensorView& out = session.run(ids);
  ASSERT_EQ(out.shape(), ref.shape());
  EXPECT_EQ(view_max_abs_diff(out, ConstTensorView(ref)), 0.0f);

  // Varying batch sizes re-bind and stay bit-identical per row.
  const Tensor ids_small = random_ids(1, t, model.config().src_vocab,
                                      seed + 1);
  const Tensor ref_small = model.encode(ids_small, {}).reshaped(
      Shape{1, t, model.config().d_model});
  EXPECT_EQ(view_max_abs_diff(session.run(ids_small),
                              ConstTensorView(ref_small)),
            0.0f);
}

TEST(ServingPipeline, TransformerEncoderLinearProjectionsMatch) {
  expect_encoder_pipeline_matches(NeuronSpec::linear(), 31);
}

TEST(ServingPipeline, TransformerEncoderProposedProjectionsMatch) {
  expect_encoder_pipeline_matches(NeuronSpec::proposed(3), 37);
}

// The cross K/V `staging` holds for layer l: its first staging.ts rows.
std::vector<float> staged_rows(const runtime::PrefillStaging& staging,
                               index_t l, index_t max_src, index_t proj) {
  const index_t offset = l * max_src * proj;
  std::vector<float> rows(staging.k.data() + offset,
                          staging.k.data() + offset + staging.ts * proj);
  rows.insert(rows.end(), staging.v.data() + offset,
              staging.v.data() + offset + staging.ts * proj);
  return rows;
}

TEST(ServingPipeline, PrefillStagesTheValidPrefixBitExactly) {
  // Prefill runs the encoder's flattened plan over a source's valid
  // prefix only.  That is exact: padded keys get exact-zero softmax
  // weights, so the staged cross K/V of a padded source (src_length <
  // Ts) equal project_kv over rows [0, len) of the training-path
  // encoder on the padded batch — and equal a prefill of the first len
  // tokens alone.  Both projection families.
  for (const bool quadratic : {false, true}) {
    Transformer model(small_config(quadratic ? NeuronSpec::proposed(3)
                                             : NeuronSpec::linear()));
    model.set_training(false);
    const index_t t = 7, d = model.config().d_model;
    const index_t proj = model.config().proj_dim;
    const Tensor ids = random_ids(1, t, model.config().src_vocab,
                                  quadratic ? 53 : 47);
    runtime::DecodeSessionConfig sc;
    sc.max_steps = 4;
    runtime::DecodeSession session(model, sc);
    const index_t max_src = session.max_src();
    runtime::PrefillStaging padded, alone;
    session.init_staging(padded);
    session.init_staging(alone);

    for (const index_t len : {t, index_t{3}, index_t{1}}) {
      SCOPED_TRACE(::testing::Message()
                   << (quadratic ? "proposed" : "linear") << ", len "
                   << len);
      session.prime_compute(ids, len == t ? 0 : len, padded);
      ASSERT_EQ(padded.ts, len);
      Tensor head{Shape{1, len}};
      std::copy(ids.data(), ids.data() + len, head.data());
      session.prime_compute(head, 0, alone);
      ASSERT_EQ(alone.ts, len);

      const Tensor enc = model.encode(ids, {len});  // [t, D], padded
      for (index_t l = 0; l < model.num_decoder_layers(); ++l) {
        Tensor k{Shape{1, len, proj}}, v{Shape{1, len, proj}};
        Workspace ws;
        model.decoder_layer(l).cross_attention().project_kv(
            ConstTensorView(Shape{len, d}, enc.data()), 1, len,
            TensorView(k), TensorView(v), ws);
        std::vector<float> ref(k.data(), k.data() + len * proj);
        ref.insert(ref.end(), v.data(), v.data() + len * proj);
        EXPECT_EQ(staged_rows(padded, l, max_src, proj), ref)
            << "layer " << l << " vs the training path";
        EXPECT_EQ(staged_rows(alone, l, max_src, proj), ref)
            << "layer " << l << " vs the prefix alone";
      }
    }

    // A warm slot rebinds its lane to every source length in place:
    // alternating lengths allocate nothing.
    const long long before = g_live_allocs.load();
    for (int rep = 0; rep < 3; ++rep)
      for (const index_t len : {t, index_t{2}, index_t{5}, index_t{1}})
        session.prime_compute(ids, len, padded);
    EXPECT_EQ(g_live_allocs.load() - before, 0)
        << "prefill allocated while the source length alternated";
  }
}

TEST(ServingPipeline, SourcesDifferingOnlyInPaddingShareAPrefixEntry) {
  // Tokens after src_length never reach an output, so two requests that
  // differ only there decode identical tokens — and the second one hits
  // the prefix cache entry the first published.
  Transformer model(small_config(NeuronSpec::linear()));
  model.set_training(false);
  const index_t t = 7, len = 4, budget = 6;
  const Tensor a = random_ids(1, t, model.config().src_vocab, 59);
  Tensor b = a;
  for (index_t j = len; j < t; ++j)
    b[j] = static_cast<float>((static_cast<index_t>(a[j]) + 1) %
                              model.config().src_vocab);
  const auto reference =
      model.greedy_decode_reference(a, {len}, 1, 2, budget)[0];

  serve::BatchSchedulerConfig config;
  config.session.max_batch = 2;
  config.session.max_steps = budget;
  config.bos = 1;
  config.eos = 2;
  serve::BatchScheduler scheduler(model, config);
  const auto run = [&](const Tensor& src) {
    serve::Request req;
    req.src_ids = src;
    req.src_length = len;
    const index_t id = scheduler.submit(std::move(req));
    std::vector<index_t> tokens;
    while (!scheduler.idle()) {
      scheduler.step();
      for (serve::RequestResult& r : scheduler.take_results()) {
        EXPECT_EQ(r.id, id);
        tokens = std::move(r.tokens);
      }
    }
    return tokens;
  };
  const auto& cache = scheduler.session().prefix_cache();
  EXPECT_EQ(run(a), reference);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(run(b), reference);
  EXPECT_EQ(cache.hits(), 1) << "the padded twin must hit";
  EXPECT_EQ(cache.insertions(), 1);
}

TEST(ServingPipeline, TransformerEncoderShardsBitIdentically) {
  Transformer model(small_config(NeuronSpec::linear()));
  model.set_training(false);
  const index_t t = 6;
  const Tensor ids = random_ids(4, t, model.config().src_vocab, 41);

  SessionConfig config;
  config.sample_shape = Shape{t};
  config.max_batch = 4;
  InferenceSession single(std::make_unique<TransformerEncoder>(model),
                          config);
  config.num_threads = 2;
  InferenceSession sharded(std::make_unique<TransformerEncoder>(model),
                           config);
  const Tensor ref = single.run(ids).to_tensor();
  EXPECT_EQ(view_max_abs_diff(sharded.run(ids), ConstTensorView(ref)),
            0.0f);
}

}  // namespace
}  // namespace qdnn::models
