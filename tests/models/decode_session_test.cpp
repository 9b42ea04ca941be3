// KV-cached decode equivalence: runtime::DecodeSession::generate() must be
// bit-identical (exact token sequences) to the teacher-forced O(T²)
// oracle Transformer::greedy_decode_reference across batch sizes, ragged
// source lengths, early-eos rows, frozen/unfrozen serving, and both
// projection families — plus the session lifecycle contracts (bind
// exclusivity, re-prime reuse, max_steps/max_len boundary, freeze
// propagation audit for the whole model, no per-call weight packing).
#include "runtime/decode_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "backend_util.h"
#include "decode_test_util.h"
#include "linalg/gemm_backend.h"
#include "models/transformer/transformer.h"

namespace qdnn::models {
namespace {

using qdnn::testing::for_each_gemm_backend;
using qdnn::testing::tiny_transformer_config;
using runtime::DecodeSession;
using runtime::DecodeSessionConfig;

TransformerConfig tiny_config(quadratic::NeuronSpec spec =
                                  quadratic::NeuronSpec::linear()) {
  return tiny_transformer_config(spec);
}

Tensor ids(std::vector<std::vector<index_t>> rows) {
  const index_t n = static_cast<index_t>(rows.size());
  const index_t t = static_cast<index_t>(rows[0].size());
  Tensor out{Shape{n, t}};
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < t; ++j)
      out.at(i, j) = static_cast<float>(rows[static_cast<std::size_t>(i)]
                                            [static_cast<std::size_t>(j)]);
  return out;
}

Tensor random_src(index_t n, index_t t, index_t vocab, std::uint64_t seed) {
  return qdnn::testing::random_src_ids(n, t, vocab, seed);
}

DecodeSessionConfig session_config(index_t max_batch, index_t max_steps,
                                   bool freeze = true) {
  DecodeSessionConfig sc;
  sc.max_batch = max_batch;
  sc.max_steps = max_steps;
  sc.freeze = freeze;
  return sc;
}

TEST(DecodeSession, GenerateBitIdenticalToReferenceAcrossBatchSizes) {
  for (bool freeze : {true, false}) {
    Transformer model(tiny_config());
    model.set_training(false);
    for (index_t n : {1, 2, 4}) {
      const Tensor src = random_src(n, 5, 20, 100 + n);
      const auto ref =
          model.greedy_decode_reference(src, {}, 1, 2, 10);
      DecodeSession session(model, session_config(n, 10, freeze));
      session.prime(src, {});
      const auto out = session.generate(1, 2);
      ASSERT_EQ(out.size(), ref.size()) << "n=" << n;
      for (std::size_t r = 0; r < ref.size(); ++r)
        EXPECT_EQ(out[r], ref[r])
            << "row " << r << " n=" << n << " freeze=" << freeze;
    }
  }
}

TEST(DecodeSession, GenerateMatchesReferenceWithRaggedSources) {
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 6, 2, 0, 0},
                          {7, 8, 2, 0, 0, 0},
                          {9, 10, 11, 12, 13, 2}});
  const std::vector<index_t> lens{4, 3, 6};
  const auto ref = model.greedy_decode_reference(src, lens, 1, 2, 12);
  DecodeSession session(model, session_config(3, 12));
  session.prime(src, lens);
  const auto out = session.generate(1, 2);
  for (std::size_t r = 0; r < ref.size(); ++r)
    EXPECT_EQ(out[r], ref[r]) << "row " << r;

  // Padding beyond the declared length must not leak into the decode.
  Tensor src_garbage = src;
  src_garbage.at(0, 4) = 17.0f;
  src_garbage.at(0, 5) = 19.0f;
  session.prime(src_garbage, lens);
  const auto out2 = session.generate(1, 2);
  for (std::size_t r = 0; r < out.size(); ++r)
    EXPECT_EQ(out2[r], out[r]) << "row " << r;
}

TEST(DecodeSession, GenerateMatchesReferenceWithQuadraticProjections) {
  TransformerConfig config = tiny_config(quadratic::NeuronSpec::proposed(3));
  config.proj_dim = 16;  // divisible by rank+1=4 and heads=2
  Transformer model(config);
  model.set_training(false);
  const Tensor src = random_src(3, 6, 20, 7);
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 12);
  DecodeSession session(model, session_config(3, 12));
  session.prime(src, {});
  const auto out = session.generate(1, 2);
  for (std::size_t r = 0; r < ref.size(); ++r)
    EXPECT_EQ(out[r], ref[r]) << "row " << r;
}

TEST(DecodeSession, EarlyEosRowsStopEmittingWhileOthersContinue) {
  // Force one row to finish at step 0 by making every argmax hit eos for
  // it: with an untrained model we instead pick eos as the argmax target
  // by running long enough that rows finish at different steps, and
  // assert the contract directly: a row whose reference output is shorter
  // than max_steps emitted eos early, and the session must agree exactly.
  Transformer model(tiny_config());
  model.set_training(false);
  const index_t max_steps = 14;
  const Tensor src = random_src(4, 6, 20, 23);
  // Choose eos = the first token the reference emits for row 0, so row 0
  // finishes at step 1 while other rows (almost surely) keep going.
  const auto probe = model.greedy_decode_reference(src, {}, 1, 2, max_steps);
  ASSERT_FALSE(probe[0].empty());
  const index_t eos = probe[0][0];
  const auto ref = model.greedy_decode_reference(src, {}, 1, eos, max_steps);
  EXPECT_TRUE(ref[0].empty()) << "row 0 should finish immediately";
  bool some_row_longer = false;
  for (const auto& row : ref) some_row_longer |= row.size() > 1;
  EXPECT_TRUE(some_row_longer) << "test needs rows finishing at "
                                  "different steps";

  DecodeSession session(model, session_config(4, max_steps));
  session.prime(src, {});
  const auto out = session.generate(1, eos);
  for (std::size_t r = 0; r < ref.size(); ++r)
    EXPECT_EQ(out[r], ref[r]) << "row " << r;
}

TEST(DecodeSession, SessionBackedGreedyDecodeMatchesReference) {
  Transformer model(tiny_config());
  const Tensor src = ids({{4, 5, 6, 2}, {7, 8, 2, 0}});
  const auto ref = model.greedy_decode_reference(src, {4, 3}, 1, 2, 8);
  const auto out = model.greedy_decode(src, {4, 3}, 1, 2, 8);
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t r = 0; r < ref.size(); ++r)
    EXPECT_EQ(out[r], ref[r]) << "row " << r;
}

TEST(DecodeSession, StepLogitsMatchTeacherForcedLastPosition) {
  // The per-step logits must equal the last-position logits of a
  // teacher-forced pass over the same prefix — the step-level form of the
  // generate() equivalence.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 6, 2}, {7, 8, 9, 2}});
  const std::vector<index_t> prefix_row{1, 7, 11};  // bos + two tokens

  DecodeSession session(model, session_config(2, 8));
  session.prime(src, {});
  Tensor cached_logits;
  std::vector<index_t> feed(2);
  for (index_t s = 0; s < 3; ++s) {
    feed[0] = feed[1] = prefix_row[static_cast<std::size_t>(s)];
    session.step(feed);
    cached_logits = session.logits().to_tensor();
  }

  // Teacher-forced: decode the full 3-token prefix in one pass (the
  // frozen packs are bypassed by the training path, so this reads the
  // live weights — identical by the freeze contract).
  const Tensor tgt = ids({{1, 7, 11}, {1, 7, 11}});
  const Tensor full = model.forward_train(src, tgt, {});
  for (index_t r = 0; r < 2; ++r)
    for (index_t v = 0; v < 24; ++v)
      EXPECT_EQ(cached_logits.at(r, v), full.at(r * 3 + 2, v))
          << "row " << r << " vocab " << v;
}

TEST(DecodeSession, RePrimeServesNewSourcesBitIdentically) {
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src_a = random_src(2, 5, 20, 31);
  const Tensor src_b = random_src(2, 4, 20, 32);

  DecodeSession session(model, session_config(2, 10));
  session.prime(src_a, {});
  const auto out_a = session.generate(1, 2);
  session.prime(src_b, {});  // different source length re-binds views
  const auto out_b = session.generate(1, 2);
  session.prime(src_a, {});
  const auto out_a2 = session.generate(1, 2);

  const auto ref_a = model.greedy_decode_reference(src_a, {}, 1, 2, 10);
  const auto ref_b = model.greedy_decode_reference(src_b, {}, 1, 2, 10);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(out_a[r], ref_a[r]);
    EXPECT_EQ(out_b[r], ref_b[r]);
    EXPECT_EQ(out_a2[r], ref_a[r]) << "stale state after re-prime";
  }
}

TEST(DecodeSession, MaxStepsBoundaryMatchesMaxLen) {
  // The implicit bos occupies position 0 and step s embeds position s, so
  // max_steps == max_len is exactly representable and max_len + 1 is not.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 2}});
  EXPECT_NO_THROW({
    DecodeSession session(model, session_config(1, 16));  // == max_len
    session.prime(src, {});
    session.generate(1, 2);
  });
  EXPECT_THROW(DecodeSession(model, session_config(1, 17)),
               std::runtime_error);
  EXPECT_THROW(model.greedy_decode_reference(src, {}, 1, 2, 17),
               std::runtime_error);
  EXPECT_THROW(model.greedy_decode(src, {}, 1, 2, 17), std::runtime_error);
  EXPECT_NO_THROW(model.greedy_decode_reference(src, {}, 1, 2, 16));

  // A zero step budget is degenerate, not an error: n empty sequences.
  const auto none = model.greedy_decode(src, {}, 1, 2, 0);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_TRUE(none[0].empty());
  const auto none_ref = model.greedy_decode_reference(src, {}, 1, 2, 0);
  ASSERT_EQ(none_ref.size(), 1u);
  EXPECT_TRUE(none_ref[0].empty());
}

TEST(DecodeSession, OneSessionMayBindADecoderAtATime) {
  Transformer model(tiny_config());
  model.set_training(false);
  DecodeSession first(model, session_config(2, 8));
  EXPECT_THROW(DecodeSession(model, session_config(2, 8)),
               std::runtime_error);
  // greedy_decode binds a temporary session internally, so it must also
  // be rejected while another session holds the decoder...
  const Tensor src = ids({{4, 5, 2}});
  EXPECT_THROW(model.greedy_decode(src, {}, 1, 2, 8), std::runtime_error);
  // ...and the reference path, which never binds, keeps working.
  EXPECT_NO_THROW(model.greedy_decode_reference(src, {}, 1, 2, 8));
}

TEST(DecodeSession, RebindAfterDestructionWorks) {
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 6, 2}});
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 8);
  {
    DecodeSession session(model, session_config(1, 8));
    session.prime(src, {});
    EXPECT_EQ(session.generate(1, 2)[0], ref[0]);
  }
  DecodeSession session2(model, session_config(1, 8));
  session2.prime(src, {});
  EXPECT_EQ(session2.generate(1, 2)[0], ref[0]);
}

// ---------------------------------------------------------------------------
// Freeze propagation audit for the whole model (InferenceSession's
// stale-scratch audit, mirrored onto the encoder and decoder stacks),
// and the per-call weight-pack counter over every prefill path.
// ---------------------------------------------------------------------------

// Whether every serving module of the model — the encoder that runs each
// prefill as well as the decoder stack — is in the expected freeze state.
void expect_whole_model_frozen(Transformer& model, bool frozen) {
  EXPECT_EQ(model.src_embedding().frozen(), frozen);
  EXPECT_EQ(model.tgt_embedding().frozen(), frozen);
  EXPECT_EQ(model.output_projection().frozen(), frozen);
  for (index_t l = 0; l < model.num_encoder_layers(); ++l) {
    EXPECT_EQ(model.encoder_layer(l).frozen(), frozen) << "enc " << l;
    EXPECT_EQ(model.encoder_layer(l).self_attention().frozen(), frozen)
        << "enc " << l;
  }
  for (index_t l = 0; l < model.num_decoder_layers(); ++l) {
    EXPECT_EQ(model.decoder_layer(l).frozen(), frozen) << "dec " << l;
    EXPECT_EQ(model.decoder_layer(l).self_attention().frozen(), frozen)
        << "dec " << l;
    EXPECT_EQ(model.decoder_layer(l).cross_attention().frozen(), frozen)
        << "dec " << l;
  }
}

TEST(DecodeSession, FreezePropagatesThroughWholeModel) {
  Transformer model(tiny_config());
  model.set_training(false);

  {
    DecodeSession session(model, session_config(2, 8));
    EXPECT_TRUE(session.frozen());
    expect_whole_model_frozen(model, true);
  }

  // Whole-model unfreeze restores the trainable state.
  model.unfreeze();
  expect_whole_model_frozen(model, false);

  // An unfrozen session leaves the model untouched.
  DecodeSession session(model, session_config(2, 8, /*freeze=*/false));
  EXPECT_FALSE(session.frozen());
  expect_whole_model_frozen(model, false);
}

// Counts the gemm calls that transposed a weight per call while one
// session runs every prefill path and a few steps: the init_staging
// warm-up, prime_compute at the full and at a ragged source length,
// commit_row and step().  The counter is read around all of it.
long long weight_packs_over_serving_cycle(bool freeze) {
  TransformerConfig config = tiny_config(quadratic::NeuronSpec::proposed(3));
  config.proj_dim = 16;
  Transformer model(config);
  model.set_training(false);
  const long long before = linalg::gemm_weight_pack_calls();
  DecodeSession session(model, session_config(2, 8, freeze));
  const index_t max_src = session.max_src();
  const Tensor src = random_src(1, max_src, 20, 71);
  runtime::PrefillStaging staging;
  session.init_staging(staging);
  session.prime_compute(src, 0, staging);
  session.commit_row(0, staging);
  session.prime_compute(src, max_src / 2, staging);
  session.commit_row(1, staging);
  std::vector<index_t> feed{1, 1};
  for (int s = 0; s < 4; ++s) feed = session.step(feed);
  return linalg::gemm_weight_pack_calls() - before;
}

TEST(DecodeSession, FrozenPrefillAndStepPackNoWeights) {
  // Freeze at bind covers the encoder too, so no prefill path re-packs a
  // constant weight per call.  The unfrozen control proves the counter
  // sees those packs.
  EXPECT_EQ(weight_packs_over_serving_cycle(/*freeze=*/true), 0);
  EXPECT_GT(weight_packs_over_serving_cycle(/*freeze=*/false), 0);
}

TEST(DecodeSession, FrozenPrimeComputeBitIdenticalToUnfrozen) {
  // Prepacked gemm ≡ per-call-packed gemm, so the staged cross-K/V of a
  // frozen prefill match an unfrozen one bit for bit: short, mid and
  // full-width sources, full and ragged lengths, under every backend.
  // A ragged source stages only its valid prefix (staging.ts rows).
  TransformerConfig config = tiny_config(quadratic::NeuronSpec::proposed(3));
  config.proj_dim = 16;
  Transformer model(config);
  model.set_training(false);
  const index_t layers = model.num_decoder_layers();
  const index_t proj = config.proj_dim;

  // The projected rows of every layer, in order, for each case.
  auto staged_kv = [&](bool freeze) {
    DecodeSession session(model, session_config(1, 8, freeze));
    const index_t max_src = session.max_src();
    runtime::PrefillStaging staging;
    session.init_staging(staging);
    std::vector<float> out;
    for (index_t ts : {index_t{1}, index_t{7}, max_src}) {
      const Tensor src =
          random_src(1, ts, 20, static_cast<std::uint64_t>(90 + ts));
      for (index_t len : {index_t{0}, (ts + 1) / 2}) {
        session.prime_compute(src, len, staging);
        EXPECT_EQ(staging.ts, len > 0 ? len : ts);
        for (index_t l = 0; l < layers; ++l) {
          const index_t offset = l * max_src * proj;
          out.insert(out.end(), staging.k.data() + offset,
                     staging.k.data() + offset + staging.ts * proj);
          out.insert(out.end(), staging.v.data() + offset,
                     staging.v.data() + offset + staging.ts * proj);
        }
      }
    }
    return out;
  };

  for_each_gemm_backend([&](linalg::GemmBackend) {
    // Freezing packs for the active backend, so each pass binds afresh.
    const std::vector<float> frozen = staged_kv(true);
    model.unfreeze();
    const std::vector<float> unfrozen = staged_kv(false);
    ASSERT_EQ(frozen.size(), unfrozen.size());
    ASSERT_FALSE(frozen.empty());
    EXPECT_EQ(std::memcmp(frozen.data(), unfrozen.data(),
                          frozen.size() * sizeof(float)),
              0);
  });
}

TEST(DecodeSession, UnfreezeRefreezeTracksWeightUpdates) {
  // The freeze contract on the decode path: packs are stale after a
  // weight update until unfreeze()/freeze(); the session serves the new
  // weights after a re-freeze.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = ids({{4, 5, 6, 2}});

  std::vector<std::vector<index_t>> before;
  {
    DecodeSession session(model, session_config(1, 8));
    session.prime(src, {});
    before = session.generate(1, 2);
  }

  // Perturb the output projection so the greedy path must change.
  model.output_projection().weight().value *= -1.0f;
  model.unfreeze();
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 8);

  DecodeSession session(model, session_config(1, 8));
  session.prime(src, {});
  const auto after = session.generate(1, 2);
  EXPECT_EQ(after[0], ref[0]);
  EXPECT_NE(after[0], before[0]) << "flipped projection must change the "
                                    "greedy sequence";
}

TEST(DecodeSession, StagePlanAndFootprintIntrospection) {
  TransformerConfig config = tiny_config();
  Transformer model(config);
  model.set_training(false);
  DecodeSession session(model, session_config(2, 8));
  EXPECT_TRUE(session.fully_native());
  // Per layer: self_step, add, ln1, cross_step, add, ln2, fc1, relu, fc2,
  // add, ln3 = 11 stages; plus the output projection.
  EXPECT_EQ(session.num_stages(), 11 * config.n_layers + 1);
  // Paged KV floats (PR 10): (pool pages + the sentinel) × page_floats,
  // where page_floats = layers × 2 × page_tokens × proj_dim and the
  // default pool covers the dense worst case — max_batch rows at
  // ceil(max_steps/pt) self + ceil(max_src/pt) cross pages each, max_src
  // defaulting to the model's max_len.
  const index_t pt = 16;  // DecodeSessionConfig default page_tokens
  const index_t ppr =
      (8 + pt - 1) / pt + (config.max_len + pt - 1) / pt;
  const index_t page_floats = config.n_layers * 2 * pt * config.proj_dim;
  const index_t expected = (2 * ppr + 1) * page_floats;
  EXPECT_EQ(session.kv_cache_floats(), expected);
  EXPECT_GT(session.workspace_floats(), 0);
}

TEST(DecodeSession, PrimeRowAdmitsMidFlightBitIdentically) {
  // The continuous-batching primitive, exercised at session level: row 0
  // decodes alone for a few steps, then row 1 is primed mid-flight at a
  // different ring position, parked again, and re-primed.  Every greedy
  // stream must match its solo reference exactly — per-row step
  // counters, per-row source lengths and the masked attention tails at
  // work — while the stepped width follows the highest live row: a step
  // runs rows [0, 1) while row 1 is parked and [0, 2) while it is live.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src_a = random_src(1, 5, 20, 41);
  const Tensor src_b = random_src(1, 3, 20, 42);
  const index_t steps_a = 9, steps_b = 5;
  const auto ref_a =
      model.greedy_decode_reference(src_a, {}, 1, 2, steps_a)[0];
  const auto ref_b =
      model.greedy_decode_reference(src_b, {}, 1, 2, steps_b)[0];
  // Untrained tiny model: neither reference hits eos inside its budget,
  // so the streams below never need eos handling.
  ASSERT_EQ(static_cast<index_t>(ref_a.size()), steps_a);
  ASSERT_EQ(static_cast<index_t>(ref_b.size()), steps_b);

  // Row 1: parked for steps [0, 3), live for [3, 6), parked at 6, then
  // re-primed with the same source for [7, 9).
  const index_t first_admit = 3, park = 6, second_admit = 7;
  DecodeSession session(model, session_config(2, 10));
  session.prime_row(0, src_a, 0);
  std::vector<index_t> feed{1, 1};  // bos; row 1 parked on bos
  std::vector<index_t> got_a, got_b, got_b2;
  for (index_t s = 0; s < steps_a; ++s) {
    if (s == first_admit || s == second_admit) {
      session.prime_row(1, src_b, 0);  // admit mid-flight
      feed[1] = 1;                     // bos for the new request
    } else if (s == park) {
      session.reset_row(1);
    }
    const bool b_live =
        (s >= first_admit && s < park) || s >= second_admit;
    const std::vector<index_t>& next = session.step(feed);
    ASSERT_EQ(next.size(), 2u) << "step must return every bound row";
    EXPECT_EQ(session.logits().dim(0), b_live ? 2 : 1) << "step " << s;
    got_a.push_back(next[0]);
    feed[0] = next[0];
    if (b_live) {
      (s < park ? got_b : got_b2).push_back(next[1]);
      feed[1] = next[1];
    } else {
      EXPECT_EQ(next[1], feed[1]) << "an unstepped row returns its input";
    }
    EXPECT_EQ(session.row_steps(0), s + 1);
  }
  EXPECT_EQ(got_a, ref_a);
  EXPECT_EQ(got_b, std::vector<index_t>(ref_b.begin(), ref_b.begin() + 3));
  EXPECT_EQ(got_b2, std::vector<index_t>(ref_b.begin(), ref_b.begin() + 2));
}

TEST(DecodeSession, PrimeComputeCommitRowMatchesPrimeRowBitExactly) {
  // The prefill/decode split at session level: prime_compute into a
  // caller-owned staging buffer + commit_row into a batch row must serve
  // the exact bits of the fused prime_row (which IS compute + commit over
  // a private staging — but assert through the public halves so the
  // contract outlives the implementation).  The same staging commits into
  // two rows: both must decode identical streams.
  Transformer model(tiny_config());
  model.set_training(false);
  const Tensor src = random_src(1, 5, 20, 61);
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 8)[0];
  // Untrained tiny model: the reference never hits eos inside the budget.
  ASSERT_EQ(ref.size(), 8u);

  DecodeSession session(model, session_config(2, 8));
  runtime::PrefillStaging staging;
  session.init_staging(staging);
  session.prime_compute(src, 0, staging);
  EXPECT_EQ(staging.ts, 5);
  session.commit_row(0, staging);
  session.commit_row(1, staging);  // staging is reusable until overwritten
  EXPECT_FALSE(session.row_parked(0));
  EXPECT_FALSE(session.row_parked(1));

  std::vector<index_t> feed{1, 1};
  std::vector<index_t> got0, got1;
  for (index_t s = 0; s < 8; ++s) {
    feed = session.step(feed);
    got0.push_back(feed[0]);
    got1.push_back(feed[1]);
  }
  EXPECT_EQ(got0, ref);
  EXPECT_EQ(got1, ref);

  // Misuse is rejected with field-named errors: unsized staging, a commit
  // before any compute, and an out-of-range row.
  runtime::PrefillStaging unsized;
  EXPECT_THROW(session.prime_compute(src, 0, unsized), std::runtime_error);
  runtime::PrefillStaging empty;
  session.init_staging(empty);
  EXPECT_THROW(session.commit_row(0, empty), std::runtime_error);
  EXPECT_THROW(session.commit_row(2, staging), std::runtime_error);
}

TEST(DecodeSession, ParkedRowsStayAtRingZeroWithoutPerTickResets) {
  // reset_row parks once: a parked row above the highest live row is not
  // stepped at all (it returns its input token), a parked row below it is
  // stepped with its output ignored — and either way its ring position
  // stays pinned at 0, so the ring can never exhaust no matter how many
  // ticks pass, with no per-tick re-reset.
  Transformer model(tiny_config());
  model.set_training(false);
  DecodeSession session(model, session_config(2, 4));  // tiny ring
  // Unprimed rows start parked.
  EXPECT_TRUE(session.row_parked(0));
  EXPECT_TRUE(session.row_parked(1));

  session.prime_row(0, random_src(1, 4, 20, 62), 0);
  EXPECT_FALSE(session.row_parked(0));
  std::vector<index_t> feed{1, 1};
  // Row 1 (parked, above the live row) is not stepped.
  for (index_t s = 0; s < 3; ++s) {
    feed = session.step(feed);
    ASSERT_EQ(feed.size(), 2u);
    EXPECT_EQ(feed[1], 1) << "an unstepped row returns its input";
    EXPECT_EQ(session.logits().dim(0), 1);
    EXPECT_EQ(session.row_steps(0), s + 1);
    EXPECT_EQ(session.row_steps(1), 0) << "parked row advanced";
    EXPECT_TRUE(session.row_parked(1));
  }

  // With every row parked a step runs no rows at all.  Then a low row
  // free while a higher one is live: row 0 is parked inside the stepped
  // span [0, 2) and stays pinned at 0 for as many steps as the ring
  // holds, while row 1 decodes its own solo stream.
  const Tensor src = random_src(1, 4, 20, 63);
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 4)[0];
  ASSERT_EQ(ref.size(), 4u);  // untrained tiny model: no early eos
  session.reset_row(0);
  EXPECT_TRUE(session.row_parked(0));
  feed.assign(2, 1);
  for (index_t s = 0; s < 6; ++s) {
    if (s == 2) session.prime_row(1, src, 0);
    feed = session.step(feed);
    EXPECT_EQ(session.logits().dim(0), s < 2 ? 0 : 2);
    EXPECT_EQ(session.row_steps(0), 0) << "parked row advanced";
    if (s < 2) {
      EXPECT_EQ(feed, std::vector<index_t>({1, 1}));
    } else {
      EXPECT_EQ(feed[1], ref[static_cast<std::size_t>(s - 2)]);
      feed[0] = 1;  // the parked row's output is ignored
    }
  }
  EXPECT_EQ(session.row_steps(1), 4);
}

TEST(DecodeSession, ResetRowRewindsOneRowOnly) {
  Transformer model(tiny_config());
  model.set_training(false);
  DecodeSession session(model, session_config(2, 8));
  session.prime_row(0, random_src(1, 4, 20, 43), 0);
  session.prime_row(1, random_src(1, 4, 20, 44), 0);
  std::vector<index_t> feed{1, 1};
  feed = session.step(feed);
  feed = session.step(feed);
  EXPECT_EQ(session.row_steps(0), 2);
  EXPECT_EQ(session.row_steps(1), 2);
  session.reset_row(0);
  EXPECT_EQ(session.row_steps(0), 0);
  EXPECT_EQ(session.row_steps(1), 2) << "reset must not touch row 1";
  EXPECT_THROW(session.reset_row(2), std::runtime_error);
  EXPECT_THROW(session.prime_row(2, random_src(1, 4, 20, 45), 0),
               std::runtime_error);
}

TEST(DecodeSession, ConfigValidationNamesTheField) {
  Transformer model(tiny_config());
  model.set_training(false);
  auto message_of = [&](DecodeSessionConfig sc) -> std::string {
    try {
      DecodeSession session(model, sc);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  DecodeSessionConfig sc = session_config(0, 8);
  EXPECT_NE(message_of(sc).find("max_batch"), std::string::npos);
  sc = session_config(2, 0);
  EXPECT_NE(message_of(sc).find("max_steps"), std::string::npos);
  sc = session_config(2, 8);
  sc.max_src = -3;
  EXPECT_NE(message_of(sc).find("max_src"), std::string::npos);
  sc = session_config(2, 8);
  sc.max_src = model.config().max_len + 1;
  EXPECT_NE(message_of(sc).find("max_src"), std::string::npos);
}

TEST(DecodeSession, CommitRowRollsBackWhenThePoolIsDry) {
  // A cold commit that cannot get every cross page even after reclaim
  // hands back the pages it did get and throws, leaving the pool and
  // the row exactly as they were; the row admits normally once pages
  // free up.  Geometry: 4-token pages, 8 steps and 8 source positions —
  // a worst-case row needs 2 self + 2 cross pages, and the pool holds
  // exactly 4, with the prefix cache off so nothing is reclaimable.
  Transformer model(tiny_config());
  model.set_training(false);
  DecodeSessionConfig sc = session_config(2, 8);
  sc.max_src = 8;
  sc.page_tokens = 4;
  sc.pool_pages = 4;
  sc.prefix_cache_entries = 0;
  DecodeSession session(model, sc);

  const Tensor src = random_src(1, 8, 20, 83);
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 8)[0];
  runtime::PrefillStaging staging;
  session.init_staging(staging);
  session.prime_compute(src, 0, staging);
  session.commit_row(0, staging);  // 2 cross pages
  std::vector<index_t> feed{1, 1};
  feed = session.step(feed);  // row 0 maps its first self page
  ASSERT_EQ(session.free_pages(), 1);

  // Row 1 needs 2 cross pages; the pool has 1.  The commit takes it,
  // finds the second missing, releases the first and throws.
  EXPECT_THROW(session.commit_row(1, staging), std::runtime_error);
  EXPECT_EQ(session.free_pages(), 1);
  EXPECT_TRUE(session.row_parked(1));
  session.check_invariants({});

  // Retiring row 0 frees its 3 pages: the same staging now commits.
  session.reset_row(0);
  ASSERT_EQ(session.free_pages(), 4);
  session.commit_row(1, staging);
  session.check_invariants({});
  std::vector<index_t> got;
  feed = {1, 1};
  for (index_t s = 0; s < 8 && feed[1] != 2; ++s) {  // 2 = eos
    feed = session.step(feed);
    if (feed[1] != 2) got.push_back(feed[1]);
  }
  EXPECT_EQ(got, ref);
}

TEST(DecodeSession, MaxSrcShrinksCrossCachesAndBoundsPrime) {
  Transformer model(tiny_config());
  model.set_training(false);
  DecodeSessionConfig sc = session_config(2, 8);
  sc.max_src = 5;
  DecodeSession session(model, sc);
  const TransformerConfig& mc = model.config();
  // Paged footprint: max_src=5 still needs one cross page per row (pages
  // are 16 tokens), so the shrink shows up as fewer PAGES only once
  // max_src crosses a page boundary — here both geometries fit one page
  // and the footprint is (pool pages + sentinel) × page_floats.
  EXPECT_EQ(session.kv_cache_floats(),
            (2 * (1 + 1) + 1) * (mc.n_layers * 2 * 16 * mc.proj_dim));

  // Sources up to max_src serve bit-identically; longer ones are
  // rejected instead of overrunning the shrunken caches.
  const Tensor src = random_src(2, 5, 20, 71);
  session.prime(src, {});
  const auto out = session.generate(1, 2);
  const auto ref = model.greedy_decode_reference(src, {}, 1, 2, 8);
  for (std::size_t r = 0; r < ref.size(); ++r) EXPECT_EQ(out[r], ref[r]);
  EXPECT_THROW(session.prime(random_src(2, 6, 20, 72), {}),
               std::runtime_error);

  // max_src beyond the model's positional table is rejected at bind.
  sc.max_src = mc.max_len + 1;
  EXPECT_THROW(DecodeSession(model, sc), std::runtime_error);
}

}  // namespace
}  // namespace qdnn::models
