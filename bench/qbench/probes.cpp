// Direct-call probes: the per-layer numbers of the traced run that no
// serving workload exposes from outside — decode-session step and prefill
// halves with their stage split, the proposed quadratic dense layer
// against its Table I MAC count, gemm at the models' shapes, and rq32 on
// the inference session.  Each probe is one span under `parent`.
#include <algorithm>
#include <map>

#include "linalg/gemm.h"
#include "linalg/packed_weights.h"
#include "quadratic/complexity.h"
#include "quadratic/quad_dense.h"
#include "runtime/decode_session.h"
#include "runtime/inference_session.h"
#include "workloads.h"

namespace qbench {

using namespace qdnn;

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::string t(suffix);
  return s.size() >= t.size() && s.compare(s.size() - t.size(), t.size(), t) == 0;
}

// Decode stages grouped by the kind of work (names as the session reports
// them: "dec0.self_step", "dec1.ffn.fc2", "relu", "out_proj", ...).
std::string decode_group(const std::string& name) {
  if (name == "embed" || name == "argmax" || name == "out_proj" ||
      name == "residual_add")
    return name;
  if (name.find("self_step") != std::string::npos) return "self_step";
  if (name.find("cross_step") != std::string::npos) return "cross_step";
  if (name.find(".ffn.") != std::string::npos || name == "relu") return "ffn";
  if (name.find(".ln") != std::string::npos) return "layernorm";
  return "other";
}

// ResNet stages: "resnet32.stem", "resnet32.block3.conv1", ".bn2",
// ".short"/".short_bn" (the linear projection shortcut), "relu", ...
std::string resnet_group(const std::string& name) {
  if (ends_with(name, ".short") || ends_with(name, ".short_bn"))
    return "shortcut";
  if (ends_with(name, ".stem") || ends_with(name, "conv1") ||
      ends_with(name, "conv2"))
    return "quad_conv";
  if (name.find("bn") != std::string::npos) return "batchnorm";
  if (name == "relu" || name == "residual_add") return name;
  return "other";
}

// Per-group nanoseconds accumulated between two stage_profile() reads.
template <class Group>
std::map<std::string, double> profile_delta(
    const std::vector<obs::StageTiming>& before,
    const std::vector<obs::StageTiming>& after, Group group) {
  std::map<std::string, double> ns;
  for (std::size_t i = 0; i < after.size(); ++i)
    ns[group(after[i].name)] += static_cast<double>(
        after[i].total_ns - (i < before.size() ? before[i].total_ns : 0));
  return ns;
}

double share(const std::map<std::string, double>& ns, const char* key) {
  double total = 0.0;
  for (const auto& [k, v] : ns) total += v;
  const auto it = ns.find(key);
  return total > 0.0 && it != ns.end() ? it->second / total : 0.0;
}

// Seconds per call of `call`: batches of calls until `min_s` has passed,
// median of three such loops.
template <class F>
double seconds_per_call(F&& call, double min_s) {
  std::vector<double> per_call;
  for (int rep = 0; rep < 3; ++rep) {
    long long calls = 0;
    const long long t0 = now_ns();
    long long t1 = t0;
    do {
      for (int i = 0; i < 16; ++i) call();
      calls += 16;
      t1 = now_ns();
    } while (static_cast<double>(t1 - t0) < min_s * 1e9);
    per_call.push_back(static_cast<double>(t1 - t0) / 1e9 /
                       static_cast<double>(calls));
  }
  return median(per_call);
}

}  // namespace

Metrics run_probes(const Options& opts, SpanBuffer& spans, long long parent) {
  Metrics out;
  const bool was_tracing = obs::trace_enabled();
  obs::set_trace_enabled(true);  // fills stage_profile()
  Rng rng(opts.seed ^ 0x9B0BEull);
  const int reps = opts.smoke ? 1 : 5;
  const double min_s = opts.smoke ? 0.002 : 0.02;
  spans.reserve(16);
  auto span = [&](const char* name, long long t0) {
    spans.add(name, parent, t0, now_ns(), 0);
  };
  auto source = [&](index_t n, index_t ts) {
    Tensor src{Shape{n, ts}};
    for (index_t i = 0; i < src.numel(); ++i)
      src[i] = static_cast<float>(3 + rng.uniform_int(1021));
    return src;
  };

  // ---- runtime.decode_session on a qt128 replica ----
  {
    models::Transformer model(qt128_config());
    model.set_training(false);
    runtime::DecodeSessionConfig sc;
    sc.max_batch = kMaxBatch;
    sc.max_steps = kMaxSteps;
    runtime::DecodeSession session(model, sc);

    // Mean step() time over 40 steps after a prime, median over reps.
    long long step_ns_total = 0;
    auto step_ms = [&](index_t n) {
      std::vector<double> per_rep;
      for (int r = 0; r < reps; ++r) {
        session.prime(source(n, 32), {});
        std::vector<index_t> feed(static_cast<std::size_t>(n), kBos);
        long long ns = 0;
        for (int s = 0; s < 40; ++s) {
          const long long t0 = now_ns();
          feed = session.step(feed);
          ns += now_ns() - t0;
        }
        step_ns_total += ns;
        per_rep.push_back(static_cast<double>(ns) / 40.0 / 1e6);
      }
      return median(per_rep);
    };
    long long t0 = now_ns();
    out.push_back({"decode.step_ms.b1", step_ms(1), "ms"});
    span("probe.decode.step.b1", t0);

    const auto prof0 = session.stage_profile();
    step_ns_total = 0;
    t0 = now_ns();
    out.push_back({"decode.step_ms.b8", step_ms(kMaxBatch), "ms"});
    span("probe.decode.step.b8", t0);
    const auto stages = profile_delta(prof0, session.stage_profile(),
                                      decode_group);
    double stage_total = 0.0;
    for (const auto& [k, v] : stages) stage_total += v;
    for (const char* g : {"self_step", "cross_step", "ffn", "layernorm",
                          "out_proj", "embed", "argmax"})
      out.push_back({std::string("decode.stage_share.") + g, share(stages, g),
                     "share"});
    out.push_back({"decode.stage_coverage",
                   stage_total / static_cast<double>(std::max(step_ns_total, 1LL)),
                   "share"});

    runtime::PrefillStaging staging;
    session.init_staging(staging);
    for (const index_t ts : {16, 56}) {
      const Tensor src = source(1, ts);
      std::vector<double> ms;
      t0 = now_ns();
      for (int r = 0; r < 4 * reps; ++r) {
        const long long c0 = now_ns();
        session.prime_compute(src, 0, staging);
        ms.push_back(static_cast<double>(now_ns() - c0) / 1e6);
      }
      span(ts == 16 ? "probe.decode.prime_compute.ts16"
                    : "probe.decode.prime_compute.ts56",
           t0);
      out.push_back({"decode.prime_compute_ms.ts" + std::to_string(ts),
                     median(ms), "ms"});
    }

    // commit_row of fresh (cache-missing) sources into cycling rows.
    session.prime_row(0, source(1, 32), 0);
    std::vector<double> us;
    t0 = now_ns();
    for (int r = 0; r < 6 * reps; ++r) {
      session.prime_compute(source(1, 32), 0, staging);
      const long long c0 = now_ns();
      session.commit_row(r % kMaxBatch, staging);
      us.push_back(static_cast<double>(now_ns() - c0) / 1e3);
    }
    span("probe.decode.commit_row", t0);
    out.push_back({"decode.commit_row_us", median(us), "us"});
  }

  // ---- quadratic: qt128's attention projection (16 proposed neurons,
  // k = 3, 64 outputs over d_model 128), frozen ----
  {
    Rng init(7);
    quadratic::ProposedQuadraticDense layer(128, 16, 3, init);
    layer.freeze();
    const double macs_per_row =
        quadratic::macs_per_output(quadratic::NeuronSpec::proposed(3), 128) *
        static_cast<double>(layer.out_features());
    for (const index_t rows : {8, 56}) {
      Tensor x{Shape{rows, 128}}, y{Shape{rows, layer.out_features()}};
      rng.fill_uniform(x, -1.0f, 1.0f);
      Workspace ws;
      const long long t0 = now_ns();
      const double sec = seconds_per_call(
          [&] {
            ws.reset();
            layer.forward_into(x, y, ws);
          },
          min_s);
      span(rows == 8 ? "probe.quad_dense.rows8" : "probe.quad_dense.rows56",
           t0);
      out.push_back({"quad_dense.gmacs.rows" + std::to_string(rows),
                     macs_per_row * static_cast<double>(rows) / sec / 1e9,
                     "GMAC/s"});
    }
  }

  // ---- linalg: gemm at the models' shapes.  decode/prefill: the FFN's
  // first layer at 8 rows and at a 56-token prefill; logits: the output
  // projection; conv: rq32's first-stage proposed conv (18 rank rows,
  // patch 20·3·3, 32×32 positions), which runs plain gemm on im2col ----
  {
    struct GemmShape {
      const char* metric;
      const char* span;
      index_t m, n, k;
      bool prepacked;
    };
    const GemmShape shapes[] = {
        {"gemm.gflops.decode", "probe.gemm.decode", 8, 512, 128, true},
        {"gemm.gflops.prefill", "probe.gemm.prefill", 56, 512, 128, true},
        {"gemm.gflops.logits", "probe.gemm.logits", 8, 1024, 128, true},
        {"gemm.gflops.conv", "probe.gemm.conv", 18, 1024, 180, false},
    };
    for (const GemmShape& s : shapes) {
      Tensor a{Shape{s.m, s.k}}, b{Shape{s.k, s.n}}, c{Shape{s.m, s.n}};
      rng.fill_uniform(a, -1.0f, 1.0f);
      rng.fill_uniform(b, -1.0f, 1.0f);
      linalg::PackedWeights packed;
      if (s.prepacked) packed.pack(false, s.k, s.n, b.data(), s.n);
      const long long t0 = now_ns();
      const double sec = seconds_per_call(
          [&] {
            if (s.prepacked)
              linalg::gemm_prepacked(false, s.m, s.n, s.k, 1.0f, a.data(), s.k,
                                     packed, 0.0f, c.data(), s.n);
            else
              linalg::gemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k,
                           b.data(), s.n, 0.0f, c.data(), s.n, nullptr);
          },
          min_s);
      span(s.span, t0);
      out.push_back({s.metric,
                     2.0 * static_cast<double>(s.m * s.n * s.k) / sec / 1e9,
                     "GFLOP/s"});
    }
  }

  // ---- runtime.inference_session: rq32 at batch 16, as resnet_classify
  // serves it ----
  {
    auto net = models::make_cifar_resnet(rq32_config());
    const auto macs = static_cast<double>(net->macs_per_image());
    runtime::SessionConfig cfg;
    cfg.sample_shape = Shape{3, 32, 32};
    cfg.max_batch = 16;
    runtime::InferenceSession session(std::move(net), cfg);
    Tensor batch{Shape{16, 3, 32, 32}};
    rng.fill_uniform(batch, -1.0f, 1.0f);
    session.run(batch);
    const auto prof0 = session.stage_profile();
    std::vector<double> ms;
    const long long t0 = now_ns();
    for (int r = 0; r < reps + 1; ++r) {
      const long long c0 = now_ns();
      session.run(batch);
      ms.push_back(static_cast<double>(now_ns() - c0) / 1e6);
    }
    span("probe.infer.run.b16", t0);
    const double run_ms = median(ms);
    out.push_back({"infer.run_ms.b16", run_ms, "ms"});
    out.push_back({"infer.gmacs_per_s", macs * 16.0 / (run_ms / 1e3) / 1e9,
                   "GMAC/s"});
    const auto stages =
        profile_delta(prof0, session.stage_profile(), resnet_group);
    for (const char* g :
         {"quad_conv", "batchnorm", "relu", "residual_add", "shortcut"})
      out.push_back({std::string("infer.stage_share.") + g, share(stages, g),
                     "share"});
  }
  obs::set_trace_enabled(was_tracing);
  return out;
}

}  // namespace qbench
