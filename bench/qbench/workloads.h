// The benchmark's fixed models and workload table, and the entry points
// main() dispatches to.
#pragma once

#include <string>

#include "common.h"
#include "models/resnet.h"
#include "models/transformer/transformer.h"

namespace qbench {

// qt128: the proposed-neuron Transformer of Table II (k = 3, attention
// projections at half width), random-init.  Untrained it never emits eos,
// so every request decodes exactly its budget.
qdnn::models::TransformerConfig qt128_config();
// rq32: the proposed-neuron CIFAR ResNet-32 of Fig. 4 (k = 9).
qdnn::models::ResNetConfig rq32_config();

inline constexpr index_t kBos = 1;
inline constexpr index_t kEos = 2;
inline constexpr index_t kMaxBatch = 8;  // rows per shard
inline constexpr index_t kMaxSteps = 64;

// One serving traffic mix through serve::Server.
struct ServeSpec {
  const char* name;
  // Open-loop Poisson arrivals per second; 0 = a closed burst, every
  // request due at t0.
  double rate;
  index_t shards;
  index_t prefill_workers;  // per shard; 0 = synchronous admission
  index_t pool_pages;       // per shard; 0 = the dense worst case
  index_t prefix_entries;   // per shard
  index_t ts_lo, ts_hi;     // source tokens
  index_t b_lo, b_hi;       // decode budgets
  index_t prompts;          // > 0: sources drawn from this many shared
                            // prompts with Zipf(1.1) popularity
  // SLO limits: time to first token, and mean gap between tokens.
  double ttft_slo_ms, tpot_slo_ms;
  enum class Headline { kTtft, kItl, kThroughput } headline;
};

// Null when `name` is not a serving workload.
const ServeSpec* find_serve_spec(const std::string& name);

// Runs one serving workload: end-to-end metrics into report.metrics, and
// when opts.traced (tracing on, spans recorded) the serving layers'
// metrics into `layers`.
RunReport run_serving(const ServeSpec& spec, const Options& opts,
                      SpanBuffer* spans, Metrics* layers);

// resnet_classify: rq32 through InferenceSession, one closed-loop client.
RunReport run_classify(const Options& opts, SpanBuffer* spans,
                       Metrics* layers);

// Direct-call probes of the decode session, the quadratic layer, gemm and
// the inference session — the per-layer numbers no workload exposes.
Metrics run_probes(const Options& opts, SpanBuffer& spans, long long parent);

}  // namespace qbench
