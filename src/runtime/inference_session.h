// InferenceSession: the serving facade over a trained model.
//
// A session takes ownership of a built Module and prepares everything a
// hot serving loop needs exactly once — the build → bind/freeze → run
// lifecycle:
//
//   * the model is switched to eval mode and flattened into per-layer
//     stages via Module::flatten_into.  Composite modules (Sequential,
//     ResNet, the Transformer encoder) expand into primitive native
//     stages, including explicit residual-add stages that reference
//     earlier activation boundaries; any other module runs as a single
//     stage through its forward_into (native or legacy-adapted);
//   * unless config.freeze is off, Module::freeze runs once: constant
//     weight matrices are prepacked (linalg::PackedWeights), so requests
//     perform no per-call gemm packing and the packing scratch drops out
//     of the workspace watermark (asserted by
//     tests/runtime/session_test.cpp);
//   * the stages become a runtime::StagePlan (stage_plan.h) walked at
//     the largest shard's input, whose boundary buffers are planned by
//     liveness — a pure chain gets the classic two ping-pong buffers,
//     residual pipelines hold a boundary alive exactly until its last
//     reader;
//   * each shard runs the plan on its own runtime::StageLane: private
//     boundary buffers for its row range (shards run the pipeline
//     without a stage barrier, so intermediates must not be shared), a
//     Workspace whose watermark is discovered by a warm-up pass and then
//     consolidated into one contiguous block, and its own profiling
//     slots, while every final-stage output lands in one shared output
//     buffer at the shard's disjoint row slice.
//
// After warm-up, run() performs ZERO heap allocations through every
// stage with a native forward_into (asserted by
// tests/runtime/session_test.cpp with a counting global allocator) —
// also when the batch size changes: the lanes re-slice their views in
// place.
//
// num_threads > 1 splits the batch rows into that many shards and runs
// them as the parts of one core::WorkerPool call: the session owns a pool
// of shards − 1 workers, and the calling thread runs shards too.  Any
// thread may run any shard, and every part runs under a
// linalg::GemmSerialScope — the shards already saturate the batch
// dimension, so a nested row-sharded gemm would only oversubscribe
// cores.  Sharding requires every module stage to have a native
// forward_into (the legacy adapter mutates per-module caches shared by
// all shards, so the constructor rejects sharded sessions over
// unmigrated modules) and relies on stages being per-sample independent
// at inference, which holds for all qdnn layers in eval mode (BatchNorm
// uses running stats).  Results are bit-identical to the single-shard
// path, which builds no pool and takes no lock.
//
// Thread-safety: run() is synchronous and not reentrant; drive one
// session per serving thread or serialize callers.  A run() that finds
// another run() mid-flight — on another thread, or called back from one
// of its own stages — fails a QDNN_CHECK before it rebinds or reads
// anything, instead of racing it (a guard, not a lock).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/worker_pool.h"
#include "obs/profile.h"
#include "runtime/stage_plan.h"

namespace qdnn::runtime {

struct SessionConfig {
  // Per-sample input shape, without the batch dimension — e.g. {in} for
  // dense models, {C, H, W} for image models, {T} for token-id models.
  Shape sample_shape;
  // Largest batch run() will be asked to serve (activation buffers are
  // sized for it).
  index_t max_batch = 1;
  // 1 runs inline; >1 shards batch rows across a session-owned pool.
  int num_threads = 1;
  // Run one dummy pass at construction so the workspace watermark is
  // discovered (and consolidated) before the first real request.
  bool warmup = true;
  // Invoke Module::freeze at bind time: prepack constant weights and drop
  // training caches.  Off only for A/B measurement (bench/micro_ops) —
  // results are bit-identical either way.
  bool freeze = true;
};

class InferenceSession {
 public:
  InferenceSession(nn::ModulePtr model, SessionConfig config);

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  // Serves one batch [n, sample_shape...], n in [1, max_batch].  The
  // returned view aliases an internal activation buffer and is valid
  // until the next run() call (copy it out with to_tensor() to keep it).
  // Views pass and return by reference so the steady-state path never
  // copies a Shape.
  const ConstTensorView& run(const Tensor& batch);
  const ConstTensorView& run(const ConstTensorView& batch);

  // Logits shape for a given batch size.
  Shape output_shape(index_t batch_size) const;

  index_t max_batch() const { return config_.max_batch; }
  int num_threads() const { return static_cast<int>(shards_.size()); }
  index_t num_stages() const { return plan_.num_stages(); }
  // The flattened stage plan (residual-add stages have a null module).
  const std::vector<nn::PipelineStage>& pipeline() const {
    return plan_.stages();
  }
  // Output shape of one stage's boundary for a given batch size.
  Shape stage_output_shape(index_t stage, index_t batch_size) const;
  // True when every module stage has a native (allocation-free)
  // forward_into (residual-add stages are native by construction).
  bool fully_native() const;
  // True when the model was frozen at bind time.
  bool frozen() const { return config_.freeze; }
  // Footprint introspection, in floats.
  index_t activation_floats() const;
  index_t workspace_floats() const;

  // Per-stage wall-time accumulated by run() while tracing is enabled
  // (obs::trace_enabled()): one entry per pipeline stage, shard
  // accumulators summed (each shard times its own row range — no shared
  // writes).  Two clock reads per stage per shard pass while tracing,
  // nothing when off.  Allocates only the returned vector.  Not
  // thread-safe with a concurrent run() — read between requests.
  std::vector<obs::StageTiming> stage_profile() const;

  const nn::Module& model() const { return *model_; }

 private:
  // One contiguous row-range of the batch, processed end-to-end by one
  // pool part, on whichever thread claims it, through the shard's own
  // lane; only the final stage writes the shared output buffer, at this
  // shard's disjoint row slice.
  struct Shard {
    index_t row_begin = 0;
    index_t rows = 0;
    StageLane lane;
  };

  void bind(index_t n);
  void run_shard(Shard& shard, const float* input) const;
  const ConstTensorView& run_impl(const float* data, index_t n);
  void check_input_shape(const Shape& shape) const;
  Shape batch_shape(index_t n) const;

  nn::ModulePtr model_;
  SessionConfig config_;
  StagePlan plan_;
  index_t sample_numel_ = 0;
  index_t out_sample_numel_ = 0;  // per-sample numel of the final boundary
  Tensor output_buffer_;  // [max_batch · out_sample_numel_], shared
  std::vector<Shard> shards_;
  ConstTensorView output_view_;
  index_t bound_n_ = 0;
  // Claimed by run() before it rebinds anything.
  std::atomic<bool> in_flight_{false};
  // Runs the shards (null with one shard).  Declared last so its workers
  // are joined before the shards they run are destroyed.
  std::unique_ptr<core::WorkerPool> pool_;
};

}  // namespace qdnn::runtime
