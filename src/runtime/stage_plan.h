// StagePlan / StageLane: the one driver every serving pipeline runs on.
//
// A StagePlan is the shared, immutable half: a flattened stage list
// (Module::flatten_into — module stages plus residual-add stages over
// numbered boundaries, see nn::PipelineStage), validated once, whose
// boundary shapes are walked at the plan's MAXIMUM input shape and whose
// boundary buffers are planned by liveness — a pure chain gets the
// classic two ping-pong slots, a residual pipeline holds a boundary
// exactly until its last reader.  The final boundary takes no slot: it
// lands in the lane's own output buffer or in one the caller names.
//
// A StageLane is the per-caller half: the slot buffers (sized for the
// plan's maximum), one view per stage operand, a Workspace and the
// per-stage profiling accumulators.  bind(input_shape) re-walks the
// boundary shapes for any input up to the maximum (batch rows, source
// length, ...) and re-slices the views in place — Shapes are inline, so
// a rebind performs ZERO heap allocations; run(input) points the
// input-reading views at the caller's data and runs every stage, each
// module stage from a freshly rewound workspace (scratch lives within a
// stage, so the watermark is the per-stage maximum, not the pipeline
// sum).  Once a lane has run at the maximum shape and its workspace is
// consolidated, every later bind + run is allocation-free.
//
// Users: runtime::InferenceSession (one lane per batch shard),
// runtime::DecodeSession (one lane for the decode step, between its
// embed and argmax pseudo-stages) and prefill (one lane per
// PrefillStaging, running the TransformerEncoder plan over the source's
// valid prefix).  Lanes share nothing mutable, so lanes of one plan run
// concurrently as long as every module stage's forward_into is native.
//
// Stage profiling piggybacks on the trace gate: two clock reads per stage
// while obs::trace_enabled(), one relaxed load per run when off.  Each
// lane writes only its own accumulators.
#pragma once

#include <cstdint>
#include <vector>

#include "core/workspace.h"
#include "nn/module.h"

namespace qdnn::runtime {

// True when every module stage has a native (allocation-free)
// forward_into; residual-add stages are native by construction.
bool fully_native(const std::vector<nn::PipelineStage>& stages);

class StagePlan {
 public:
  StagePlan() = default;
  // Validates the wiring (nn::validate_pipeline), walks the boundary
  // shapes at `max_input` and plans the slots.  Every boundary must keep
  // `max_input`'s leading dimension.  `driver` names the owner in error
  // messages (a string literal: the plan keeps the pointer).
  StagePlan(std::vector<nn::PipelineStage> stages, const Shape& max_input,
            const char* driver);

  const std::vector<nn::PipelineStage>& stages() const { return stages_; }
  index_t num_stages() const { return static_cast<index_t>(stages_.size()); }
  const Shape& max_input() const { return max_input_; }
  // The final boundary's shape at the maximum input.
  const Shape& max_output() const { return max_output_; }
  // Every boundary's shape for `input` (allocates the returned vector;
  // introspection only — lanes rebind without it).
  std::vector<Shape> boundary_shapes(const Shape& input) const;

 private:
  friend class StageLane;

  // Output shape of stage `i` given its operand shapes (checked).
  Shape stage_output(std::size_t i, const Shape& in,
                     const Shape& addend) const;

  std::vector<nn::PipelineStage> stages_;
  Shape max_input_, max_output_;
  const char* driver_ = "StagePlan";
  // Unique per constructed plan: tells a lane's own plan from a later
  // one built at the same address.
  std::uint64_t serial_ = 0;
  // boundary_slot_[b]: slot holding boundary b (-1 for the final one);
  // slot_capacity_[s]: floats of slot s at the maximum input.
  std::vector<index_t> boundary_slot_;
  std::vector<index_t> slot_capacity_;
  // Stages whose input (or addend) is the pipeline input, re-pointed at
  // the caller's data every run.
  std::vector<index_t> input_stages_;
  std::vector<index_t> input_addends_;
};

class StageLane {
 public:
  StageLane() = default;
  // Allocates the slot buffers for the plan's maximum input, plus an own
  // output buffer unless `external_output` (then every bind names where
  // the final boundary lands).  The plan must outlive the lane.
  explicit StageLane(const StagePlan& plan, bool external_output = false);

  // Movable (the views point into heap buffers that move with the lane)
  // but not copyable: a copy's views would alias the original's buffers.
  StageLane(StageLane&&) = default;
  StageLane& operator=(StageLane&&) = default;

  // Re-slices every view for `input` (whose boundaries must fit the
  // lane's buffers) with the final boundary at `output` — non-null
  // exactly when the lane was built with an external output, which the
  // caller sizes.  No-op when neither changed; never allocates.
  void bind(const Shape& input, float* output = nullptr);
  // Runs every stage on `input` (laid out as the bound input shape).
  void run(const float* input);

  // True when the lane was built for `plan` itself — not for an earlier
  // plan that lived at the same address (its buffers and views would be
  // sized and wired for that one).
  bool runs(const StagePlan& plan) const {
    return plan_ == &plan && plan_serial_ == plan.serial_;
  }
  // The final boundary as last bound.
  const TensorView& output() const { return out_views_.back(); }
  Workspace& workspace() { return ws_; }
  const Workspace& workspace() const { return ws_; }
  // Floats in the lane's slot and own-output buffers.
  index_t activation_floats() const;

  // Per-stage accumulators, written by run() while tracing is enabled.
  const std::vector<long long>& stage_ns() const { return stage_ns_; }
  const std::vector<long long>& stage_calls() const { return stage_calls_; }

 private:
  const StagePlan* plan_ = nullptr;
  std::uint64_t plan_serial_ = 0;
  bool external_output_ = false;
  std::vector<Tensor> slots_;
  Tensor own_output_;  // unused with an external output
  Shape bound_input_;
  float* bound_output_ = nullptr;
  std::vector<ConstTensorView> in_views_;
  std::vector<ConstTensorView> add_views_;  // add stages only
  std::vector<TensorView> out_views_;
  Workspace ws_;
  std::vector<long long> stage_ns_;
  std::vector<long long> stage_calls_;
};

}  // namespace qdnn::runtime
