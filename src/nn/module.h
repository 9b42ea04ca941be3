// Module: the layer abstraction of qdnn.
//
// qdnn uses explicit forward/backward (not taped autograd): forward()
// caches whatever the layer needs, backward(grad_out) returns the gradient
// w.r.t. the layer input and accumulates parameter gradients.  All
// backward implementations are validated against central finite
// differences in tests/nn/gradcheck_test.cpp.
//
// Two execution APIs
// ------------------
//  * v1 (training): `Tensor forward(const Tensor&)` — value semantics,
//    allocates its output, caches activations for backward().
//  * v2 (inference): `forward_into(const ConstTensorView& in, const TensorView& out,
//    Workspace& ws)` — writes the result into caller-owned memory and
//    draws all scratch from `ws`.  Implementations must not allocate, must
//    not cache (backward() after forward_into() is undefined), and must
//    not reset `ws` (the pass driver owns the reset points).  `in` and
//    `out` never alias.  `output_shape(in_shape)` reports the result shape
//    so drivers (runtime::StagePlan) can preallocate buffers before any
//    data flows.
//
// Every module inherits a default forward_into() adapter that routes
// through the legacy copying forward(), so v1-only modules work inside v2
// drivers unchanged (at v1 cost).  Migrated modules override both
// forward_into() and supports_forward_into(); shape-changing modules must
// also override output_shape() (the default is shape-preserving).
//
// Data layout conventions:
//   dense activations   [N, D]
//   images              [N, C, H, W]
//   token sequences     [N, T] (ids) / [N, T, D] (embedded, flattened to
//                       [N*T, D] for dense sublayers)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/tensor_view.h"
#include "core/workspace.h"
#include "nn/parameter.h"

namespace qdnn::nn {

// A named non-trainable tensor owned by a module — persistent state that
// is not updated by the optimizer but must survive checkpointing (the
// canonical example: BatchNorm running statistics).
struct NamedBuffer {
  std::string name;
  Tensor* tensor = nullptr;
};

class Module;

// One stage of a flattened serving pipeline (Module::flatten_into).
//
// A pipeline is a list of stages over numbered activation boundaries:
// boundary -1 is the pipeline input and boundary i is the output of stage
// i.  A stage either runs a module (`module != nullptr`) on boundary
// `input`, or — when `module` is null — is a residual-add stage writing
// boundary[input] + boundary[addend] element-wise.  Referencing arbitrary
// earlier boundaries is what lets residual blocks (ResNet BasicBlock,
// Transformer encoder layers) flatten into primitive per-layer stages
// instead of serving as one monolithic adapter.  One driver runs every
// serving pipeline — runtime::StagePlan plans the boundary buffers by
// liveness and runtime::StageLane runs the stages (runtime/stage_plan.h)
// — for InferenceSession, the DecodeSession step and prefill alike.
struct PipelineStage {
  Module* module = nullptr;
  index_t input = -1;   // boundary consumed (stage position - 1 by default)
  index_t addend = -1;  // second operand of a residual-add stage

  bool is_add() const { return module == nullptr; }
};

// out[i] = a[i] + b[i], a residual-add stage in the training path's
// operand order; the stage driver checks the view shapes at bind.
inline void residual_add(const float* a, const float* b, float* out,
                         index_t count) {
  for (index_t i = 0; i < count; ++i) out[i] = a[i] + b[i];
}

// Checks the boundary wiring of a flattened stage plan: every stage may
// only read boundaries already produced, and only residual-add stages
// carry an addend.  runtime::StagePlan runs it on every plan, so a
// flatten_into regression fails identically under every session.
// `driver` names the caller in error messages.
void validate_pipeline(const std::vector<PipelineStage>& stages,
                       const char* driver);

class Module {
 public:
  virtual ~Module() = default;

  // Computes the layer output and caches activations needed by backward.
  virtual Tensor forward(const Tensor& input) = 0;

  // Given dL/d(output), accumulates dL/d(params) into Parameter::grad and
  // returns dL/d(input).  Must be called after a matching forward().
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // --- v2 inference API --------------------------------------------------

  // Shape of the output produced for an input of `input_shape`.  Default:
  // shape-preserving (element-wise layers, norms, dropout).
  virtual Shape output_shape(const Shape& input_shape) const {
    return input_shape;
  }

  // True when forward_into() is a native implementation that performs no
  // heap allocation and touches no shared module state (so concurrent
  // calls on disjoint batches are safe).  False for the legacy-forward()
  // adapter and for overrides that are native but still allocate
  // (nested Sequential).
  virtual bool supports_forward_into() const { return false; }

  // Writes the result of the layer into `output` (whose shape must equal
  // output_shape(input.shape())), drawing scratch from `ws`.  The default
  // adapter materializes Tensors and calls forward() — correct for every
  // module, allocation-free for none.
  virtual void forward_into(const ConstTensorView& input, const TensorView& output,
                            Workspace& ws);

  // --- freeze: one-time serving preparation ------------------------------
  //
  // freeze() is the bind step of the serving lifecycle
  // (build → bind/freeze → run): modules whose forward_into re-packs a
  // constant weight matrix per call (the gemm trans_b pack of Linear and
  // the quadratic dense families) materialize the pack now — a
  // linalg::PackedWeights — so steady-state requests perform no packing
  // and need no packing scratch.  freeze() also drops training-only caches
  // (saved activations) that would otherwise sit stale under a serving
  // process.  Composite modules must propagate both calls recursively.
  //
  // Frozen forward_into results are bit-identical to unfrozen ones.
  // Mutating parameters after freeze() leaves the packs stale: call
  // unfreeze() (or freeze() again) after any weight update.  forward()
  // itself never reads the packs, so training correctness is unaffected
  // either way.
  //
  // Overrides must invoke the base implementation so frozen() stays
  // truthful (modules with nothing to pack report frozen after freeze()
  // too — composites AND their lifecycle over all children).
  virtual void freeze() { frozen_ = true; }
  virtual void unfreeze() { frozen_ = false; }
  virtual bool frozen() const { return frozen_; }

  // --- flatten: serving stage pipelines ----------------------------------
  //
  // Appends this module's serving stages to `stages` in execution order.
  // The default is one stage (this module) consuming the previous
  // boundary.  Composite modules (Sequential, ResNet, the Transformer
  // encoder) override this so pipeline drivers serve them layer-by-layer
  // with per-stage buffers and native kernels — including residual-add
  // stages referencing earlier boundaries.  Overrides must compute
  // boundary ids from the current stages.size() so flattening composes.
  virtual void flatten_into(std::vector<PipelineStage>& stages) {
    stages.push_back(
        PipelineStage{this, static_cast<index_t>(stages.size()) - 1, -1});
  }

  // Convenience: the flattened pipeline of this module alone.
  std::vector<PipelineStage> stages() {
    std::vector<PipelineStage> out;
    flatten_into(out);
    return out;
  }

  // All trainable parameters owned by this module (recursively).
  virtual std::vector<Parameter*> parameters() { return {}; }

  // All persistent non-trainable state (recursively) — saved and restored
  // by nn::save_checkpoint/load_checkpoint alongside the parameters.
  virtual std::vector<NamedBuffer> buffers() { return {}; }

  // Human-readable identifier used in analysis outputs (Fig 7).
  virtual std::string name() const = 0;

  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

  index_t num_parameters() {
    index_t n = 0;
    for (Parameter* p : parameters()) n += p->numel();
    return n;
  }

 protected:
  bool training_ = true;
  bool frozen_ = false;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace qdnn::nn
