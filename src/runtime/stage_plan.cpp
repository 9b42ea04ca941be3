#include "runtime/stage_plan.h"

#include <algorithm>
#include <atomic>

#include "obs/trace.h"

namespace qdnn::runtime {

bool fully_native(const std::vector<nn::PipelineStage>& stages) {
  for (const nn::PipelineStage& st : stages)
    if (!st.is_add() && !st.module->supports_forward_into()) return false;
  return true;
}

StagePlan::StagePlan(std::vector<nn::PipelineStage> stages,
                     const Shape& max_input, const char* driver)
    : stages_(std::move(stages)), max_input_(max_input), driver_(driver) {
  static std::atomic<std::uint64_t> plans{0};
  serial_ = ++plans;
  nn::validate_pipeline(stages_, driver_);
  QDNN_CHECK(max_input_.rank() >= 1 && max_input_.numel() > 0,
             driver_ << ": empty pipeline input " << max_input_);
  const std::vector<Shape> shapes = boundary_shapes(max_input_);
  max_output_ = shapes.back();

  // last_use[b]: last stage reading boundary b; a boundary nobody reads is
  // released right after its producer.
  const auto s_count = static_cast<index_t>(stages_.size());
  std::vector<index_t> last_use(static_cast<std::size_t>(s_count));
  for (index_t b = 0; b < s_count; ++b)
    last_use[static_cast<std::size_t>(b)] = b;
  for (index_t i = 0; i < s_count; ++i) {
    const nn::PipelineStage& st = stages_[static_cast<std::size_t>(i)];
    for (index_t b : {st.input, st.addend})
      if (b >= 0)
        last_use[static_cast<std::size_t>(b)] =
            std::max(last_use[static_cast<std::size_t>(b)], i);
    if (st.input < 0) input_stages_.push_back(i);
    if (st.is_add() && st.addend < 0) input_addends_.push_back(i);
  }

  // Greedy linear scan: take a slot for each boundary while the stage's
  // operands are still held (forward_into forbids in/out aliasing), then
  // free every boundary whose last reader has run.
  boundary_slot_.assign(static_cast<std::size_t>(s_count), -1);
  std::vector<bool> slot_free;
  for (index_t i = 0; i + 1 < s_count; ++i) {
    const auto it = std::find(slot_free.begin(), slot_free.end(), true);
    const auto slot = static_cast<std::size_t>(it - slot_free.begin());
    if (it == slot_free.end()) {
      slot_free.push_back(false);
      slot_capacity_.push_back(0);
    }
    slot_free[slot] = false;
    boundary_slot_[static_cast<std::size_t>(i)] = static_cast<index_t>(slot);
    slot_capacity_[slot] = std::max(
        slot_capacity_[slot], shapes[static_cast<std::size_t>(i)].numel());
    for (index_t b = 0; b <= i; ++b)
      if (last_use[static_cast<std::size_t>(b)] == i &&
          boundary_slot_[static_cast<std::size_t>(b)] >= 0)
        slot_free[static_cast<std::size_t>(
            boundary_slot_[static_cast<std::size_t>(b)])] = true;
  }
}

Shape StagePlan::stage_output(std::size_t i, const Shape& in,
                              const Shape& addend) const {
  const nn::PipelineStage& st = stages_[i];
  if (st.is_add()) {
    QDNN_CHECK(in == addend, driver_ << ": residual-add stage " << i
                                     << " operand shapes " << in << " vs "
                                     << addend);
    return in;
  }
  Shape out = st.module->output_shape(in);
  QDNN_CHECK(out.rank() >= 1 && out[0] == in[0],
             st.module->name() << ": stage output " << out
                               << " does not keep the leading dimension "
                               << in[0]);
  return out;
}

std::vector<Shape> StagePlan::boundary_shapes(const Shape& input) const {
  std::vector<Shape> shapes;
  shapes.reserve(stages_.size());
  const auto shape_of = [&](index_t b) -> const Shape& {
    return b < 0 ? input : shapes[static_cast<std::size_t>(b)];
  };
  for (std::size_t i = 0; i < stages_.size(); ++i)
    shapes.push_back(stage_output(i, shape_of(stages_[i].input),
                                  shape_of(stages_[i].addend)));
  return shapes;
}

StageLane::StageLane(const StagePlan& plan, bool external_output)
    : plan_(&plan),
      plan_serial_(plan.serial_),
      external_output_(external_output) {
  slots_.reserve(plan.slot_capacity_.size());
  for (index_t floats : plan.slot_capacity_)
    slots_.emplace_back(Shape{floats});
  if (!external_output) own_output_ = Tensor{plan.max_output_};
  const std::size_t n = plan.stages_.size();
  in_views_.resize(n);
  add_views_.resize(n);
  out_views_.resize(n);
  stage_ns_.assign(n, 0);
  stage_calls_.assign(n, 0);
}

void StageLane::bind(const Shape& input, float* output) {
  QDNN_CHECK(plan_ != nullptr, "StageLane: bind before init");
  if (input == bound_input_ && output == bound_output_) return;
  bound_input_ = Shape{};  // unbound until every view is re-sliced
  const StagePlan& plan = *plan_;
  QDNN_CHECK((output != nullptr) == external_output_,
             plan.driver_ << (external_output_
                                  ? ": lane has no output buffer of its own"
                                  : ": lane owns its output buffer"));
  float* final_data = external_output_ ? output : own_output_.data();
  // The pipeline-input views get their data at every run(); until then
  // they point at the final boundary, a placeholder the view constructor
  // accepts.
  const auto data_of = [&](index_t b) -> float* {
    if (b < 0) return final_data;
    const index_t slot = plan.boundary_slot_[static_cast<std::size_t>(b)];
    return slot < 0 ? final_data
                    : slots_[static_cast<std::size_t>(slot)].data();
  };
  const auto shape_of = [&](index_t b) -> const Shape& {
    return b < 0 ? input : out_views_[static_cast<std::size_t>(b)].shape();
  };
  for (std::size_t i = 0; i < plan.stages_.size(); ++i) {
    const nn::PipelineStage& st = plan.stages_[i];
    const Shape out =
        plan.stage_output(i, shape_of(st.input), shape_of(st.addend));
    // Bounded by the buffers this lane holds; an external output is the
    // caller's to size, so only the plan's maximum bounds it.
    const index_t slot = plan.boundary_slot_[i];
    const index_t capacity =
        slot >= 0 ? slots_[static_cast<std::size_t>(slot)].numel()
        : external_output_ ? plan.max_output_.numel()
                           : own_output_.numel();
    QDNN_CHECK(out.numel() <= capacity,
               plan.driver_ << ": input " << input << " gives stage " << i
                            << " output " << out
                            << ", beyond the plan's maximum "
                            << plan.max_input_);
    in_views_[i] = ConstTensorView(shape_of(st.input), data_of(st.input));
    if (st.is_add())
      add_views_[i] =
          ConstTensorView(shape_of(st.addend), data_of(st.addend));
    out_views_[i] = TensorView(out, data_of(static_cast<index_t>(i)));
  }
  bound_input_ = input;
  bound_output_ = output;
}

void StageLane::run(const float* input) {
  QDNN_CHECK(bound_input_.rank() > 0, "StageLane: run before bind");
  const StagePlan& plan = *plan_;
  for (index_t i : plan.input_stages_)
    in_views_[static_cast<std::size_t>(i)].rebind(input);
  for (index_t i : plan.input_addends_)
    add_views_[static_cast<std::size_t>(i)].rebind(input);
  const bool profiling = obs::trace_enabled();
  long long t_prev = profiling ? obs::now_ns() : 0;
  for (std::size_t i = 0; i < plan.stages_.size(); ++i) {
    const nn::PipelineStage& st = plan.stages_[i];
    if (st.is_add()) {
      nn::residual_add(in_views_[i].data(), add_views_[i].data(),
                       out_views_[i].data(), out_views_[i].numel());
    } else {
      ws_.reset();
      st.module->forward_into(in_views_[i], out_views_[i], ws_);
    }
    if (profiling) {
      const long long t_now = obs::now_ns();
      stage_ns_[i] += t_now - t_prev;
      ++stage_calls_[i];
      t_prev = t_now;
    }
  }
}

index_t StageLane::activation_floats() const {
  index_t total = external_output_ ? 0 : own_output_.numel();
  for (const Tensor& slot : slots_) total += slot.numel();
  return total;
}

}  // namespace qdnn::runtime
