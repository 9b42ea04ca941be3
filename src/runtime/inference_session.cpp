#include "runtime/inference_session.h"

#include <algorithm>

#include "linalg/gemm_backend.h"
#include "obs/trace.h"

namespace qdnn::runtime {

InferenceSession::InferenceSession(nn::ModulePtr model, SessionConfig config)
    : model_(std::move(model)), config_(std::move(config)) {
  QDNN_CHECK(model_ != nullptr, "InferenceSession: null model");
  QDNN_CHECK(config_.max_batch > 0,
             "InferenceSession: max_batch must be positive");
  model_->set_training(false);

  // Flatten the model into per-layer stages.  Composite modules expand
  // recursively; leaves become single stages consuming the previous
  // boundary.
  model_->flatten_into(stages_);
  nn::validate_pipeline(stages_, "InferenceSession");
  sample_numel_ = config_.sample_shape.numel();
  QDNN_CHECK(sample_numel_ > 0, "InferenceSession: empty sample_shape");

  // Bind step: prepack constant weights and drop training caches before
  // the warm-up pass, so the workspace watermark never includes packing
  // scratch.
  if (config_.freeze) model_->freeze();

  // Walk the shape pipeline once at max_batch: validates every stage's
  // output_shape and records per-sample boundary sizes.
  const std::vector<Shape> shapes = boundary_shapes(config_.max_batch);
  stage_sample_numel_.reserve(shapes.size());
  for (const Shape& s : shapes)
    stage_sample_numel_.push_back(s.numel() / config_.max_batch);
  output_buffer_ =
      Tensor{Shape{config_.max_batch * stage_sample_numel_.back()}};

  // Liveness-planned boundary buffer slots.
  plan_buffers();

  index_t threads = std::max<index_t>(1, config_.num_threads);
  threads = std::min(threads, config_.max_batch);
  // Sharding runs stages concurrently on disjoint batch rows.  That is
  // only sound for native forward_into implementations; the legacy
  // adapter calls forward(), which mutates per-module caches shared by
  // all shards — a data race.  Reject rather than corrupt.
  QDNN_CHECK(threads == 1 || fully_native(),
             "InferenceSession: num_threads > 1 requires every stage to "
             "support forward_into (a legacy-adapted stage is not "
             "thread-safe); run this model with num_threads = 1");
  shards_.resize(static_cast<std::size_t>(threads));

  // Private boundary buffers, sized for the largest row count a shard can
  // receive (even split of max_batch) times each slot's widest boundary.
  // Shards run stage pipelines without a barrier, so intermediates must
  // never be shared across shards.
  const index_t shard_rows_cap = (config_.max_batch + threads - 1) / threads;
  for (Shard& shard : shards_) {
    shard.buffers.reserve(slot_sample_numel_.size());
    for (index_t slot_numel : slot_sample_numel_)
      shard.buffers.emplace_back(Shape{shard_rows_cap * slot_numel});
    shard.stage_ns.assign(stages_.size(), 0);
    shard.stage_calls.assign(stages_.size(), 0);
  }

  bind(config_.max_batch);
  if (threads > 1)
    pool_ = std::make_unique<core::WorkerPool>(static_cast<int>(threads) - 1);

  if (config_.warmup) {
    // One dummy pass grows each shard's workspace to its watermark;
    // consolidation then leaves a single contiguous block so real
    // requests never allocate.
    Tensor dummy{batch_shape(config_.max_batch)};
    run_impl(dummy.data(), config_.max_batch);
    for (Shard& shard : shards_) {
      shard.ws.reset();
      shard.ws.consolidate();
    }
  }
}

Shape InferenceSession::batch_shape(index_t n) const {
  std::vector<index_t> dims;
  dims.reserve(static_cast<std::size_t>(config_.sample_shape.rank()) + 1);
  dims.push_back(n);
  for (index_t d : config_.sample_shape) dims.push_back(d);
  return Shape(dims);
}

std::vector<Shape> InferenceSession::boundary_shapes(index_t n) const {
  std::vector<Shape> shapes;
  shapes.reserve(stages_.size());
  const Shape input_shape = batch_shape(n);
  auto shape_of = [&](index_t b) -> const Shape& {
    return b < 0 ? input_shape : shapes[static_cast<std::size_t>(b)];
  };
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const nn::PipelineStage& st = stages_[i];
    Shape out;
    if (st.is_add()) {
      QDNN_CHECK(shape_of(st.input) == shape_of(st.addend),
                 "InferenceSession: residual-add stage "
                     << i << " operand shapes " << shape_of(st.input)
                     << " vs " << shape_of(st.addend));
      out = shape_of(st.input);
    } else {
      out = st.module->output_shape(shape_of(st.input));
      QDNN_CHECK(out.rank() >= 1 && out[0] == n,
                 st.module->name()
                     << ": stage output " << out
                     << " does not keep the batch as leading dimension");
    }
    shapes.push_back(std::move(out));
  }
  return shapes;
}

void InferenceSession::plan_buffers() {
  // last_use[b]: last stage reading boundary b; a boundary nobody reads is
  // released right after its producer.  The final boundary lives in the
  // shared output buffer and never takes a slot.
  const auto s_count = static_cast<index_t>(stages_.size());
  std::vector<index_t> last_use(static_cast<std::size_t>(s_count));
  for (index_t b = 0; b < s_count; ++b)
    last_use[static_cast<std::size_t>(b)] = b;
  for (index_t i = 0; i < s_count; ++i) {
    const nn::PipelineStage& st = stages_[static_cast<std::size_t>(i)];
    if (st.input >= 0)
      last_use[static_cast<std::size_t>(st.input)] =
          std::max(last_use[static_cast<std::size_t>(st.input)], i);
    if (st.addend >= 0)
      last_use[static_cast<std::size_t>(st.addend)] =
          std::max(last_use[static_cast<std::size_t>(st.addend)], i);
  }

  // Greedy linear scan: allocate a slot for each boundary while the
  // stage's inputs are still held (forward_into forbids in/out aliasing),
  // then release every boundary whose last reader has run.  A pure chain
  // degenerates to the classic two ping-pong buffers; residual pipelines
  // hold a boundary exactly until its residual-add.
  boundary_slot_.assign(static_cast<std::size_t>(s_count), -1);
  slot_sample_numel_.clear();
  std::vector<bool> slot_free;
  for (index_t i = 0; i < s_count; ++i) {
    if (i + 1 < s_count) {
      index_t slot = -1;
      for (std::size_t s = 0; s < slot_free.size(); ++s)
        if (slot_free[s]) {
          slot = static_cast<index_t>(s);
          break;
        }
      if (slot < 0) {
        slot = static_cast<index_t>(slot_free.size());
        slot_free.push_back(false);
        slot_sample_numel_.push_back(0);
      }
      slot_free[static_cast<std::size_t>(slot)] = false;
      boundary_slot_[static_cast<std::size_t>(i)] = slot;
      slot_sample_numel_[static_cast<std::size_t>(slot)] =
          std::max(slot_sample_numel_[static_cast<std::size_t>(slot)],
                   stage_sample_numel_[static_cast<std::size_t>(i)]);
    }
    for (index_t b = 0; b <= i; ++b) {
      if (last_use[static_cast<std::size_t>(b)] == i &&
          boundary_slot_[static_cast<std::size_t>(b)] >= 0)
        slot_free[static_cast<std::size_t>(
            boundary_slot_[static_cast<std::size_t>(b)])] = true;
    }
  }

  input_bound_stages_.clear();
  input_bound_addends_.clear();
  for (index_t i = 0; i < s_count; ++i) {
    if (stages_[static_cast<std::size_t>(i)].input == -1)
      input_bound_stages_.push_back(i);
    if (stages_[static_cast<std::size_t>(i)].is_add() &&
        stages_[static_cast<std::size_t>(i)].addend == -1)
      input_bound_addends_.push_back(i);
  }
}

Shape InferenceSession::output_shape(index_t batch_size) const {
  return boundary_shapes(batch_size).back();
}

Shape InferenceSession::stage_output_shape(index_t stage,
                                           index_t batch_size) const {
  QDNN_CHECK(stage >= 0 && stage < num_stages(),
             "InferenceSession: stage " << stage << " out of "
                                        << num_stages());
  return boundary_shapes(batch_size)[static_cast<std::size_t>(stage)];
}

bool InferenceSession::fully_native() const {
  for (const nn::PipelineStage& st : stages_)
    if (!st.is_add() && !st.module->supports_forward_into()) return false;
  return true;
}

index_t InferenceSession::activation_floats() const {
  index_t total = output_buffer_.numel();
  for (const Shard& shard : shards_)
    for (const Tensor& buf : shard.buffers) total += buf.numel();
  return total;
}

index_t InferenceSession::workspace_floats() const {
  index_t total = 0;
  for (const Shard& shard : shards_) total += shard.ws.capacity();
  return total;
}

void InferenceSession::bind(index_t n) {
  // Full boundary shapes for this batch size.
  const std::vector<Shape> stage_shapes = boundary_shapes(n);

  // Rows are split as evenly as possible; shard r of T gets one of the
  // n % T remainder rows when r < n % T.
  const auto t = static_cast<index_t>(shards_.size());
  const index_t base = n / t, rem = n % t;
  index_t row = 0;
  for (index_t r = 0; r < t; ++r) {
    Shard& shard = shards_[static_cast<std::size_t>(r)];
    shard.row_begin = row;
    shard.rows = base + (r < rem ? 1 : 0);
    row += shard.rows;
    shard.in_views.clear();
    shard.add_views.clear();
    shard.out_views.clear();
    shard.in_views.reserve(stages_.size());
    shard.add_views.reserve(stages_.size());
    shard.out_views.reserve(stages_.size());

    // The pipeline-input view shape: [rows, sample...].  The data pointer
    // is bound to the caller's batch at every run (rebind — no Shape
    // copies on the hot path); output_buffer_ is a placeholder with
    // enough room for the QDNN_CHECKs in the view constructor.
    std::vector<index_t> in_dims{shard.rows};
    for (index_t d : config_.sample_shape) in_dims.push_back(d);
    const Shape input_shape{in_dims};

    // Boundary data for this shard: slot buffer, or the shared output
    // buffer slice for the final boundary.
    auto boundary_data = [&](index_t b) -> float* {
      if (b + 1 == static_cast<index_t>(stages_.size()))
        return output_buffer_.data() +
               shard.row_begin * stage_sample_numel_.back();
      return shard.buffers[static_cast<std::size_t>(
                               boundary_slot_[static_cast<std::size_t>(b)])]
          .data();
    };
    auto shard_shape = [&](index_t b) {
      std::vector<index_t> dims;
      if (b < 0) return input_shape;
      for (index_t d : stage_shapes[static_cast<std::size_t>(b)])
        dims.push_back(d);
      dims[0] = shard.rows;
      return Shape{dims};
    };

    for (std::size_t i = 0; i < stages_.size(); ++i) {
      const nn::PipelineStage& st = stages_[i];
      const float* in_data = st.input < 0 ? output_buffer_.data()
                                          : boundary_data(st.input);
      shard.in_views.emplace_back(shard_shape(st.input), in_data);
      if (st.is_add()) {
        const float* add_data = st.addend < 0 ? output_buffer_.data()
                                              : boundary_data(st.addend);
        shard.add_views.emplace_back(shard_shape(st.addend), add_data);
      } else {
        shard.add_views.emplace_back();
      }
      shard.out_views.emplace_back(shard_shape(static_cast<index_t>(i)),
                                   boundary_data(static_cast<index_t>(i)));
    }
  }

  output_view_ = ConstTensorView(stage_shapes.back(),
                                 output_buffer_.data());
  bound_n_ = n;
}

void InferenceSession::check_input_shape(const Shape& shape) const {
  QDNN_CHECK(shape.rank() == config_.sample_shape.rank() + 1,
             "InferenceSession: batch rank " << shape.rank()
                                             << " != 1 + sample rank");
  for (index_t i = 0; i < config_.sample_shape.rank(); ++i)
    QDNN_CHECK(shape[i + 1] == config_.sample_shape[i],
               "InferenceSession: batch dim " << i + 1 << " is "
                                              << shape[i + 1] << ", expected "
                                              << config_.sample_shape[i]);
  QDNN_CHECK(shape[0] >= 1 && shape[0] <= config_.max_batch,
             "InferenceSession: batch size " << shape[0]
                                             << " outside [1, "
                                             << config_.max_batch << "]");
}

const ConstTensorView& InferenceSession::run(const Tensor& batch) {
  check_input_shape(batch.shape());
  return run_impl(batch.data(), batch.dim(0));
}

const ConstTensorView& InferenceSession::run(const ConstTensorView& batch) {
  check_input_shape(batch.shape());
  return run_impl(batch.data(), batch.dim(0));
}

const ConstTensorView& InferenceSession::run_impl(const float* data,
                                                  index_t n) {
  // The view run() returns aliases output_buffer_; feeding it straight
  // back in would make stage 0 read the bytes it is overwriting (and
  // race across shards).  Reject instead of silently corrupting.
  const float* out_begin = output_buffer_.data();
  const float* out_end = out_begin + output_buffer_.numel();
  QDNN_CHECK(data + n * sample_numel_ <= out_begin || data >= out_end,
             "InferenceSession: input batch aliases the session's output "
             "buffer — copy the previous result (to_tensor()) before "
             "feeding it back");
  if (n != bound_n_) bind(n);
  if (!pool_) {
    run_shard(shards_[0], data);
    return output_view_;
  }
  auto part = [this, data](int i) {
    linalg::GemmSerialScope serial_gemm;
    run_shard(shards_[static_cast<std::size_t>(i)], data);
  };
  QDNN_CHECK(pool_->try_run(static_cast<int>(shards_.size()), part),
             "InferenceSession: run() called from two threads at once — "
             "a session serves one caller at a time");
  return output_view_;
}

void InferenceSession::run_shard(Shard& shard, const float* input) const {
  if (shard.rows == 0) return;
  const float* shard_input = input + shard.row_begin * sample_numel_;
  for (index_t i : input_bound_stages_)
    shard.in_views[static_cast<std::size_t>(i)].rebind(shard_input);
  for (index_t i : input_bound_addends_)
    shard.add_views[static_cast<std::size_t>(i)].rebind(shard_input);
  // Stage profiling piggybacks on the trace gate: two clock reads per
  // stage while tracing, nothing at all (one relaxed load) when off.
  // Each shard writes only its own accumulators — no cross-thread writes.
  const bool profiling = obs::trace_enabled();
  long long t_prev = profiling ? obs::now_ns() : 0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const nn::PipelineStage& st = stages_[i];
    if (st.is_add()) {
      // Residual-add stage: out = in + addend.
      nn::residual_add(shard.in_views[i].data(), shard.add_views[i].data(),
                       shard.out_views[i].data(), shard.out_views[i].numel());
    } else {
      // Scratch lives only within a stage; rewinding here caps the
      // workspace at the per-stage maximum instead of the pipeline sum.
      shard.ws.reset();
      st.module->forward_into(shard.in_views[i], shard.out_views[i],
                              shard.ws);
    }
    if (profiling) {
      const long long t_now = obs::now_ns();
      shard.stage_ns[i] += t_now - t_prev;
      ++shard.stage_calls[i];
      t_prev = t_now;
    }
  }
}

std::vector<obs::StageTiming> InferenceSession::stage_profile() const {
  std::vector<obs::StageTiming> out;
  out.reserve(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const nn::PipelineStage& st = stages_[i];
    obs::StageTiming t;
    t.name = st.is_add() ? "residual_add" : st.module->name();
    for (const Shard& shard : shards_) {
      t.calls += shard.stage_calls[i];
      t.total_ns += shard.stage_ns[i];
    }
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace qdnn::runtime
