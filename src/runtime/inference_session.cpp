#include "runtime/inference_session.h"

#include <algorithm>

#include "linalg/gemm_backend.h"

namespace qdnn::runtime {

namespace {
constexpr const char* kAlreadyInFlight =
    "InferenceSession: run() is already in flight — a concurrent or "
    "re-entrant call; a session serves one caller at a time";
}  // namespace

InferenceSession::InferenceSession(nn::ModulePtr model, SessionConfig config)
    : model_(std::move(model)), config_(std::move(config)) {
  QDNN_CHECK(model_ != nullptr, "InferenceSession: null model");
  QDNN_CHECK(config_.max_batch > 0,
             "InferenceSession: max_batch must be positive");
  model_->set_training(false);
  sample_numel_ = config_.sample_shape.numel();
  QDNN_CHECK(sample_numel_ > 0, "InferenceSession: empty sample_shape");

  // Flatten the model into per-layer stages.  Composite modules expand
  // recursively; leaves become single stages consuming the previous
  // boundary.
  std::vector<nn::PipelineStage> stages;
  model_->flatten_into(stages);

  // Bind step: prepack constant weights and drop training caches before
  // the warm-up pass, so the workspace watermark never includes packing
  // scratch.
  if (config_.freeze) model_->freeze();

  index_t threads = std::max<index_t>(1, config_.num_threads);
  threads = std::min(threads, config_.max_batch);
  // Sharding runs stages concurrently on disjoint batch rows.  That is
  // only sound for native forward_into implementations; the legacy
  // adapter calls forward(), which mutates per-module caches shared by
  // all shards — a data race.  Reject rather than corrupt.
  QDNN_CHECK(threads == 1 || runtime::fully_native(stages),
             "InferenceSession: num_threads > 1 requires every stage to "
             "support forward_into (a legacy-adapted stage is not "
             "thread-safe); run this model with num_threads = 1");

  // The plan's maximum is the largest row count a shard can receive (an
  // even split of max_batch); each shard's lane holds private boundary
  // buffers of that size, and every shard's final boundary lands in the
  // shared output buffer.
  const index_t shard_rows_cap = (config_.max_batch + threads - 1) / threads;
  plan_ = StagePlan(std::move(stages), batch_shape(shard_rows_cap),
                    "InferenceSession");
  out_sample_numel_ = plan_.max_output().numel() / shard_rows_cap;
  output_buffer_ = Tensor{Shape{config_.max_batch * out_sample_numel_}};
  shards_.resize(static_cast<std::size_t>(threads));
  for (Shard& shard : shards_)
    shard.lane = StageLane(plan_, /*external_output=*/true);

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
      shard.lane.workspace().reset();
      shard.lane.workspace().consolidate();
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

Shape InferenceSession::output_shape(index_t batch_size) const {
  return plan_.boundary_shapes(batch_shape(batch_size)).back();
}

Shape InferenceSession::stage_output_shape(index_t stage,
                                           index_t batch_size) const {
  QDNN_CHECK(stage >= 0 && stage < num_stages(),
             "InferenceSession: stage " << stage << " out of "
                                        << num_stages());
  return plan_.boundary_shapes(
      batch_shape(batch_size))[static_cast<std::size_t>(stage)];
}

bool InferenceSession::fully_native() const {
  return runtime::fully_native(plan_.stages());
}

index_t InferenceSession::activation_floats() const {
  index_t total = output_buffer_.numel();
  for (const Shard& shard : shards_) total += shard.lane.activation_floats();
  return total;
}

index_t InferenceSession::workspace_floats() const {
  index_t total = 0;
  for (const Shard& shard : shards_)
    total += shard.lane.workspace().capacity();
  return total;
}

void InferenceSession::bind(index_t n) {
  // Rows are split as evenly as possible; shard r of T gets one of the
  // n % T remainder rows when r < n % T.  A shard left without rows is
  // not rebound (run_shard skips it).  Shapes are inline, so re-slicing
  // every lane touches no heap.
  const auto t = static_cast<index_t>(shards_.size());
  const index_t base = n / t, rem = n % t;
  const Shape& max_input = plan_.max_input();
  index_t row = 0;
  for (index_t r = 0; r < t; ++r) {
    Shard& shard = shards_[static_cast<std::size_t>(r)];
    shard.row_begin = row;
    shard.rows = base + (r < rem ? 1 : 0);
    row += shard.rows;
    if (shard.rows > 0)
      shard.lane.bind(max_input.with_dim(0, shard.rows),
                      output_buffer_.data() +
                          shard.row_begin * out_sample_numel_);
  }
  output_view_ = ConstTensorView(plan_.max_output().with_dim(0, n),
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
  // Claim the session before anything is rebound: a second caller (or
  // a stage calling back in) must fail here, not re-slice the views a
  // running shard is reading.
  QDNN_CHECK(!in_flight_.exchange(true), kAlreadyInFlight);
  struct Release {
    std::atomic<bool>& flag;
    ~Release() { flag.store(false); }
  } release{in_flight_};
  if (n != bound_n_) bind(n);
  if (!pool_) {
    run_shard(shards_[0], data);
    return output_view_;
  }
  auto part = [this, data](int i) {
    linalg::GemmSerialScope serial_gemm;
    run_shard(shards_[static_cast<std::size_t>(i)], data);
  };
  // The claim above already keeps every other job off the pool.
  QDNN_CHECK(pool_->try_run(static_cast<int>(shards_.size()), part),
             kAlreadyInFlight);
  return output_view_;
}

void InferenceSession::run_shard(Shard& shard, const float* input) const {
  if (shard.rows == 0) return;
  shard.lane.run(input + shard.row_begin * sample_numel_);
}

std::vector<obs::StageTiming> InferenceSession::stage_profile() const {
  const std::vector<nn::PipelineStage>& stages = plan_.stages();
  std::vector<obs::StageTiming> out;
  out.reserve(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const nn::PipelineStage& st = stages[i];
    obs::StageTiming t;
    t.name = st.is_add() ? "residual_add" : st.module->name();
    for (const Shard& shard : shards_) {
      t.calls += shard.lane.stage_calls()[i];
      t.total_ns += shard.lane.stage_ns()[i];
    }
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace qdnn::runtime
