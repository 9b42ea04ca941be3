// resnet_classify: the paper's proposed-neuron ResNet-32 on the stage
// pipeline (runtime::InferenceSession), one closed-loop client sending
// batches of 16.  It touches no serving layer, so a serving change should
// leave it flat.
#include <cstring>
#include <memory>

#include "linalg/gemm_backend.h"
#include "runtime/inference_session.h"
#include "workloads.h"

namespace qbench {

using namespace qdnn;

namespace {

constexpr index_t kBatch = 16;
constexpr index_t kPool = 4;  // distinct input batches, cycled
// One session thread.  With two, the shard pool's per-batch fork/join
// made rq32's rate swing from 220 to 340 images/s between identical runs
// on a 4-vCPU VM, while one thread held 157-160.
constexpr int kThreads = 1;
// SLO on a batch: its run() time and the gap since the previous result.
constexpr double kLatencySloMs = 200.0;

}  // namespace

models::ResNetConfig rq32_config() {
  models::ResNetConfig c;
  c.depth = 32;
  c.base_width = 16;
  c.image_size = 32;
  c.spec = quadratic::NeuronSpec::proposed(9);
  c.seed = 1;
  return c;
}

RunReport run_classify(const Options& opts, SpanBuffer* spans,
                       Metrics* layers) {
  RunReport rep;
  rep.threads = kThreads;
  Fnv1a mix;
  mix.add("resnet_classify", 15);
  mix.add_u64(opts.seed);
  Rng rng(mix.h);
  std::vector<Tensor> pool;
  for (index_t k = 0; k < kPool; ++k) {
    pool.emplace_back(Shape{kBatch, 3, 32, 32});
    rng.fill_uniform(pool.back(), -1.0f, 1.0f);
  }

  runtime::SessionConfig cfg;
  cfg.sample_shape = Shape{3, 32, 32};
  cfg.max_batch = kBatch;
  cfg.num_threads = kThreads;
  std::unique_ptr<runtime::InferenceSession> session;
  std::vector<double> setup_s;
  for (int k = 0; k < opts.setup_repeats(); ++k) {
    session.reset();
    const long long t0 = now_ns();
    session = std::make_unique<runtime::InferenceSession>(
        models::make_cifar_resnet(rq32_config()), cfg);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Each pool batch's first logits; every later run of it must match.
  std::vector<Tensor> first(static_cast<std::size_t>(kPool));
  auto serve = [&](index_t i) {
    const auto k = static_cast<std::size_t>(i % kPool);
    const ConstTensorView& out = session->run(pool[k]);
    if (first[k].empty()) {
      first[k] = out.to_tensor();
    } else if (std::memcmp(out.data(), first[k].data(),
                           static_cast<std::size_t>(out.numel()) *
                               sizeof(float)) != 0) {
      ++rep.failed;
      rep.error("batch " + std::to_string(i) + " logits changed between runs");
    }
  };

  obs::set_trace_enabled(opts.traced);
  const long long heap0 = linalg::gemm_heap_pack_calls();
  // Warm-up serves every pool batch, so the digest never depends on how
  // many batches the timed window reached.
  const index_t warm = opts.smoke ? kPool : 10;
  for (index_t i = 0; i < warm; ++i) serve(i);
  std::vector<long long> sent, done;
  const long long window0 = now_ns();
  const auto budget_ns = static_cast<long long>(opts.seconds * 1e9);
  for (index_t i = warm; now_ns() - window0 < budget_ns; ++i) {
    sent.push_back(now_ns());
    serve(i);
    done.push_back(now_ns());
  }
  const long long window1 = now_ns();
  const long long heap_delta = linalg::gemm_heap_pack_calls() - heap0;
  obs::set_trace_enabled(false);
  const double rss_mb = peak_rss_mb();
  session.reset();
  rep.attempted = warm + static_cast<long long>(sent.size());

  // The served logits against the training-path forward of an identically
  // seeded model.
  {
    auto net = models::make_cifar_resnet(rq32_config());
    net->set_training(false);
    const Tensor ref = net->forward(pool[0]);
    if (first[0].empty() || ref.shape() != first[0].shape() ||
        std::memcmp(ref.data(), first[0].data(),
                    static_cast<std::size_t>(ref.numel()) * sizeof(float)) != 0)
      rep.error("session logits differ from the training-path forward");
  }
  if (heap_delta != 0)
    rep.error("gemm heap-pack calls during the timed window: " +
              std::to_string(heap_delta));
  Fnv1a digest;
  for (std::size_t k = 0; k < first.size(); ++k) {
    digest.add_u64(k);
    if (!first[k].empty())
      digest.add(first[k].data(),
                 static_cast<std::size_t>(first[k].numel()) * sizeof(float));
  }
  rep.digest = digest.h;

  // A batch is one output: its time to first output is its latency, and
  // its gap is the time since the previous batch's result.
  std::vector<double> latency, gaps;
  long long met_slo = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    latency.push_back(static_cast<double>(done[i] - sent[i]) / 1e6);
    const long long prev = i == 0 ? window0 : done[i - 1];
    gaps.push_back(static_cast<double>(done[i] - prev) / 1e6);
    met_slo += latency.back() <= kLatencySloMs && gaps.back() <= kLatencySloMs;
  }
  rep.samples = static_cast<long long>(latency.size());
  // Images per second at the median gap between results, so a stall in
  // part of the window does not move it.
  const double gap_p50 = percentile(gaps, 0.5);
  const double images_per_s = static_cast<double>(kBatch) * 1e3 / gap_p50;
  const double lat_p50 = percentile(latency, 0.5);
  const double lat_p90 = percentile(latency, 0.9);
  rep.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"ttft_p50_ms", lat_p50, "ms"},
      {"ttft_p90_ms", lat_p90, "ms"},
      {"itl_p25_ms", percentile(gaps, 0.25), "ms"},
      {"itl_p90_ms", percentile(gaps, 0.9), "ms"},
      {"throughput_per_s", images_per_s, "1/s"},
      {"slo_attainment",
       static_cast<double>(met_slo) /
           static_cast<double>(std::max<std::size_t>(sent.size(), 1)),
       "share"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
  rep.headline_cost = 1e3 / images_per_s;

  if (spans != nullptr) {
    spans->reserve(1 + sent.size());
    const long long root = spans->add("workload", 0, window0, window1, 0);
    for (std::size_t i = 0; i < sent.size(); ++i)
      spans->add("infer.run", root, sent[i], done[i], 0);
  }
  if (layers != nullptr)
    *layers = {{"gemm.heap_pack_calls_delta", static_cast<double>(heap_delta),
                "count"}};
  return rep;
}

}  // namespace qbench
