// qbench: one workload per process.
//
//   qbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// Workloads: chat, long_prompt, shared_prefix, offline_burst (serving
// mixes through serve::Server) and resnet_classify (rq32 through
// runtime::InferenceSession).  --trace 0 prints the end-to-end metrics;
// --trace 1 runs the workload untraced and then traced (obs tracing on,
// spans recorded), adds the direct-call probes, prints the per-layer
// metrics and writes bench_results/qbench_<workload>.trace.json.  Every
// metric goes to stdout as "workload metric value unit", then one
// "# info {...}" provenance line, then the result as one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output checked out, 1 on any mismatch, 2 when
// the run is refused (bad arguments, a debug build, or an environment
// override that would change what is measured).
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "core/check.h"
#include "linalg/gemm_backend.h"
#include "workloads.h"

using namespace qbench;

namespace {

constexpr const char* kWorkloads[] = {"chat", "long_prompt", "shared_prefix",
                                      "offline_burst", "resnet_classify"};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out;
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", \"" : "\"") + json_escape(items[i]) + "\"";
  return out + "]";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "qbench: %s\nusage: qbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke]\nworkloads:",
               why);
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

// Settings that change what a timed run measures.
const char* kOverrides[] = {"QDNN_TRACE", "QDNN_TRACE_SAMPLE",
                            "QDNN_GEMM_THREADS", "QDNN_GEMM_BACKEND"};

// Runs the workload, and when traced runs it again with tracing on plus
// the probes; fills `metrics` with what the mode reports.
RunReport measure(const Options& o, const ServeSpec* spec, Metrics& metrics) {
  auto run = [&](bool traced, SpanBuffer* spans, Metrics* layers) {
    Options x = o;
    x.traced = traced;
    return spec != nullptr ? run_serving(*spec, x, spans, layers)
                           : run_classify(x, spans, layers);
  };
  RunReport rep;
  if (!o.traced) {
    rep = run(false, nullptr, nullptr);
    metrics = rep.metrics;
  } else {
    const RunReport base = run(false, nullptr, nullptr);
    SpanBuffer spans;
    rep = run(true, &spans, &metrics);
    if (spec == nullptr) {
      // resnet_classify exercises no serving layer; its serve.* numbers
      // come from a short traced offline_burst so every workload reports
      // the same per-layer set.
      Options p = o;
      p.traced = true;
      p.seconds = o.smoke ? 0.25 : 1.0;
      Metrics serve_layers;
      const RunReport sp =
          run_serving(*find_serve_spec("offline_burst"), p, nullptr, &serve_layers);
      for (const std::string& e : sp.errors) rep.error("serve probe: " + e);
      for (const Metric& m : serve_layers)
        if (m.name != "gemm.heap_pack_calls_delta") metrics.push_back(m);
    }
    for (const Metric& m : run_probes(o, spans, 0)) metrics.push_back(m);
    metrics.push_back({"trace.overhead", rep.headline_cost / base.headline_cost,
                       "ratio"});
    if (base.digest != rep.digest)
      rep.error("output digest differs between the untraced and traced runs");
    for (const std::string& e : base.errors) rep.error("untraced run: " + e);
    rep.attempted += base.attempted;
    rep.failed += base.failed;

    std::filesystem::create_directories("bench_results");
    const std::string path = "bench_results/qbench_" + o.workload + ".trace.json";
    if (!spans.write_chrome(path)) rep.error("cannot write " + path);
    std::printf("# trace: %s\n", path.c_str());
    spans.print_self_times(stdout);
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const char* val = a + 1 < argc ? argv[a + 1] : nullptr;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (val == nullptr) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      o.workload = val, ++a;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10), ++a;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val, nullptr), ++a;
    } else if (arg == "--trace") {
      o.traced = std::strcmp(val, "0") != 0, ++a;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const ServeSpec* spec = find_serve_spec(o.workload);
  if (spec == nullptr && o.workload != "resnet_classify")
    return usage(("unknown workload '" + o.workload + "'").c_str());
  if (!(o.seconds > 0.0 && o.seconds <= 120.0))
    return usage("--seconds must be in (0, 120]");
  if (!o.smoke) {
    for (const char* var : kOverrides) {
      const char* v = std::getenv(var);
      if (v != nullptr && *v != '\0') {
        std::fprintf(stderr, "qbench: refusing a timed run with %s set\n", var);
        return 2;
      }
    }
#ifndef NDEBUG
    std::fprintf(stderr, "qbench: refusing a timed run in a debug build\n");
    return 2;
#endif
  }

  RunReport rep;
  Metrics metrics;
  try {
    rep = measure(o, spec, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }

  if (rep.threads > static_cast<int>(std::thread::hardware_concurrency()))
    rep.invalid.push_back("more program threads than cores");
  for (const Metric& m : metrics)
    std::printf("%s %s %.6g %s\n", o.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(rep.digest));
  std::printf(
      "# info {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"traced\": %s, \"smoke\": %s, \"output_digest\": \"%s\", "
      "\"gemm_backend\": \"%s\", \"nproc\": %u, \"dchecks\": %s, "
      "\"threads\": %d, \"samples\": %lld, \"lag_p99_ms\": %.4f, "
      "\"drain_s\": %.4f, \"valid\": %s, \"invalid\": %s, \"errors\": %s}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.traced ? "true" : "false", o.smoke ? "true" : "false", digest,
      qdnn::linalg::gemm_backend_name(qdnn::linalg::active_gemm_backend()),
      std::thread::hardware_concurrency(),
      QDNN_DCHECK_ENABLED ? "true" : "false", rep.threads, rep.samples,
      rep.lag_p99_ms, rep.drain_s, rep.invalid.empty() ? "true" : "false",
      json_list(rep.invalid).c_str(), json_list(rep.errors).c_str());
  for (const std::string& e : rep.errors)
    std::fprintf(stderr, "qbench: %s: %s\n", o.workload.c_str(), e.c_str());
  for (const std::string& w : rep.invalid)
    std::fprintf(stderr, "qbench: %s: run invalid: %s\n", o.workload.c_str(),
                 w.c_str());

  const bool correct = rep.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", rep.attempted, rep.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  return correct ? 0 : 1;
}
