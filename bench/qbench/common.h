// Shared plumbing for the qbench workloads: the run options, the report a
// workload hands back to main, percentiles, the FNV output digest, and
// the preallocated span buffer the traced run records into.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/shape.h"
#include "obs/trace.h"

namespace qbench {

using qdnn::index_t;

inline long long now_ns() { return qdnn::obs::now_ns(); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;  // timed window per workload run
  bool traced = false;    // per-layer run instead of the end-to-end one
  bool smoke = false;     // tiny inputs, same code paths, no timing claims

  // Set-up is repeated and its median reported, so setup_s is steady.
  int setup_repeats() const { return smoke ? 1 : 5; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// What one workload run reports back to main.
struct RunReport {
  Metrics metrics;
  long long attempted = 0;  // requests (or batches) sent, warm-up included
  long long failed = 0;     // wrong, missing, shed or errored among them
  std::vector<std::string> errors;  // correctness failures; empty = correct
  std::uint64_t digest = 0;         // FNV-1a over (index, output)
  // The workload's headline as a cost (latency in ms, or seconds per
  // output for throughput workloads): trace.overhead is traced/untraced.
  double headline_cost = 0.0;
  // Run validity (the numbers are reported either way).
  std::vector<std::string> invalid;
  double lag_p99_ms = 0.0;  // open-loop generator lateness
  double drain_s = 0.0;     // last completion minus last due time
  int threads = 0;          // program threads the workload runs on
  long long samples = 0;    // timed latency samples

  void error(const std::string& what);
};

// Nearest-rank percentile, q in [0, 1]; reorders `v`.  0 when empty.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* data, std::size_t bytes);
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
};

// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// Spans recorded by the traced run: {name, id, parent, t0, t1, tid}, kept
// in memory and written out at the end.  kAsync spans (the
// per-request lifetimes, which overlap) and their kInstant children (one
// per streamed token) export as Chrome async events keyed by id; kComplete
// spans export as ordinary duration events on their thread.
class SpanBuffer {
 public:
  enum class Kind { kComplete, kAsync, kInstant };

  // Makes room for `spans` more spans before a batch of add() calls.
  void reserve(std::size_t spans) { spans_.reserve(spans_.size() + spans); }

  // Returns the span's id (>= 1).
  long long add(const char* name, long long parent, long long t0,
                long long t1, int tid, Kind kind = Kind::kComplete);

  // Chrome trace-event JSON (chrome://tracing, Perfetto), timestamps in
  // microseconds from the first span.
  bool write_chrome(const std::string& path) const;
  // Per span name: count, total and self time (duration minus the union
  // of its children's intervals), largest self time first.
  void print_self_times(std::FILE* out) const;

 private:
  struct Span {
    const char* name;
    long long id, parent, t0, t1;
    int tid;
    Kind kind;
  };
  std::vector<Span> spans_;
};

}  // namespace qbench
