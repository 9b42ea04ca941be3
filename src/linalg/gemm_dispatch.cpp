// Backend resolution and the row-sharded threaded gemm path.
//
// Resolution: QDNN_GEMM_BACKEND env override > best compiled-in backend
// the CPU supports (CPUID) > generic.  Resolved once, cached in an
// atomic; set_gemm_backend() narrows it for tests and A/B benches.
//
// Threading: run_gemm shards C's rows into at most gemm_threads() chunks
// and runs them as the parts of one call to a process-wide
// core::WorkerPool (its workers spawned by set_gemm_threads /
// QDNN_GEMM_THREADS, never inside a steady-state call); the caller runs
// chunks alongside the workers.  Rows are computed by the identical
// per-row kernel sequence whichever thread runs them, so the sharded
// result is bit-identical to the inline kernel.  If another thread's
// gemm is mid-job, try_run declines and the caller runs inline (correct
// either way; no caller ever blocks on a peer's gemm).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "core/worker_pool.h"
#include "linalg/gemm_kernels.h"
#include "obs/metrics.h"

namespace qdnn::linalg {

namespace {

constexpr int kMaxGemmThreads = 64;

std::atomic<int> g_backend{-1};  // -1 = unresolved
std::atomic<int> g_threads{1};
std::atomic<long long> g_min_work{2'000'000};
// Introspection counters live in the global metrics registry so they
// export alongside the serving instruments.  Registered eagerly at
// static init (global() is a Meyers singleton, so order is safe): no
// first-use registration can allocate inside a counted steady-state
// loop, and the per-call record stays one relaxed fetch_add.
obs::Counter& g_heap_pack_calls =
    obs::MetricsRegistry::global().counter("gemm.heap_pack_calls");
obs::Counter& g_weight_pack_calls =
    obs::MetricsRegistry::global().counter("gemm.weight_pack_calls");
obs::Counter& g_threaded_dispatches =
    obs::MetricsRegistry::global().counter("gemm.threaded_dispatches");
obs::Counter& g_worker_chunks =  // chunks a pool worker ran, not the caller
    obs::MetricsRegistry::global().counter("gemm.worker_chunks");
thread_local int t_serial_depth = 0;

bool cpu_has_avx2_fma() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

GemmBackend best_supported() {
#if defined(QDNN_SIMD_AVX2)
  if (cpu_has_avx2_fma()) return GemmBackend::kAvx2;
#endif
#if defined(QDNN_SIMD_NEON)
  return GemmBackend::kNeon;  // baseline ISA on aarch64
#endif
  return GemmBackend::kGeneric;
}

GemmBackend resolve_default() {
  if (const char* env = std::getenv("QDNN_GEMM_BACKEND")) {
    GemmBackend want = GemmBackend::kGeneric;
    bool known = true;
    if (std::strcmp(env, "generic") == 0) want = GemmBackend::kGeneric;
    else if (std::strcmp(env, "avx2") == 0) want = GemmBackend::kAvx2;
    else if (std::strcmp(env, "neon") == 0) want = GemmBackend::kNeon;
    else known = false;
    if (known && gemm_backend_supported(want)) return want;
    std::fprintf(stderr,
                 "qdnn: QDNN_GEMM_BACKEND=%s not usable on this "
                 "build/CPU, falling back to %s\n",
                 env, gemm_backend_name(best_supported()));
  }
  return best_supported();
}

// Selects the kernel entry point for a resolved backend.  An enum value
// whose kernels are not compiled in can never be active (set_gemm_backend
// rejects it); the generic fallback here is belt-and-braces.
void run_kernel(GemmBackend backend, index_t m, index_t n, index_t k,
                float alpha, const float* a, index_t lda,
                const detail::BDesc& b, float* c, index_t ldc) {
  switch (backend) {
#if defined(QDNN_SIMD_AVX2)
    case GemmBackend::kAvx2:
      detail::gemm_kernel_avx2(m, n, k, alpha, a, lda, b, c, ldc);
      return;
#endif
#if defined(QDNN_SIMD_NEON)
    case GemmBackend::kNeon:
      detail::gemm_kernel_neon(m, n, k, alpha, a, lda, b, c, ldc);
      return;
#endif
    default:
      detail::gemm_kernel_generic(m, n, k, alpha, a, lda, b, c, ldc);
      return;
  }
}

// ---------------------------------------------------------------------
// Row-sharded path.
// ---------------------------------------------------------------------

struct GemmJob {
  GemmBackend backend;
  index_t m, n, k;
  float alpha;
  const float* a;
  index_t lda;
  detail::BDesc b;
  float* c;
  index_t ldc;
  index_t chunk;  // rows per part
  std::thread::id caller;
};

void run_rows(const GemmJob& j, index_t r0, index_t r1) {
  run_kernel(j.backend, r1 - r0, j.n, j.k, j.alpha, j.a + r0 * j.lda,
             j.lda, j.b, j.c + r0 * j.ldc, j.ldc);
}

// One WorkerPool part: row chunk `part` of the job at `ctx`.
void run_chunk(void* ctx, int part) {
  const GemmJob& j = *static_cast<const GemmJob*>(ctx);
  const index_t r0 = part * j.chunk;
  run_rows(j, r0, std::min(j.m, r0 + j.chunk));
  if (std::this_thread::get_id() != j.caller) g_worker_chunks.inc();
}

// Process-wide, so workers are spawned once (by set_gemm_threads) and
// never inside a steady-state call.
core::WorkerPool& gemm_pool() {
  static core::WorkerPool pool;
  return pool;
}

// Reads the env knobs once, before main on most platforms, so the pool
// exists before any steady-state (allocation-counted) serving loop.
struct EnvInit {
  EnvInit() {
    if (const char* env = std::getenv("QDNN_GEMM_THREADS")) {
      const int t = std::atoi(env);
      if (t > 0) set_gemm_threads(t);
    }
    if (const char* env = std::getenv("QDNN_GEMM_MIN_WORK")) {
      const long long w = std::atoll(env);
      if (w >= 0) set_gemm_thread_min_work(w);
    }
  }
};
EnvInit g_env_init;

}  // namespace

const char* gemm_backend_name(GemmBackend backend) {
  switch (backend) {
    case GemmBackend::kAvx2: return "avx2";
    case GemmBackend::kNeon: return "neon";
    default: return "generic";
  }
}

bool gemm_backend_compiled(GemmBackend backend) {
  switch (backend) {
    case GemmBackend::kGeneric:
      return true;
    case GemmBackend::kAvx2:
#if defined(QDNN_SIMD_AVX2)
      return true;
#else
      return false;
#endif
    case GemmBackend::kNeon:
#if defined(QDNN_SIMD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool gemm_backend_supported(GemmBackend backend) {
  if (!gemm_backend_compiled(backend)) return false;
  if (backend == GemmBackend::kAvx2) return cpu_has_avx2_fma();
  return true;
}

GemmBackend active_gemm_backend() {
  int b = g_backend.load(std::memory_order_relaxed);
  if (b < 0) {
    // Benign race: resolve_default is deterministic per process.
    b = static_cast<int>(resolve_default());
    g_backend.store(b, std::memory_order_relaxed);
  }
  return static_cast<GemmBackend>(b);
}

void set_gemm_backend(GemmBackend backend) {
  QDNN_CHECK(gemm_backend_supported(backend),
             "set_gemm_backend: " << gemm_backend_name(backend)
                                  << " is not supported on this build/CPU");
  g_backend.store(static_cast<int>(backend), std::memory_order_relaxed);
}

int gemm_threads() { return g_threads.load(std::memory_order_relaxed); }

void set_gemm_threads(int threads) {
  QDNN_CHECK(threads >= 1,
             "set_gemm_threads: threads must be >= 1, got " << threads);
  if (threads > kMaxGemmThreads) threads = kMaxGemmThreads;
  if (threads > 1) gemm_pool().ensure_workers(threads - 1);
  g_threads.store(threads, std::memory_order_relaxed);
}

long long gemm_thread_min_work() {
  return g_min_work.load(std::memory_order_relaxed);
}

void set_gemm_thread_min_work(long long flops) {
  QDNN_CHECK(flops >= 0,
             "set_gemm_thread_min_work: threshold must be >= 0");
  g_min_work.store(flops, std::memory_order_relaxed);
}

GemmSerialScope::GemmSerialScope() { ++t_serial_depth; }
GemmSerialScope::~GemmSerialScope() { --t_serial_depth; }

long long gemm_heap_pack_calls() { return g_heap_pack_calls.value(); }

long long gemm_weight_pack_calls() { return g_weight_pack_calls.value(); }

long long gemm_threaded_dispatches() {
  return g_threaded_dispatches.value();
}

namespace detail {

void note_heap_pack_call() { g_heap_pack_calls.inc(); }
void note_weight_pack_call() { g_weight_pack_calls.inc(); }

void run_gemm(GemmBackend backend, index_t m, index_t n, index_t k,
              float alpha, const float* a, index_t lda, const BDesc& b,
              float* c, index_t ldc) {
  const int threads = g_threads.load(std::memory_order_relaxed);
  if (threads > 1 && t_serial_depth == 0 && m >= 2 &&
      2LL * m * n * k >= g_min_work.load(std::memory_order_relaxed)) {
    const index_t chunk = (m + threads - 1) / threads;
    const auto parts = static_cast<int>((m + chunk - 1) / chunk);
    GemmJob job{backend, m, n, k, alpha, a, lda, b, c, ldc, chunk,
                std::this_thread::get_id()};
    if (parts > 1 && gemm_pool().try_run(parts, run_chunk, &job)) {
      g_threaded_dispatches.inc();
      return;
    }
  }
  run_kernel(backend, m, n, k, alpha, a, lda, b, c, ldc);
}

}  // namespace detail
}  // namespace qdnn::linalg
