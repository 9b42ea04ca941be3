// The gemm backend seam: every dense kernel in the library (gemm,
// gemm_prepacked, dot, axpy) routes through one selected backend.
//
// Selection is two-staged:
//   * compile time — the CMake option QDNN_SIMD=auto|avx2|neon|generic
//     decides which hand-written microkernels are built into the binary
//     (the AVX2/FMA translation unit is compiled with -mavx2 -mfma; the
//     NEON one only on aarch64);
//   * runtime — the first dispatch resolves the best compiled-in backend
//     the CPU actually supports (CPUID), falling back to the portable
//     generic kernel, and honors the QDNN_GEMM_BACKEND=generic|avx2|neon
//     environment override.  set_gemm_backend() narrows the choice for
//     tests and A/B benches.
//
// Numerics contract: results are deterministic *within* a backend — the
// per-row reduction order is fixed, independent of m, of batch position,
// of prepacked vs per-call packing, and of the threaded row sharding —
// so every bit-identity regression in the repo (decode vs reference,
// async vs sync prefill, N-shard vs solo) holds under whichever backend
// is active.  *Across* backends results differ by FMA reassociation and
// are compared under tolerance (tests/linalg/gemm_backend_test.cpp).
//
// Threading: linalg row-shards large gemms across a process-wide
// core::WorkerPool (opt-in: threads default to 1; QDNN_GEMM_THREADS=N or
// set_gemm_threads).  A call is sharded only when 2·m·n·k >= the
// min-work threshold and no GemmSerialScope is active on the calling
// thread (see GemmSerialScope for who holds one).  Row sharding is
// bit-identical to the single-threaded kernel by construction (rows are
// independent).
#pragma once

#include "core/tensor.h"

namespace qdnn::linalg {

enum class GemmBackend { kGeneric = 0, kAvx2 = 1, kNeon = 2 };

// Human-readable name ("generic", "avx2", "neon").
const char* gemm_backend_name(GemmBackend backend);

// True when the backend's kernels were compiled into this binary.
bool gemm_backend_compiled(GemmBackend backend);

// True when compiled AND the running CPU can execute them.
bool gemm_backend_supported(GemmBackend backend);

// The backend every dense kernel currently dispatches to.
GemmBackend active_gemm_backend();

// Overrides the active backend (tests / A-B benches).  Throws when the
// backend is not supported on this build+CPU.  Packs made before the
// switch keep working: each PackedWeights carries the backend that laid
// it out and gemm_prepacked dispatches on that tag.
void set_gemm_backend(GemmBackend backend);

// --------------------------------------------------------------------
// Row-sharded threaded path.
// --------------------------------------------------------------------

// Current worker budget for one gemm call (1 = always inline).
int gemm_threads();

// Sets the worker budget and eagerly grows the process-wide pool to
// threads − 1 workers (it never shrinks), so no thread creation happens
// inside a steady-state call.  Initial value comes from
// QDNN_GEMM_THREADS (default 1).
void set_gemm_threads(int threads);

// A call threads only when 2*m*n*k >= this threshold (flops).  Initial
// value comes from QDNN_GEMM_MIN_WORK (default 2'000'000).
long long gemm_thread_min_work();
void set_gemm_thread_min_work(long long flops);

// While alive on a thread, gemm calls from that thread never enter the
// pool (they run the plain inline kernel).  Held by PrefillPool workers
// and by every InferenceSession shard part: those are already one lane
// of an outer parallelism level.
class GemmSerialScope {
 public:
  GemmSerialScope();
  ~GemmSerialScope();
  GemmSerialScope(const GemmSerialScope&) = delete;
  GemmSerialScope& operator=(const GemmSerialScope&) = delete;
};

// --------------------------------------------------------------------
// Introspection counters (monotonic, process-wide).
// --------------------------------------------------------------------

// Calls that took the scratch-allocating gemm() convenience overload
// (one std::vector per call).  Steady-state serving paths must never
// bump this — asserted by tests/runtime/session_test.cpp.
long long gemm_heap_pack_calls();

// gemm() calls (either overload) that transposed B per call.  In the
// serving layers B is a constant weight that freeze() prepacks instead,
// so frozen prefill and decode steps must never bump this — asserted by
// tests/models/decode_session_test.cpp and tests/runtime/session_test.cpp.
long long gemm_weight_pack_calls();

// Calls that actually row-sharded across the pool.
long long gemm_threaded_dispatches();

}  // namespace qdnn::linalg
