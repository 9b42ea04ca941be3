// Backend-parity suite for the gemm dispatch seam
// (src/linalg/gemm_backend.h):
//   * every compiled backend vs a double-accumulation reference, fuzzed
//     across ragged shapes, trans flags, and alpha/beta;
//   * SIMD vs generic under tolerance (FMA reassociation is the only
//     permitted difference);
//   * prepacked vs unpacked bit-exact *within* each backend, including
//     zero-padded tail panels;
//   * the row-sharded threaded path bit-exact vs inline, engaged and
//     suppressed (GemmSerialScope) on cue;
//   * dot/axpy backend variants, and the heap-pack counter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/gemm.h"
#include "linalg/gemm_backend.h"
#include "linalg/packed_weights.h"
#include "obs/metrics.h"

namespace qdnn::linalg {
namespace {

// Deterministic fill, values in roughly [-1, 1] with varied magnitudes.
void fill(std::vector<float>& v, std::uint32_t seed) {
  std::uint32_t s = seed * 2654435761u + 12345u;
  for (float& x : v) {
    s = s * 1664525u + 1013904223u;
    x = static_cast<float>(static_cast<std::int32_t>(s >> 8)) /
        static_cast<float>(1 << 23);
  }
}

// Reference gemm with double accumulators — ground truth all backends
// are compared against under tolerance.
void ref_gemm(bool trans_a, bool trans_b, index_t m, index_t n, index_t k,
              float alpha, const std::vector<float>& a, index_t lda,
              const std::vector<float>& b, index_t ldb, float beta,
              std::vector<float>& c, index_t ldc) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (index_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[static_cast<std::size_t>(p * lda + i)]
                                 : a[static_cast<std::size_t>(i * lda + p)];
        const float bv = trans_b ? b[static_cast<std::size_t>(j * ldb + p)]
                                 : b[static_cast<std::size_t>(p * ldb + j)];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      float& out = c[static_cast<std::size_t>(i * ldc + j)];
      out = static_cast<float>(static_cast<double>(alpha) * acc +
                               static_cast<double>(beta) *
                                   static_cast<double>(out));
    }
  }
}

std::vector<GemmBackend> supported_backends() {
  std::vector<GemmBackend> out;
  for (GemmBackend be :
       {GemmBackend::kGeneric, GemmBackend::kAvx2, GemmBackend::kNeon})
    if (gemm_backend_supported(be)) out.push_back(be);
  return out;
}

// Restores global dispatch state (backend, threads, threshold) so tests
// compose in any order.
class GemmBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_backend_ = active_gemm_backend();
    saved_threads_ = gemm_threads();
    saved_min_work_ = gemm_thread_min_work();
  }
  void TearDown() override {
    set_gemm_backend(saved_backend_);
    set_gemm_threads(saved_threads_);
    set_gemm_thread_min_work(saved_min_work_);
  }

 private:
  GemmBackend saved_backend_{};
  int saved_threads_ = 1;
  long long saved_min_work_ = 0;
};

// Shapes chosen to hit every microkernel edge: full 6x16 (avx2) / 4x16
// (neon) tiles, every ragged row count, ragged panel tails of 1..15
// columns, k of 0/1/odd, and the decode and logit shapes micro_ops'
// BM_GemmBackend times.
struct Shape {
  index_t m, n, k;
};
const Shape kShapes[] = {
    {1, 1, 1},    {1, 16, 7},  {2, 15, 3},   {3, 17, 5},  {4, 16, 32},
    {5, 31, 9},   {6, 16, 48}, {6, 48, 48},  {7, 33, 21}, {8, 48, 48},
    {8, 256, 48}, {12, 32, 1}, {13, 49, 17}, {17, 64, 8}, {23, 100, 29},
    {24, 48, 16}, {31, 95, 7}, {64, 64, 64},
};

TEST_F(GemmBackendTest, BackendQueriesAreConsistent) {
  EXPECT_STREQ(gemm_backend_name(GemmBackend::kGeneric), "generic");
  EXPECT_STREQ(gemm_backend_name(GemmBackend::kAvx2), "avx2");
  EXPECT_STREQ(gemm_backend_name(GemmBackend::kNeon), "neon");
  EXPECT_TRUE(gemm_backend_compiled(GemmBackend::kGeneric));
  EXPECT_TRUE(gemm_backend_supported(GemmBackend::kGeneric));
  for (GemmBackend be : {GemmBackend::kAvx2, GemmBackend::kNeon}) {
    if (gemm_backend_supported(be)) {
      EXPECT_TRUE(gemm_backend_compiled(be));
    }
  }
  // The resolved default must itself be supported.
  EXPECT_TRUE(gemm_backend_supported(active_gemm_backend()));
}

TEST_F(GemmBackendTest, SetUnsupportedBackendThrows) {
  for (GemmBackend be : {GemmBackend::kAvx2, GemmBackend::kNeon}) {
    if (!gemm_backend_supported(be)) {
      EXPECT_THROW(set_gemm_backend(be), std::runtime_error);
    }
  }
}

TEST_F(GemmBackendTest, AllBackendsMatchReferenceAcrossShapesAndFlags) {
  for (GemmBackend be : supported_backends()) {
    set_gemm_backend(be);
    std::uint32_t seed = 1;
    for (const Shape& s : kShapes) {
      for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
          for (float alpha : {1.0f, 0.5f}) {
            for (float beta : {0.0f, 1.0f, -0.25f}) {
              const index_t lda = ta ? s.m : s.k;
              const index_t ldb = tb ? s.k : s.n;
              std::vector<float> a(static_cast<std::size_t>(
                  (ta ? s.k : s.m) * lda));
              std::vector<float> b(static_cast<std::size_t>(
                  (tb ? s.n : s.k) * ldb));
              std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
              fill(a, seed++);
              fill(b, seed++);
              fill(c, seed++);
              std::vector<float> want = c;
              ref_gemm(ta, tb, s.m, s.n, s.k, alpha, a, lda, b, ldb, beta,
                       want, s.n);
              std::vector<float> scratch(static_cast<std::size_t>(
                  gemm_scratch_floats(ta, tb, s.m, s.n, s.k)));
              gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda, b.data(),
                   ldb, beta, c.data(), s.n, scratch.data());
              for (std::size_t i = 0; i < c.size(); ++i)
                ASSERT_NEAR(c[i], want[i],
                            1e-4f * (1.0f + std::fabs(want[i])))
                    << gemm_backend_name(be) << " m=" << s.m
                    << " n=" << s.n << " k=" << s.k << " ta=" << ta
                    << " tb=" << tb << " alpha=" << alpha
                    << " beta=" << beta << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST_F(GemmBackendTest, SimdMatchesGenericUnderTolerance) {
  std::uint32_t seed = 77;
  for (const Shape& s : kShapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    fill(a, seed++);
    fill(b, seed++);
    set_gemm_backend(GemmBackend::kGeneric);
    std::vector<float> want(static_cast<std::size_t>(s.m * s.n), 0.0f);
    gemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.n,
         0.0f, want.data(), s.n, nullptr);
    for (GemmBackend be : supported_backends()) {
      if (be == GemmBackend::kGeneric) continue;
      set_gemm_backend(be);
      std::vector<float> got(static_cast<std::size_t>(s.m * s.n), 0.0f);
      gemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.n,
           0.0f, got.data(), s.n, nullptr);
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_NEAR(got[i], want[i], 1e-4f * (1.0f + std::fabs(want[i])))
            << gemm_backend_name(be) << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " i=" << i;
    }
  }
}

// The load-bearing contract: freeze-time packing must not change a
// single bit vs the unpacked call under the same backend — tail panels
// (zero-padded in the pack, masked loads unpacked) included.
TEST_F(GemmBackendTest, PrepackedBitIdenticalToUnpackedPerBackend) {
  std::uint32_t seed = 200;
  for (GemmBackend be : supported_backends()) {
    set_gemm_backend(be);
    for (const Shape& s : kShapes) {
      for (bool trans_b : {false, true}) {
        const index_t ldb = trans_b ? s.k : s.n;
        std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
        std::vector<float> b(static_cast<std::size_t>(
            (trans_b ? s.n : s.k) * ldb));
        fill(a, seed++);
        fill(b, seed++);
        std::vector<float> c_plain(static_cast<std::size_t>(s.m * s.n),
                                   0.5f);
        std::vector<float> c_packed = c_plain;
        std::vector<float> scratch(static_cast<std::size_t>(
            gemm_scratch_floats(false, trans_b, s.m, s.n, s.k)));
        gemm(false, trans_b, s.m, s.n, s.k, 1.25f, a.data(), s.k, b.data(),
             ldb, 0.75f, c_plain.data(), s.n, scratch.data());
        PackedWeights pw;
        pw.pack(trans_b, s.k, s.n, b.data(), ldb);
        EXPECT_EQ(pw.backend(), be);
        gemm_prepacked(false, s.m, s.n, s.k, 1.25f, a.data(), s.k, pw,
                       0.75f, c_packed.data(), s.n);
        for (std::size_t i = 0; i < c_plain.size(); ++i)
          ASSERT_EQ(c_plain[i], c_packed[i])
              << gemm_backend_name(be) << " m=" << s.m << " n=" << s.n
              << " k=" << s.k << " trans_b=" << trans_b << " i=" << i;
      }
    }
  }
}

TEST_F(GemmBackendTest, PackLayoutFollowsBackend) {
  std::vector<float> b(static_cast<std::size_t>(7 * 20));
  fill(b, 9);
  for (GemmBackend be : supported_backends()) {
    set_gemm_backend(be);
    PackedWeights pw;
    pw.pack(false, 7, 20, b.data(), 20);
    EXPECT_EQ(pw.backend(), be);
    if (be == GemmBackend::kGeneric) {
      EXPECT_EQ(pw.layout(), PackLayout::kRowMajor);
      EXPECT_EQ(pw.size_floats(), 7 * 20);
    } else {
      EXPECT_EQ(pw.layout(), PackLayout::kTilePanel);
      // ceil(20/16) = 2 zero-padded panels of 7*16 floats.
      EXPECT_EQ(pw.size_floats(), 2 * 7 * 16);
    }
    // Either layout starts with op(B)(0, 0).
    EXPECT_EQ(pw.data()[0], b[0]);
  }
}

// A pack made under one backend stays valid after the active backend
// changes: gemm_prepacked dispatches on the pack's own tag.
TEST_F(GemmBackendTest, PackOutlivesBackendSwitch) {
  const auto backends = supported_backends();
  if (backends.size() < 2) GTEST_SKIP() << "single-backend build";
  const index_t m = 5, n = 33, k = 17;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  fill(a, 31);
  fill(b, 32);
  set_gemm_backend(backends[1]);
  PackedWeights pw;
  pw.pack(false, k, n, b.data(), n);
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  gemm_prepacked(false, m, n, k, 1.0f, a.data(), k, pw, 0.0f, want.data(),
                 n);
  // Switch away; the pack must keep producing the exact same bits.
  set_gemm_backend(backends[0]);
  std::vector<float> got(static_cast<std::size_t>(m * n), 0.0f);
  gemm_prepacked(false, m, n, k, 1.0f, a.data(), k, pw, 0.0f, got.data(),
                 n);
  EXPECT_EQ(pw.backend(), backends[1]);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << i;
}

TEST_F(GemmBackendTest, ThreadedBitIdenticalToInlineAndEngages) {
  const index_t m = 64, n = 96, k = 80;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  fill(a, 55);
  fill(b, 56);
  for (GemmBackend be : supported_backends()) {
    set_gemm_backend(be);
    set_gemm_threads(1);
    std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         want.data(), n, nullptr);
    set_gemm_threads(3);
    set_gemm_thread_min_work(1);  // force the pool for this shape
    const long long before = gemm_threaded_dispatches();
    // The caller claims chunks too and may finish them all before a
    // worker wakes, so repeat the call until a worker has run a chunk —
    // every repeat must be bit-identical — and fail if none ever does.
    const obs::Counter& worker_chunks =
        obs::MetricsRegistry::global().counter("gemm.worker_chunks");
    const long long worker_before = worker_chunks.value();
    int calls = 0;
    for (; calls < 5000 && worker_chunks.value() == worker_before; ++calls) {
      std::vector<float> got(static_cast<std::size_t>(m * n), 0.0f);
      gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
           got.data(), n, nullptr);
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << gemm_backend_name(be) << " i=" << i;
    }
    EXPECT_GT(gemm_threaded_dispatches(), before)
        << gemm_backend_name(be);
    EXPECT_GT(worker_chunks.value(), worker_before)
        << gemm_backend_name(be) << ": no worker ran a chunk in " << calls
        << " sharded calls";
  }
}

TEST_F(GemmBackendTest, ThresholdAndSerialScopeSuppressThreading) {
  const index_t m = 32, n = 32, k = 32;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  fill(a, 71);
  fill(b, 72);
  set_gemm_threads(2);
  // Below the threshold: inline.
  set_gemm_thread_min_work(1LL << 40);
  long long before = gemm_threaded_dispatches();
  gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
       c.data(), n, nullptr);
  EXPECT_EQ(gemm_threaded_dispatches(), before);
  // Above the threshold but inside a GemmSerialScope: still inline.
  set_gemm_thread_min_work(1);
  {
    GemmSerialScope serial;
    before = gemm_threaded_dispatches();
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c.data(), n, nullptr);
    EXPECT_EQ(gemm_threaded_dispatches(), before);
  }
  // Scope gone: engages again.
  before = gemm_threaded_dispatches();
  gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
       c.data(), n, nullptr);
  EXPECT_GT(gemm_threaded_dispatches(), before);
}

TEST_F(GemmBackendTest, DotAndAxpyMatchGenericPerBackend) {
  for (index_t n : {index_t{1}, index_t{7}, index_t{8}, index_t{31},
                    index_t{64}, index_t{257}}) {
    std::vector<float> x(static_cast<std::size_t>(n));
    std::vector<float> y(static_cast<std::size_t>(n));
    fill(x, static_cast<std::uint32_t>(400 + n));
    fill(y, static_cast<std::uint32_t>(500 + n));
    set_gemm_backend(GemmBackend::kGeneric);
    const float dot_want = dot(x.data(), y.data(), n);
    std::vector<float> axpy_want = y;
    axpy(n, 0.3f, x.data(), axpy_want.data());
    for (GemmBackend be : supported_backends()) {
      if (be == GemmBackend::kGeneric) continue;
      set_gemm_backend(be);
      EXPECT_NEAR(dot(x.data(), y.data(), n), dot_want,
                  1e-4f * (1.0f + std::fabs(dot_want)))
          << gemm_backend_name(be) << " n=" << n;
      std::vector<float> axpy_got = y;
      axpy(n, 0.3f, x.data(), axpy_got.data());
      for (std::size_t i = 0; i < axpy_got.size(); ++i)
        ASSERT_NEAR(axpy_got[i], axpy_want[i],
                    1e-5f * (1.0f + std::fabs(axpy_want[i])))
            << gemm_backend_name(be) << " n=" << n << " i=" << i;
    }
  }
}

TEST_F(GemmBackendTest, HeapPackCounterCountsAllocatingOverloadOnly) {
  const index_t m = 4, n = 5, k = 3;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  fill(a, 90);
  fill(b, 91);
  long long before = gemm_heap_pack_calls();
  gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
       c.data(), n, nullptr);  // scratch overload: not counted
  EXPECT_EQ(gemm_heap_pack_calls(), before);
  gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
       c.data(), n);  // allocating overload: counted
  EXPECT_EQ(gemm_heap_pack_calls(), before + 1);
}

}  // namespace
}  // namespace qdnn::linalg
