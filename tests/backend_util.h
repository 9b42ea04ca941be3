// Runs a test body under every gemm backend the build and CPU support.
//
// The bit-identity contracts hold within a backend, whichever one is
// active, so suites that assert them sweep all of them: the generic
// kernel, and the AVX2 or NEON microkernels where compiled in.
#pragma once

#include <gtest/gtest.h>

#include "linalg/gemm_backend.h"

namespace qdnn::testing {

// Calls body(backend) once per supported backend with that backend
// active, tagging failures with its name; the backend active before is
// restored on the way out, even when the body throws.
template <class Body>
void for_each_gemm_backend(Body&& body) {
  using linalg::GemmBackend;
  struct Restore {
    GemmBackend saved = linalg::active_gemm_backend();
    ~Restore() { linalg::set_gemm_backend(saved); }
  } restore;
  for (GemmBackend be :
       {GemmBackend::kGeneric, GemmBackend::kAvx2, GemmBackend::kNeon}) {
    if (!linalg::gemm_backend_supported(be)) continue;
    linalg::set_gemm_backend(be);
    SCOPED_TRACE(linalg::gemm_backend_name(be));
    body(be);
  }
}

}  // namespace qdnn::testing
