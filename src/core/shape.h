// Shape: an immutable-ish small vector of dimension extents for Tensor.
//
// Row-major semantics throughout the library.  Kept deliberately simple:
// qdnn tensors are always dense and contiguous, so a Shape fully determines
// the memory layout.
//
// Storage is a fixed inline array (qdnn ranks top out at 4 — [N,C,H,W]),
// so constructing, copying and comparing Shapes never touches the heap.
// This is what lets serving code build TensorViews on the hot path — the
// flattened stage pipelines of runtime::InferenceSession and the native
// attention/Sequential forward_into implementations — while keeping the
// zero-steady-state-allocation guarantee.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <ostream>
#include <vector>

#include "core/check.h"

namespace qdnn {

using index_t = std::int64_t;

class Shape {
 public:
  // Deep enough for every layout in the library plus headroom; a rank
  // above this is a hard error, not a silent heap fallback.
  static constexpr index_t kMaxRank = 6;

  Shape() = default;
  Shape(std::initializer_list<index_t> dims) { assign(dims.begin(), dims.end()); }
  explicit Shape(const std::vector<index_t>& dims) {
    assign(dims.begin(), dims.end());
  }

  index_t rank() const { return rank_; }

  index_t operator[](index_t i) const {
    QDNN_CHECK(i >= 0 && i < rank(), "shape index " << i << " out of rank "
                                                    << rank());
    return dims_[static_cast<std::size_t>(i)];
  }

  // Total number of elements; 1 for a rank-0 (scalar) shape.
  index_t numel() const {
    index_t n = 1;
    for (index_t i = 0; i < rank_; ++i)
      n *= dims_[static_cast<std::size_t>(i)];
    return n;
  }

  // Iteration over the extents (rank() elements).
  const index_t* begin() const { return dims_; }
  const index_t* end() const { return dims_ + rank_; }

  bool operator==(const Shape& other) const {
    if (rank_ != other.rank_) return false;
    for (index_t i = 0; i < rank_; ++i)
      if (dims_[static_cast<std::size_t>(i)] !=
          other.dims_[static_cast<std::size_t>(i)])
        return false;
    return true;
  }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  // This shape with extent i set to `extent` — how drivers re-slice a
  // boundary to a new batch without touching the heap.
  Shape with_dim(index_t i, index_t extent) const {
    QDNN_CHECK(i >= 0 && i < rank() && extent >= 0,
               "with_dim(" << i << ", " << extent << ") on rank-" << rank());
    Shape out = *this;
    out.dims_[static_cast<std::size_t>(i)] = extent;
    return out;
  }

  // Row-major strides (in elements, not bytes).
  std::vector<index_t> strides() const {
    std::vector<index_t> s(static_cast<std::size_t>(rank_), 1);
    for (index_t i = rank() - 2; i >= 0; --i) {
      s[static_cast<std::size_t>(i)] =
          s[static_cast<std::size_t>(i + 1)] * dims_[static_cast<std::size_t>(i + 1)];
    }
    return s;
  }

  std::string to_string() const {
    std::string out = "[";
    for (index_t i = 0; i < rank_; ++i) {
      if (i) out += ", ";
      out += std::to_string(dims_[static_cast<std::size_t>(i)]);
    }
    return out + "]";
  }

 private:
  template <typename It>
  void assign(It first, It last) {
    for (It it = first; it != last; ++it) {
      QDNN_CHECK(rank_ < kMaxRank, "shape rank exceeds " << kMaxRank);
      QDNN_CHECK(*it >= 0, "negative dimension in shape");
      dims_[static_cast<std::size_t>(rank_++)] = *it;
    }
  }

  index_t dims_[static_cast<std::size_t>(kMaxRank)] = {};
  index_t rank_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, const Shape& s) {
  return os << s.to_string();
}

namespace detail {

// Shared QDNN_DCHECK rank/bounds guards for the multi-index at()
// accessors of Tensor, TensorView and ConstTensorView.  No-ops (and
// fully inlined away) when QDNN_DCHECK is disabled.
inline void dcheck_at(const Shape& s, index_t i, index_t j) {
  QDNN_DCHECK(s.rank() == 2, "at(i,j) on rank-" << s.rank());
  QDNN_DCHECK(i >= 0 && i < s[0] && j >= 0 && j < s[1],
              "index (" << i << ", " << j << ") out of bounds for " << s);
}
inline void dcheck_at(const Shape& s, index_t i, index_t j, index_t k) {
  QDNN_DCHECK(s.rank() == 3, "at(i,j,k) on rank-" << s.rank());
  QDNN_DCHECK(i >= 0 && i < s[0] && j >= 0 && j < s[1] && k >= 0 &&
                  k < s[2],
              "index (" << i << ", " << j << ", " << k
                        << ") out of bounds for " << s);
}
inline void dcheck_at(const Shape& s, index_t i, index_t j, index_t k,
                      index_t l) {
  QDNN_DCHECK(s.rank() == 4, "at(i,j,k,l) on rank-" << s.rank());
  QDNN_DCHECK(i >= 0 && i < s[0] && j >= 0 && j < s[1] && k >= 0 &&
                  k < s[2] && l >= 0 && l < s[3],
              "index (" << i << ", " << j << ", " << k << ", " << l
                        << ") out of bounds for " << s);
}

}  // namespace detail

}  // namespace qdnn
