#include "nn/im2col.h"

#include <algorithm>
#include <cstring>

#include "linalg/gemm.h"

namespace qdnn::nn {

Shape conv_output_shape(const ConvGeometry& g, index_t out_channels,
                        const Shape& input_shape, const std::string& layer) {
  QDNN_CHECK_EQ(input_shape.rank(), 4, layer << ": expected [N,C,H,W]");
  QDNN_CHECK_EQ(input_shape[1], g.in_channels, layer << ": channels");
  for (int d : {2, 3})
    QDNN_CHECK(input_shape[d] + 2 * g.padding >= g.kernel,
               layer << ": " << g.kernel << "x" << g.kernel
                     << " kernel does not fit input " << input_shape
                     << " with padding " << g.padding);
  return Shape{input_shape[0], out_channels, g.out_extent(input_shape[2]),
               g.out_extent(input_shape[3])};
}

void im2col(const float* image, index_t height, index_t width,
            const ConvGeometry& g, float* cols) {
  const index_t oh = g.out_extent(height);
  const index_t ow = g.out_extent(width);
  const index_t n_cols = oh * ow;
  index_t row = 0;
  for (index_t c = 0; c < g.in_channels; ++c) {
    const float* chan = image + c * height * width;
    for (index_t ky = 0; ky < g.kernel; ++ky) {
      for (index_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out_row = cols + row * n_cols;
        index_t col = 0;
        for (index_t oy = 0; oy < oh; ++oy) {
          const index_t iy = oy * g.stride + ky - g.padding;
          if (iy < 0 || iy >= height) {
            for (index_t ox = 0; ox < ow; ++ox) out_row[col++] = 0.0f;
            continue;
          }
          const float* img_row = chan + iy * width;
          for (index_t ox = 0; ox < ow; ++ox) {
            const index_t ix = ox * g.stride + kx - g.padding;
            out_row[col++] =
                (ix >= 0 && ix < width) ? img_row[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void im2col_panels(const float* image, index_t height, index_t width,
                   const ConvGeometry& g, float* panels) {
  constexpr index_t kW = linalg::kGemmPanelWidth;
  constexpr index_t kHalf = kW / 2;
  // Kernel taps mapped per pass: bounds the stack table for any kernel.
  constexpr index_t kTapChunk = 16;
  // Where one kernel tap reads each lane's pixel within a channel (-1
  // over padding or past n_cols), and how each 8-lane half is written:
  // one contiguous copy, all zeros, or lane by lane.
  enum class Half { kCopy, kZero, kGather };
  struct TapMap {
    index_t off[kW];
    Half half[2];
  };
  TapMap maps[kTapChunk];
  const index_t ow = g.out_extent(width);
  const index_t n_cols = g.out_extent(height) * ow;
  const index_t patch = g.patch_size();
  const index_t taps = g.kernel * g.kernel;
  for (index_t j0 = 0; j0 < n_cols; j0 += kW) {
    const index_t nr = std::min(kW, n_cols - j0);
    float* panel = panels + (j0 / kW) * patch * kW;
    // Top-left input pixel of each lane's window (before the tap shift).
    index_t y0[kW], x0[kW];
    for (index_t l = 0; l < kW; ++l) {
      y0[l] = ((j0 + l) / ow) * g.stride - g.padding;
      x0[l] = ((j0 + l) % ow) * g.stride - g.padding;
    }
    for (index_t t0 = 0; t0 < taps; t0 += kTapChunk) {
      const index_t nt = std::min(kTapChunk, taps - t0);
      // The maps hold for every channel, so they are built once per
      // panel and tap.
      for (index_t t = 0; t < nt; ++t) {
        TapMap& m = maps[t];
        const index_t ky = (t0 + t) / g.kernel, kx = (t0 + t) % g.kernel;
        for (index_t l = 0; l < kW; ++l) {
          const index_t iy = y0[l] + ky, ix = x0[l] + kx;
          m.off[l] = l < nr && iy >= 0 && iy < height && ix >= 0 &&
                             ix < width
                         ? iy * width + ix
                         : -1;
        }
        for (index_t hf = 0; hf < 2; ++hf) {
          const index_t* o = m.off + hf * kHalf;
          bool copy = true, zero = true;
          for (index_t l = 0; l < kHalf; ++l) {
            copy = copy && o[l] >= 0 && o[l] == o[0] + l;
            zero = zero && o[l] < 0;
          }
          m.half[hf] = copy ? Half::kCopy : zero ? Half::kZero : Half::kGather;
        }
      }
      for (index_t c = 0; c < g.in_channels; ++c) {
        const float* chan = image + c * height * width;
        float* dst = panel + (c * taps + t0) * kW;
        for (index_t t = 0; t < nt; ++t, dst += kW) {
          for (index_t hf = 0; hf < 2; ++hf) {
            float* d = dst + hf * kHalf;
            const index_t* o = maps[t].off + hf * kHalf;
            switch (maps[t].half[hf]) {
              case Half::kCopy:
                std::memcpy(d, chan + o[0], kHalf * sizeof(float));
                break;
              case Half::kZero:
                std::memset(d, 0, kHalf * sizeof(float));
                break;
              case Half::kGather:
                for (index_t l = 0; l < kHalf; ++l)
                  d[l] = o[l] >= 0 ? chan[o[l]] : 0.0f;
                break;
            }
          }
        }
      }
    }
  }
}

void col2im(const float* cols, index_t height, index_t width,
            const ConvGeometry& g, float* image_grad) {
  const index_t oh = g.out_extent(height);
  const index_t ow = g.out_extent(width);
  const index_t n_cols = oh * ow;
  index_t row = 0;
  for (index_t c = 0; c < g.in_channels; ++c) {
    float* chan = image_grad + c * height * width;
    for (index_t ky = 0; ky < g.kernel; ++ky) {
      for (index_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in_row = cols + row * n_cols;
        index_t col = 0;
        for (index_t oy = 0; oy < oh; ++oy) {
          const index_t iy = oy * g.stride + ky - g.padding;
          if (iy < 0 || iy >= height) {
            col += ow;
            continue;
          }
          float* img_row = chan + iy * width;
          for (index_t ox = 0; ox < ow; ++ox, ++col) {
            const index_t ix = ox * g.stride + kx - g.padding;
            if (ix >= 0 && ix < width) img_row[ix] += in_row[col];
          }
        }
      }
    }
  }
}

}  // namespace qdnn::nn
