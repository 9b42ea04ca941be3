#include "nn/conv2d.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend_util.h"
#include "gradcheck_util.h"
#include "linalg/gemm.h"

namespace qdnn::nn {
namespace {

using qdnn::testing::for_each_gemm_backend;
using qdnn::testing::gradcheck_module;
using qdnn::testing::random_tensor;

// Direct convolution reference.
Tensor naive_conv(const Tensor& input, const Tensor& weight,
                  const Tensor& bias, const ConvGeometry& g,
                  index_t out_channels) {
  const index_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const index_t oh = g.out_extent(h), ow = g.out_extent(w);
  Tensor out{Shape{n, out_channels, oh, ow}};
  for (index_t s = 0; s < n; ++s)
    for (index_t oc = 0; oc < out_channels; ++oc)
      for (index_t oy = 0; oy < oh; ++oy)
        for (index_t ox = 0; ox < ow; ++ox) {
          double acc = bias.empty() ? 0.0 : bias[oc];
          index_t widx = 0;
          for (index_t c = 0; c < g.in_channels; ++c)
            for (index_t ky = 0; ky < g.kernel; ++ky)
              for (index_t kx = 0; kx < g.kernel; ++kx, ++widx) {
                const index_t iy = oy * g.stride + ky - g.padding;
                const index_t ix = ox * g.stride + kx - g.padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += static_cast<double>(
                           weight[oc * g.patch_size() + widx]) *
                       input.at(s, c, iy, ix);
              }
          out.at(s, oc, oy, ox) = static_cast<float>(acc);
        }
  return out;
}

TEST(Conv2d, OutputShapeSamePadding) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  const Tensor out = conv.forward(random_tensor(Shape{2, 3, 6, 6}, 2));
  EXPECT_EQ(out.shape(), Shape({2, 8, 6, 6}));
}

TEST(Conv2d, OutputShapeStride2) {
  Rng rng(3);
  Conv2d conv(3, 4, 3, 2, 1, rng);
  const Tensor out = conv.forward(random_tensor(Shape{1, 3, 8, 8}, 4));
  EXPECT_EQ(out.shape(), Shape({1, 4, 4, 4}));
}

class Conv2dVsNaive
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {
};

TEST_P(Conv2dVsNaive, MatchesDirectConvolution) {
  const auto [in_ch, out_ch, size, kernel, stride] = GetParam();
  Rng rng(10);
  Conv2d conv(in_ch, out_ch, kernel, stride, kernel / 2, rng);
  const Tensor x = random_tensor(Shape{2, in_ch, size, size}, 11);
  const Tensor y = conv.forward(x);
  const Tensor ref =
      naive_conv(x, conv.weight().value,
                 conv.parameters().size() > 1
                     ? conv.parameters()[1]->value
                     : Tensor{},
                 conv.geometry(), out_ch);
  EXPECT_LT(max_abs_diff(y, ref), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conv2dVsNaive,
    ::testing::Values(std::tuple{1, 1, 5, 3, 1}, std::tuple{3, 4, 6, 3, 1},
                      std::tuple{3, 2, 8, 3, 2}, std::tuple{2, 3, 5, 1, 1},
                      std::tuple{4, 2, 7, 5, 1},
                      std::tuple{2, 2, 9, 3, 3}));

// forward_into ≡ forward ≡ row-major im2col + gemm + bias, bit for bit,
// under every backend, over geometries whose n_cols (1, 49, 45, 57) is
// off the 16-column panel grid.
TEST(Conv2d, PanelPathBitIdenticalToRowMajorGemm) {
  for_each_gemm_backend([](linalg::GemmBackend) {
    int cases = 0;
    for (index_t kernel : {1, 3, 5})
      for (index_t stride : {1, 2})
        for (index_t pad : {0, 1})
          for (auto [oh, ow] : {std::pair<index_t, index_t>{1, 1},
                                {7, 7},
                                {5, 9},
                                {3, 19}})
            for (bool bias : {true, false}) {
              const index_t h = (oh - 1) * stride + kernel - 2 * pad;
              const index_t w = (ow - 1) * stride + kernel - 2 * pad;
              if (h < 1 || w < 1) continue;
              SCOPED_TRACE("k=" + std::to_string(kernel) +
                           " s=" + std::to_string(stride) +
                           " p=" + std::to_string(pad) + " out=" +
                           std::to_string(oh) + "x" + std::to_string(ow));
              Rng rng(30 + cases);
              Conv2d conv(3, 5, kernel, stride, pad, rng, bias);
              if (bias) rng.fill_uniform(conv.bias().value, -1.0f, 1.0f);
              const Tensor x = random_tensor(Shape{2, 3, h, w}, 70 + cases++);
              const Tensor y = conv.forward(x);
              ASSERT_EQ(y.shape(), Shape({2, 5, oh, ow}));
              Tensor y_into{y.shape()};
              Workspace ws;
              conv.forward_into(x, y_into, ws);

              const ConvGeometry& g = conv.geometry();
              const index_t n_cols = oh * ow, patch = g.patch_size();
              Tensor ref{y.shape()};
              std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
              for (index_t s = 0; s < 2; ++s) {
                im2col(x.data() + s * 3 * h * w, h, w, g, cols.data());
                float* out_s = ref.data() + s * 5 * n_cols;
                linalg::gemm(false, false, 5, n_cols, patch, 1.0f,
                             conv.weight().value.data(), patch, cols.data(),
                             n_cols, 0.0f, out_s, n_cols);
                if (bias)
                  for (index_t oc = 0; oc < 5; ++oc)
                    for (index_t j = 0; j < n_cols; ++j)
                      out_s[oc * n_cols + j] += conv.bias().value[oc];
              }
              EXPECT_EQ(max_abs_diff(y, ref), 0.0f);
              EXPECT_EQ(max_abs_diff(y_into, ref), 0.0f);
            }
    EXPECT_GT(cases, 60);
  });
}

TEST(Conv2d, Gradcheck) {
  Rng rng(20);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  EXPECT_TRUE(gradcheck_module(conv, random_tensor(Shape{2, 2, 4, 4}, 21)));
}

TEST(Conv2d, GradcheckStride2NoBias) {
  Rng rng(22);
  Conv2d conv(2, 2, 3, 2, 1, rng, /*bias=*/false);
  EXPECT_TRUE(gradcheck_module(conv, random_tensor(Shape{1, 2, 6, 6}, 23)));
}

TEST(Conv2d, Gradcheck1x1) {
  Rng rng(24);
  Conv2d conv(3, 4, 1, 1, 0, rng);
  EXPECT_TRUE(gradcheck_module(conv, random_tensor(Shape{2, 3, 3, 3}, 25)));
}

TEST(Conv2d, WrongChannelCountThrows) {
  Rng rng(26);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  EXPECT_THROW(conv.forward(random_tensor(Shape{1, 2, 4, 4}, 27)),
               std::runtime_error);
}

TEST(Conv2d, TranslationEquivariance) {
  // Shifting the input by the stride shifts the output (away from
  // borders) — a fundamental conv property.
  Rng rng(28);
  Conv2d conv(1, 2, 3, 1, 1, rng, /*bias=*/false);
  Tensor x{Shape{1, 1, 8, 8}};
  x.at(0, 0, 3, 3) = 1.0f;
  const Tensor y1 = conv.forward(x);
  Tensor x2{Shape{1, 1, 8, 8}};
  x2.at(0, 0, 4, 3) = 1.0f;
  const Tensor y2 = conv.forward(x2);
  for (index_t c = 0; c < 2; ++c)
    for (index_t i = 2; i < 6; ++i)
      for (index_t j = 2; j < 6; ++j)
        EXPECT_NEAR(y1.at(0, c, i, j), y2.at(0, c, i + 1, j), 1e-6f);
}

}  // namespace
}  // namespace qdnn::nn
