#include "nn/im2col.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "linalg/gemm.h"

namespace qdnn::nn {
namespace {

TEST(ConvGeometry, OutExtent) {
  const ConvGeometry g{3, 3, 1, 1};
  EXPECT_EQ(g.out_extent(8), 8);   // same padding
  EXPECT_EQ(g.patch_size(), 27);
  const ConvGeometry s2{3, 3, 2, 1};
  EXPECT_EQ(s2.out_extent(8), 4);
  const ConvGeometry k1{16, 1, 1, 0};
  EXPECT_EQ(k1.out_extent(8), 8);
  EXPECT_EQ(k1.patch_size(), 16);
}

TEST(Im2col, IdentityFor1x1Kernel) {
  const ConvGeometry g{2, 1, 1, 0};
  Rng rng(1);
  Tensor img{Shape{2, 3, 3}};
  rng.fill_uniform(img, -1.0f, 1.0f);
  std::vector<float> cols(2 * 9);
  im2col(img.data(), 3, 3, g, cols.data());
  for (index_t i = 0; i < 18; ++i) EXPECT_FLOAT_EQ(cols[i], img[i]);
}

TEST(Im2col, ExtractsCorrectPatch) {
  // 1 channel, 3x3 image, 3x3 kernel, pad 1: center column (index 4) is
  // the full image; corner column 0 has zeros where padding applies.
  const ConvGeometry g{1, 3, 1, 1};
  Tensor img{Shape{1, 3, 3}};
  for (index_t i = 0; i < 9; ++i) img[i] = static_cast<float>(i + 1);
  std::vector<float> cols(9 * 9);
  im2col(img.data(), 3, 3, g, cols.data());
  // Column 4 = patch centered at (1,1) = [1..9] in row-major kernel order.
  for (index_t r = 0; r < 9; ++r)
    EXPECT_FLOAT_EQ(cols[r * 9 + 4], static_cast<float>(r + 1));
  // Column 0 = patch centered at (0,0): rows touching padding are zero.
  EXPECT_FLOAT_EQ(cols[0 * 9 + 0], 0.0f);  // (ky=0,kx=0) off-image
  EXPECT_FLOAT_EQ(cols[4 * 9 + 0], 1.0f);  // (ky=1,kx=1) = pixel (0,0)
  EXPECT_FLOAT_EQ(cols[8 * 9 + 0], 5.0f);  // (ky=2,kx=2) = pixel (1,1)
}

TEST(Im2col, StrideSkipsPositions) {
  const ConvGeometry g{1, 2, 2, 0};
  Tensor img{Shape{1, 4, 4}};
  for (index_t i = 0; i < 16; ++i) img[i] = static_cast<float>(i);
  std::vector<float> cols(4 * 4);
  im2col(img.data(), 4, 4, g, cols.data());
  // Output positions: (0,0),(0,2),(2,0),(2,2); row 0 is kernel (0,0).
  EXPECT_FLOAT_EQ(cols[0 * 4 + 0], 0.0f);
  EXPECT_FLOAT_EQ(cols[0 * 4 + 1], 2.0f);
  EXPECT_FLOAT_EQ(cols[0 * 4 + 2], 8.0f);
  EXPECT_FLOAT_EQ(cols[0 * 4 + 3], 10.0f);
}

// The adjoint property <im2col(x), y> == <x, col2im(y)> must hold exactly
// for the conv backward pass to be correct.
class Im2colAdjoint
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Im2colAdjoint, AdjointProperty) {
  const auto [channels, size, kernel, stride] = GetParam();
  const index_t pad = kernel / 2;
  const ConvGeometry g{channels, kernel, stride, pad};
  const index_t oh = g.out_extent(size);
  const index_t n_cols = oh * oh;
  const index_t patch = g.patch_size();

  Rng rng(42);
  Tensor x{Shape{channels, size, size}};
  rng.fill_uniform(x, -1.0f, 1.0f);
  std::vector<float> y(static_cast<std::size_t>(patch * n_cols));
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
  im2col(x.data(), size, size, g, cols.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i)
    lhs += static_cast<double>(cols[i]) * y[i];

  Tensor xg{Shape{channels, size, size}};
  col2im(y.data(), size, size, g, xg.data());
  double rhs = 0.0;
  for (index_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * xg[i];

  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::fabs(lhs)));
}

// im2col_panels holds exactly the row-major patch matrix re-laid into
// gemm's tile panels, bit for bit, with every lane past OH·OW zero.  The
// buffer starts as NaN so a lane the panel writer skips shows up.
TEST(Im2colPanels, MatchesRowMajorRelaidIntoPanels) {
  constexpr index_t kW = linalg::kGemmPanelWidth;
  int cases = 0;
  for (index_t kernel : {1, 3, 5})
    for (index_t stride : {1, 2})
      for (index_t pad : {0, 1})
        for (auto [h, w] : {std::pair<index_t, index_t>{1, 1},
                            {3, 3},
                            {7, 7},
                            {5, 9},
                            {8, 8},
                            {9, 21},
                            {32, 32}}) {
          if (h + 2 * pad < kernel || w + 2 * pad < kernel) continue;
          const ConvGeometry g{2, kernel, stride, pad};
          const index_t n_cols = g.out_extent(h) * g.out_extent(w);
          const index_t patch = g.patch_size();
          Rng rng(90 + cases++);
          Tensor img{Shape{2, h, w}};
          rng.fill_uniform(img, -1.0f, 1.0f);
          std::vector<float> cols(static_cast<std::size_t>(patch * n_cols));
          im2col(img.data(), h, w, g, cols.data());
          std::vector<float> panels(
              static_cast<std::size_t>(
                  linalg::gemm_panel_floats(patch, n_cols)),
              std::numeric_limits<float>::quiet_NaN());
          im2col_panels(img.data(), h, w, g, panels.data());
          for (index_t jp = 0; jp * kW < n_cols; ++jp)
            for (index_t p = 0; p < patch; ++p)
              for (index_t lane = 0; lane < kW; ++lane) {
                const index_t j = jp * kW + lane;
                const float want = j < n_cols ? cols[p * n_cols + j] : 0.0f;
                const float got = panels[(jp * patch + p) * kW + lane];
                ASSERT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
                    << "k=" << kernel << " s=" << stride << " p=" << pad
                    << " in=" << h << "x" << w << " panel " << jp
                    << " row " << p << " lane " << lane << ": " << got
                    << " vs " << want;
              }
        }
  EXPECT_GT(cases, 60);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Im2colAdjoint,
    ::testing::Values(std::tuple{1, 5, 3, 1}, std::tuple{3, 8, 3, 1},
                      std::tuple{3, 8, 3, 2}, std::tuple{2, 6, 1, 1},
                      std::tuple{4, 7, 5, 1}, std::tuple{2, 9, 3, 3}));

}  // namespace
}  // namespace qdnn::nn
