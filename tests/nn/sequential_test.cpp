// Sequential::forward_into ≡ Sequential::forward, bit for bit, for one
// child (forwarded straight through), two children (one internal
// boundary, no pong buffer) and three or more (ping-pong), and the pass
// makes no heap allocation once its workspace is warm.
#include "nn/sequential.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "alloc_counter.h"
#include "core/rng.h"
#include "core/workspace.h"
#include "nn/activations.h"
#include "nn/linear.h"

namespace qdnn::nn {
namespace {

// `children` layers alternating Linear and an activation, 6 features in.
std::unique_ptr<Sequential> make_chain(int children, std::uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<Sequential>("chain");
  index_t width = 6;
  for (int i = 0; i < children; ++i) {
    if (i % 2 == 0) {
      const index_t out = width + 2;
      net->emplace<Linear>(width, out, rng);
      width = out;
    } else if (i % 4 == 1) {
      net->emplace<ReLU>();
    } else {
      net->emplace<Tanh>();
    }
  }
  net->set_training(false);
  return net;
}

TEST(Sequential, ForwardIntoIsBitIdenticalToForwardAndZeroAllocWhenWarm) {
  for (const int children : {1, 2, 3, 5}) {
    SCOPED_TRACE(children);
    auto chain = make_chain(children, 90 + children);
    Sequential& net = *chain;
    ASSERT_TRUE(net.supports_forward_into());
    Tensor x{Shape{4, 6}};
    Rng(7).fill_uniform(x, -1.0f, 1.0f);
    const Tensor want = net.forward(x);
    const Shape out_shape = net.output_shape(x.shape());
    ASSERT_EQ(out_shape, want.shape());

    Tensor got{out_shape};
    Workspace ws;
    net.forward_into(ConstTensorView(x), TensorView(got), ws);  // warm-up
    ws.reset();
    ws.consolidate();
    got.zero();

    const ConstTensorView in(x);
    const TensorView out(got);
    const long long before = g_live_allocs.load();
    net.forward_into(in, out, ws);
    const long long after = g_live_allocs.load();
    EXPECT_EQ(after - before, 0)
        << "forward_into made " << after - before << " heap allocations";
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)),
              0);
  }
}

}  // namespace
}  // namespace qdnn::nn
