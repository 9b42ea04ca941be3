// StagePlan / StageLane contract tests: liveness-planned slots, the
// residual-add wiring, rebinding to any input up to the plan's maximum
// (bit-identical to a lane bound only at that shape, with zero heap
// allocations once warm), external outputs, and the checked errors.
#include "runtime/stage_plan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc_counter.h"
#include "nn/activations.h"
#include "nn/linear.h"

namespace qdnn::runtime {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t{std::move(shape)};
  rng.fill_uniform(t, -1.0f, 1.0f);
  return t;
}

// fc1 → relu → fc2 → (+ fc1 out) → relu: a chain with one residual add
// that holds the fc1 boundary across two stages.
struct ResidualNet {
  ResidualNet() : rng(5), fc1(6, 8, rng, true, "fc1"),
                  fc2(8, 8, rng, true, "fc2") {}
  std::vector<nn::PipelineStage> stages() {
    return {{&fc1, -1, -1}, {&relu1, 0, -1}, {&fc2, 1, -1},
            {nullptr, 2, 0}, {&relu2, 3, -1}};
  }
  // The same computation through the training API.
  Tensor reference(const Tensor& x) {
    const Tensor h = fc1.forward(x);
    Tensor y = fc2.forward(relu1.forward(h));
    y += h;
    return relu2.forward(y);
  }
  Rng rng;
  nn::Linear fc1, fc2;
  nn::ReLU relu1{"relu1"}, relu2{"relu2"};
};

TEST(StagePlan, LivenessHoldsAResidualBoundaryUntilItsAdd) {
  ResidualNet net;
  const StagePlan plan(net.stages(), Shape{4, 6}, "test");
  EXPECT_EQ(plan.num_stages(), 5);
  EXPECT_EQ(plan.max_output(), Shape({4, 8}));
  // fc1's boundary lives until the add (stage 3) while relu1 and fc2
  // ping-pong beside it: three [4, 8] slots, the final boundary none
  // (a lane with an external output holds just the slots).
  EXPECT_EQ(StageLane(plan, true).activation_floats(), 3 * 4 * 8);
  EXPECT_EQ(StageLane(plan).activation_floats(), 4 * 4 * 8);

  // A pure chain needs only the classic two ping-pong slots.
  Rng rng(6);
  nn::Linear a(6, 8, rng, true, "a"), b(8, 8, rng, true, "b"),
      c(8, 8, rng, true, "c"), d(8, 3, rng, true, "d");
  const StagePlan chain({{&a, -1, -1}, {&b, 0, -1}, {&c, 1, -1},
                         {&d, 2, -1}},
                        Shape{4, 6}, "chain");
  EXPECT_EQ(StageLane(chain, true).activation_floats(), 2 * 4 * 8);
}

TEST(StageLane, RebindsToSmallerInputsBitIdenticallyWithoutAllocating) {
  ResidualNet net;
  const StagePlan plan(net.stages(), Shape{4, 6}, "test");
  StageLane lane(plan);
  const Tensor full = random_tensor(Shape{4, 6}, 7);
  lane.bind(full.shape());
  lane.run(full.data());
  EXPECT_EQ(view_max_abs_diff(lane.output(),
                              ConstTensorView(net.reference(full))),
            0.0f);

  std::vector<Tensor> inputs, refs;
  for (index_t rows : {1, 3, 4, 2}) {
    inputs.push_back(random_tensor(Shape{rows, 6}, 10 + rows));
    refs.push_back(net.reference(inputs.back()));
  }
  lane.workspace().reset();
  lane.workspace().consolidate();
  const long long before = g_live_allocs.load();
  for (int rep = 0; rep < 2; ++rep)
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      lane.bind(inputs[i].shape());
      lane.run(inputs[i].data());
      ASSERT_EQ(lane.output().shape(), refs[i].shape());
      EXPECT_EQ(view_max_abs_diff(lane.output(), ConstTensorView(refs[i])),
                0.0f);
    }
  EXPECT_EQ(g_live_allocs.load() - before, 0)
      << "a warm lane allocated while rebinding";
}

TEST(StageLane, ExternalOutputReceivesTheFinalBoundary) {
  ResidualNet net;
  const StagePlan plan(net.stages(), Shape{4, 6}, "test");
  StageLane lane(plan, /*external_output=*/true);
  const Tensor x = random_tensor(Shape{2, 6}, 8);
  Tensor out{Shape{2, 8}};
  lane.bind(x.shape(), out.data());
  lane.run(x.data());
  EXPECT_EQ(lane.output().data(), out.data());
  EXPECT_EQ(view_max_abs_diff(ConstTensorView(out),
                              ConstTensorView(net.reference(x))),
            0.0f);
  // An external-output lane has nowhere else to put it, and a lane that
  // owns its output takes no other.
  EXPECT_THROW(lane.bind(Shape{3, 6}), std::runtime_error);
  StageLane own(plan);
  EXPECT_THROW(own.bind(x.shape(), out.data()), std::runtime_error);
}

TEST(StageLane, RejectsInputsBeyondThePlanAndRunBeforeBind) {
  ResidualNet net;
  const StagePlan plan(net.stages(), Shape{4, 6}, "test_driver");
  StageLane lane(plan);
  const Tensor x = random_tensor(Shape{4, 6}, 9);
  EXPECT_THROW(lane.run(x.data()), std::runtime_error);
  try {
    lane.bind(Shape{5, 6});
    ADD_FAILURE() << "an input beyond the plan's maximum was bound";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("test_driver"), std::string::npos)
        << e.what();
  }
  // A failed bind leaves the lane unbound, not half re-sliced.
  EXPECT_THROW(lane.run(x.data()), std::runtime_error);
  lane.bind(x.shape());
  EXPECT_NO_THROW(lane.run(x.data()));
}

TEST(StagePlan, RejectsMiswiredPlans) {
  ResidualNet net;
  // A stage reading a boundary not yet produced.
  EXPECT_THROW(StagePlan({{&net.fc1, 0, -1}}, Shape{4, 6}, "test"),
               std::runtime_error);
  // A residual add over operands of different shapes.
  EXPECT_THROW(StagePlan({{&net.fc1, -1, -1}, {nullptr, 0, -1}},
                         Shape{4, 6}, "test"),
               std::runtime_error);
}

}  // namespace
}  // namespace qdnn::runtime
