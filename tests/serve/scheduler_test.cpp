// Continuous-batching equivalence and lifecycle contracts for
// serve::BatchScheduler.
//
// The headline property: for ANY admission/retirement interleaving —
// fuzzed over batch widths, submission orders and arrival delays — every
// greedy request's token sequence is bit-identical to a solo decode of
// that request alone (greedy_decode_reference, the O(T²) oracle that
// never binds the decoder).  Stochastic requests must be reproducible
// across admission orders from their per-request seeds.
#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "decode_test_util.h"

namespace qdnn::serve {
namespace {

using models::Transformer;
using qdnn::testing::random_src_ids;
using qdnn::testing::tiny_transformer_config;

constexpr index_t kBos = 1, kEos = 2;

BatchSchedulerConfig scheduler_config(index_t max_batch,
                                      index_t max_steps) {
  BatchSchedulerConfig config;
  config.session.max_batch = max_batch;
  config.session.max_steps = max_steps;
  config.bos = kBos;
  config.eos = kEos;
  return config;
}

struct TestRequest {
  Tensor src;
  index_t src_length;
  index_t budget;
  SamplingConfig sampling = SamplingConfig::greedy();
  std::vector<index_t> reference;  // solo greedy tokens (greedy requests)
};

// A mixed-shape request set: ragged sources, mixed budgets.
std::vector<TestRequest> make_requests(Transformer& model, index_t count,
                                       index_t max_steps,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestRequest> requests;
  for (index_t i = 0; i < count; ++i) {
    TestRequest r;
    const index_t ts = 3 + rng.uniform_int(4);       // 3..6
    const index_t len = 1 + rng.uniform_int(ts);     // 1..ts (ragged)
    r.src = random_src_ids(1, ts, 20, seed * 100 + i);
    r.src_length = len;
    r.budget = 2 + rng.uniform_int(max_steps - 2);   // 2..max_steps-1
    r.reference = model.greedy_decode_reference(r.src, {len}, kBos, kEos,
                                                r.budget)[0];
    requests.push_back(std::move(r));
  }
  return requests;
}

// Drives a scheduler over `requests` with per-request arrival ticks and a
// submission order; returns results keyed by request index.
std::map<index_t, RequestResult> drive(
    Transformer& model, const std::vector<TestRequest>& requests,
    const std::vector<index_t>& order,
    const std::vector<index_t>& arrival_ticks, index_t max_batch,
    index_t max_steps) {
  BatchScheduler scheduler(model, scheduler_config(max_batch, max_steps));
  std::map<index_t, index_t> id_to_index;  // scheduler id -> request idx
  std::map<index_t, RequestResult> results;
  std::size_t next = 0;
  while (next < order.size() || !scheduler.idle()) {
    while (next < order.size() &&
           arrival_ticks[next] <= scheduler.ticks()) {
      const index_t idx = order[next];
      const TestRequest& r = requests[static_cast<std::size_t>(idx)];
      Request req;
      req.src_ids = r.src;
      req.src_length = r.src_length;
      req.max_new_tokens = r.budget;
      req.sampling = r.sampling;
      id_to_index[scheduler.submit(std::move(req))] = idx;
      ++next;
    }
    scheduler.step();
    scheduler.check_invariants();
    for (RequestResult& result : scheduler.take_results())
      results[id_to_index.at(result.id)] = std::move(result);
  }
  return results;
}

TEST(BatchScheduler, FuzzedAdmissionOrdersMatchSoloGreedyBitExactly) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 12;
  const auto requests = make_requests(model, 10, max_steps, 5);

  for (const std::uint64_t fuzz_seed : {101u, 202u, 303u}) {
    Rng rng(fuzz_seed);
    const index_t max_batch = 1 + rng.uniform_int(3);  // 1..3
    // Random submission order; arrivals drip in so admissions interleave
    // with mid-flight rows at many different ring positions.
    std::vector<index_t> order = rng.permutation(
        static_cast<index_t>(requests.size()));
    std::vector<index_t> arrivals;
    index_t tick = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      arrivals.push_back(tick);
      tick += rng.uniform_int(5);  // 0..4 ticks between arrivals
    }

    const auto results = drive(model, requests, order, arrivals,
                               max_batch, max_steps);
    ASSERT_EQ(results.size(), requests.size())
        << "fuzz seed " << fuzz_seed;
    for (const auto& [idx, result] : results) {
      const TestRequest& r = requests[static_cast<std::size_t>(idx)];
      EXPECT_EQ(result.tokens, r.reference)
          << "request " << idx << " fuzz seed " << fuzz_seed
          << " max_batch " << max_batch;
      // eos iff the solo reference stopped short of its budget.
      const bool ref_hit_eos =
          static_cast<index_t>(r.reference.size()) < r.budget;
      EXPECT_EQ(result.reason == FinishReason::kEos, ref_hit_eos)
          << "request " << idx;
    }
  }
}

TEST(BatchScheduler, StochasticRequestsReproducibleAcrossAdmissionOrders) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 10;
  auto requests = make_requests(model, 6, max_steps, 9);
  // Half temperature, half top-k, each with its own seed; sampled tokens
  // must depend only on the request's own stream, never on neighbors.
  for (std::size_t i = 0; i < requests.size(); ++i)
    requests[i].sampling =
        i % 2 == 0 ? SamplingConfig::with_temperature(
                         1.2f, 1000 + static_cast<std::uint64_t>(i))
                   : SamplingConfig::with_top_k(
                         4, 0.9f, 2000 + static_cast<std::uint64_t>(i));

  const auto n = static_cast<index_t>(requests.size());
  std::vector<index_t> forward(static_cast<std::size_t>(n)),
      reverse(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    forward[static_cast<std::size_t>(i)] = i;
    reverse[static_cast<std::size_t>(i)] = n - 1 - i;
  }
  const std::vector<index_t> no_delay(static_cast<std::size_t>(n), 0);
  std::vector<index_t> dripped;
  for (index_t i = 0; i < n; ++i) dripped.push_back(i * 3);

  const auto a = drive(model, requests, forward, no_delay, 3, max_steps);
  const auto b = drive(model, requests, reverse, no_delay, 2, max_steps);
  const auto c = drive(model, requests, forward, dripped, 1, max_steps);
  ASSERT_EQ(a.size(), requests.size());
  for (const auto& [idx, result] : a) {
    EXPECT_EQ(result.tokens, b.at(idx).tokens)
        << "request " << idx << ": admission order changed the sample";
    EXPECT_EQ(result.tokens, c.at(idx).tokens)
        << "request " << idx << ": batch width changed the sample";
  }
}

TEST(BatchScheduler, GreedyRowUnaffectedByStochasticNeighbors) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 10;
  auto requests = make_requests(model, 4, max_steps, 13);
  // Requests 1..3 sample; request 0 stays greedy and must still match
  // its solo reference exactly.
  for (std::size_t i = 1; i < requests.size(); ++i)
    requests[i].sampling = SamplingConfig::with_temperature(
        1.5f, 50 + static_cast<std::uint64_t>(i));

  std::vector<index_t> order{0, 1, 2, 3};
  const std::vector<index_t> no_delay(4, 0);
  const auto results = drive(model, requests, order, no_delay, 4,
                             max_steps);
  EXPECT_EQ(results.at(0).tokens, requests[0].reference);
}

TEST(BatchScheduler, BudgetRetiresOnLengthAndEosRetiresEarly) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);

  // eos = the probe source's first greedy token, so the eos request
  // retires immediately; computed before any scheduler binds the model.
  const Tensor probe_src = random_src_ids(1, 5, 20, 78);
  const auto probe =
      model.greedy_decode_reference(probe_src, {}, kBos, kEos, 12);
  ASSERT_FALSE(probe[0].empty());
  BatchSchedulerConfig eos_config = scheduler_config(2, 12);
  eos_config.eos = probe[0][0];

  {
    // Budget 3 on an untrained model: eos (id 2) is effectively never
    // the greedy pick, so the request must retire on length, 3 tokens.
    BatchScheduler scheduler(model, scheduler_config(2, 12));
    Request capped;
    capped.src_ids = random_src_ids(1, 5, 20, 77);
    capped.max_new_tokens = 3;
    const index_t capped_id = scheduler.submit(std::move(capped));
    scheduler.run();
    auto results = scheduler.take_results();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].id, capped_id);
    EXPECT_EQ(results[0].tokens.size(), 3u);
    EXPECT_EQ(results[0].reason, FinishReason::kLength);
    EXPECT_EQ(results[0].decode_steps, 3);
  }

  // Fresh scheduler (the first unbound at destruction).
  BatchScheduler eos_scheduler(model, eos_config);
  Request eos_req;
  eos_req.src_ids = probe_src;
  eos_scheduler.submit(std::move(eos_req));
  eos_scheduler.run();
  auto eos_results = eos_scheduler.take_results();
  ASSERT_EQ(eos_results.size(), 1u);
  EXPECT_TRUE(eos_results[0].tokens.empty());
  EXPECT_EQ(eos_results[0].reason, FinishReason::kEos);
}

TEST(BatchScheduler, EosOnFirstStepAndSingleTokenBudgets) {
  // Boundary coverage in both admission modes: a request whose very
  // first greedy pick is eos retires with EMPTY tokens after exactly one
  // decode step, and max_new_tokens == 1 emits exactly one token.
  Transformer model(tiny_transformer_config());
  model.set_training(false);

  // eos = the probe source's first greedy token, computed before any
  // scheduler binds the model.
  const Tensor probe_src = random_src_ids(1, 5, 20, 178);
  const auto probe =
      model.greedy_decode_reference(probe_src, {}, kBos, kEos, 12);
  ASSERT_FALSE(probe[0].empty());
  // A second source whose first greedy token differs from the probe's,
  // so only the probe request sees the redefined eos on step one.
  Tensor other_src;
  for (std::uint64_t seed = 179;; ++seed) {
    other_src = random_src_ids(1, 4, 20, seed);
    const auto first =
        model.greedy_decode_reference(other_src, {}, kBos, kEos, 1);
    if (!first[0].empty() && first[0][0] != probe[0][0]) break;
  }

  for (const index_t workers : {0, 1}) {
    BatchSchedulerConfig config = scheduler_config(2, 12);
    config.eos = probe[0][0];
    config.prefill_workers = workers;
    BatchScheduler scheduler(model, config);

    Request eos_first;
    eos_first.src_ids = probe_src;
    const index_t eos_id = scheduler.submit(std::move(eos_first));
    Request one_token;
    one_token.src_ids = other_src;
    one_token.max_new_tokens = 1;
    const index_t one_id = scheduler.submit(std::move(one_token));
    scheduler.run();

    auto results = scheduler.take_results();
    ASSERT_EQ(results.size(), 2u) << "workers " << workers;
    for (const RequestResult& r : results) {
      if (r.id == eos_id) {
        EXPECT_TRUE(r.tokens.empty()) << "workers " << workers;
        EXPECT_EQ(r.reason, FinishReason::kEos);
        EXPECT_EQ(r.decode_steps, 1) << "eos costs exactly one step";
      } else {
        EXPECT_EQ(r.id, one_id);
        EXPECT_EQ(r.tokens.size(), 1u) << "workers " << workers;
        EXPECT_EQ(r.reason, FinishReason::kLength);
        EXPECT_EQ(r.decode_steps, 1);
      }
    }
  }
}

TEST(BatchScheduler, FreedRowsParkOnceAndStayAtRingZero) {
  // A freed (or never-admitted) row is parked exactly once and its ring
  // position stays pinned at 0 across ticks — no per-tick reset_row
  // calls behind the scenes — whether it sits above the highest live row
  // (not stepped) or below it (stepped, output ignored).  Admission takes
  // the LOWEST free row: with rows 0 and 1 freed in that order while row
  // 2 is live, the next request lands in row 0, not in the row freed
  // last.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 10;
  BatchScheduler scheduler(model, scheduler_config(3, max_steps));

  const index_t budgets[] = {2, 4, max_steps, 2};
  std::vector<Tensor> srcs;
  std::vector<std::vector<index_t>> refs;
  for (index_t i = 0; i < 4; ++i) {
    srcs.push_back(random_src_ids(1, 4, 20, 181 + i));
    refs.push_back(model.greedy_decode_reference(srcs.back(), {}, kBos,
                                                 kEos, budgets[i])[0]);
    // Untrained tiny model: no reference stops early on eos.
    ASSERT_EQ(static_cast<index_t>(refs.back().size()), budgets[i]);
  }
  std::map<index_t, index_t> id_to_index;
  const auto submit = [&](index_t i) {
    Request req;
    req.src_ids = srcs[static_cast<std::size_t>(i)];
    req.max_new_tokens = budgets[i];
    id_to_index[scheduler.submit(std::move(req))] = i;
  };
  std::map<index_t, std::vector<index_t>> got;
  const auto tick = [&] {
    scheduler.step();
    scheduler.check_invariants();
    for (RequestResult& r : scheduler.take_results()) {
      EXPECT_EQ(r.reason, FinishReason::kLength);
      got[id_to_index.at(r.id)] = std::move(r.tokens);
    }
    for (index_t row = 0; row < 3; ++row) {
      if (scheduler.session().row_parked(row)) {
        EXPECT_EQ(scheduler.session().row_steps(row), 0)
            << "parked row " << row << " advanced";
      }
    }
  };

  // Rows 0, 1, 2 take A, B, C.  Row 2 stays live throughout, so every
  // tick steps all three rows.
  for (index_t i = 0; i < 3; ++i) submit(i);
  for (index_t t = 1; t <= 6; ++t) {
    tick();
    EXPECT_EQ(scheduler.session().logits().dim(0), 3) << "tick " << t;
  }
  // A retired at tick 2 and B at tick 4: rows 0 and 1 are free, parked
  // below the live row 2.
  EXPECT_TRUE(scheduler.session().row_parked(0));
  EXPECT_TRUE(scheduler.session().row_parked(1));
  EXPECT_FALSE(scheduler.session().row_parked(2));

  submit(3);
  tick();
  EXPECT_FALSE(scheduler.session().row_parked(0))
      << "admission must take the lowest free row";
  EXPECT_TRUE(scheduler.session().row_parked(1));
  while (!scheduler.idle()) tick();
  ASSERT_EQ(got.size(), 4u);
  for (index_t i = 0; i < 4; ++i)
    EXPECT_EQ(got[i], refs[static_cast<std::size_t>(i)]) << "request " << i;
}

TEST(BatchScheduler, ResultsStreamOutWhileOthersKeepDecoding) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 14));

  Request quick;
  quick.src_ids = random_src_ids(1, 4, 20, 81);
  quick.max_new_tokens = 2;
  const index_t quick_id = scheduler.submit(std::move(quick));
  Request slow;
  slow.src_ids = random_src_ids(1, 4, 20, 82);
  slow.max_new_tokens = 14;
  const index_t slow_id = scheduler.submit(std::move(slow));

  // After 3 ticks the quick request has retired and its slot is free
  // again, while the slow one is still mid-decode.
  for (int i = 0; i < 3; ++i) scheduler.step();
  auto early = scheduler.take_results();
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0].id, quick_id);
  EXPECT_EQ(scheduler.live_rows(), 1);
  EXPECT_FALSE(scheduler.idle());

  // A third request admitted into the freed slot mid-flight.
  Request refill;
  refill.src_ids = random_src_ids(1, 4, 20, 83);
  refill.max_new_tokens = 3;
  const index_t refill_id = scheduler.submit(std::move(refill));
  scheduler.run();
  auto rest = scheduler.take_results();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_TRUE((rest[0].id == slow_id && rest[1].id == refill_id) ||
              (rest[0].id == refill_id && rest[1].id == slow_id));
  EXPECT_TRUE(scheduler.idle());
  std::size_t emitted = early[0].tokens.size();
  for (const RequestResult& r : rest) emitted += r.tokens.size();
  EXPECT_EQ(scheduler.total_tokens(),
            static_cast<index_t>(emitted));
  EXPECT_GT(scheduler.mean_occupancy(), 1.0);
}

TEST(BatchScheduler, LatencyTicksAreConsistent) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(1, 8));
  // With one row, the second request queues until the first retires.
  for (int i = 0; i < 2; ++i) {
    Request req;
    req.src_ids = random_src_ids(1, 4, 20, 90 + i);
    req.max_new_tokens = 4;
    scheduler.submit(std::move(req));
  }
  scheduler.run();
  const auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 2u);
  for (const RequestResult& r : results) {
    EXPECT_EQ(r.submit_tick, 0);
    EXPECT_LE(r.admit_tick, r.finish_tick);
    EXPECT_EQ(r.finish_tick - r.admit_tick, r.decode_steps);
  }
  EXPECT_EQ(results[0].admit_tick, 0);
  EXPECT_GT(results[1].admit_tick, 0) << "row 0 was occupied at submit";
}

TEST(BatchScheduler, SubmitValidatesAtTheEdge) {
  models::TransformerConfig mc = tiny_transformer_config();
  Transformer model(mc);
  model.set_training(false);
  BatchSchedulerConfig config = scheduler_config(2, 8);
  config.session.max_src = 6;
  {
    BatchScheduler scheduler(model, config);

    Request too_long;
    too_long.src_ids = random_src_ids(1, 7, 20, 91);  // > max_src
    EXPECT_THROW(scheduler.submit(std::move(too_long)),
                 std::runtime_error);

    Request bad_budget;
    bad_budget.src_ids = random_src_ids(1, 4, 20, 92);
    bad_budget.max_new_tokens = 9;  // > max_steps
    EXPECT_THROW(scheduler.submit(std::move(bad_budget)),
                 std::runtime_error);

    Request bad_length;
    bad_length.src_ids = random_src_ids(1, 4, 20, 93);
    bad_length.src_length = 5;  // > Ts
    EXPECT_THROW(scheduler.submit(std::move(bad_length)),
                 std::runtime_error);

    Request bad_sampling;
    bad_sampling.src_ids = random_src_ids(1, 4, 20, 94);
    bad_sampling.sampling = SamplingConfig::with_temperature(0.0f, 1);
    EXPECT_THROW(scheduler.submit(std::move(bad_sampling)),
                 std::runtime_error);

    Request bad_shape;
    bad_shape.src_ids = random_src_ids(2, 4, 20, 95);  // [2, Ts]
    EXPECT_THROW(scheduler.submit(std::move(bad_shape)),
                 std::runtime_error);
  }

  // Constructor-level validation (the model is unbound again): bos/eos
  // must be inside the target vocabulary, and the ring-geometry errors
  // carry the config field names.
  {
    BatchSchedulerConfig bad = scheduler_config(2, 8);
    bad.eos = mc.tgt_vocab;
    EXPECT_THROW(BatchScheduler(model, bad), std::runtime_error);
  }
  {
    BatchSchedulerConfig bad = scheduler_config(0, 8);
    EXPECT_THROW(BatchScheduler(model, bad), std::runtime_error);
  }
  {
    BatchSchedulerConfig bad = scheduler_config(2, 8);
    bad.session.max_src = -1;
    EXPECT_THROW(BatchScheduler(model, bad), std::runtime_error);
  }
  // And after all the rejections the model still serves normally.
  BatchScheduler ok(model, scheduler_config(2, 8));
  Request fine;
  fine.src_ids = random_src_ids(1, 4, 20, 97);
  fine.max_new_tokens = 2;
  ok.submit(std::move(fine));
  ok.run();
  EXPECT_EQ(ok.take_results().size(), 1u);
}

TEST(BatchScheduler, PriorityClassesControlAdmissionOrder) {
  // With one batch row occupied, three queued requests must admit
  // high → normal → low regardless of submission order (aging off so the
  // classes stay fixed).
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchSchedulerConfig config = scheduler_config(1, 8);
  config.age_ticks = 0;
  BatchScheduler scheduler(model, config);

  Request filler;
  filler.src_ids = random_src_ids(1, 4, 20, 301);
  filler.max_new_tokens = 4;
  scheduler.submit(std::move(filler));
  scheduler.step();  // filler occupies the only row

  std::map<index_t, Priority> expected;
  for (const Priority p : {Priority::kLow, Priority::kNormal,
                           Priority::kHigh}) {
    Request req;
    req.src_ids = random_src_ids(
        1, 4, 20, 310 + static_cast<std::uint64_t>(p));
    req.max_new_tokens = 2;
    req.priority = p;
    expected[scheduler.submit(std::move(req))] = p;
  }
  scheduler.run();

  std::map<Priority, index_t> admit_tick;
  for (const RequestResult& r : scheduler.take_results()) {
    if (expected.count(r.id) == 0) continue;  // the filler
    EXPECT_EQ(r.priority, expected.at(r.id));
    admit_tick[r.priority] = r.admit_tick;
  }
  ASSERT_EQ(admit_tick.size(), 3u);
  EXPECT_LT(admit_tick.at(Priority::kHigh),
            admit_tick.at(Priority::kNormal));
  EXPECT_LT(admit_tick.at(Priority::kNormal),
            admit_tick.at(Priority::kLow));
}

TEST(BatchScheduler, AgingPromotesLowPriorityOverLaterHigh) {
  // A low-priority request that has waited age_ticks * 2 ticks reaches
  // effective class 0; FIFO within a class then puts it AHEAD of a
  // high-priority request submitted later.  With aging disabled the same
  // schedule admits the high request first — starvation.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  for (const index_t age_ticks : {1, 0}) {
    BatchSchedulerConfig config = scheduler_config(1, 8);
    config.age_ticks = age_ticks;
    BatchScheduler scheduler(model, config);

    Request filler;
    filler.src_ids = random_src_ids(1, 4, 20, 321);
    filler.max_new_tokens = 6;
    scheduler.submit(std::move(filler));
    scheduler.step();  // tick 1: filler live

    Request low;
    low.src_ids = random_src_ids(1, 4, 20, 322);
    low.max_new_tokens = 2;
    low.priority = Priority::kLow;
    const index_t low_id = scheduler.submit(std::move(low));
    scheduler.step();
    scheduler.step();  // low has now waited 2 ticks

    Request high;
    high.src_ids = random_src_ids(1, 4, 20, 323);
    high.max_new_tokens = 2;
    high.priority = Priority::kHigh;
    const index_t high_id = scheduler.submit(std::move(high));
    scheduler.run();

    std::map<index_t, index_t> admit;
    for (const RequestResult& r : scheduler.take_results())
      admit[r.id] = r.admit_tick;
    if (age_ticks > 0) {
      EXPECT_LT(admit.at(low_id), admit.at(high_id))
          << "aged low priority must not starve behind a later high";
    } else {
      EXPECT_LT(admit.at(high_id), admit.at(low_id))
          << "with aging off, class order is absolute";
    }
  }
}

TEST(BatchScheduler, BoundedQueueLoadShedsAtSubmit) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchSchedulerConfig config = scheduler_config(1, 8);
  config.max_queue = 1;
  BatchScheduler scheduler(model, config);

  Request first;
  first.src_ids = random_src_ids(1, 4, 20, 331);
  first.max_new_tokens = 3;
  const index_t first_id = scheduler.submit(std::move(first));
  scheduler.step();  // admit it, emptying the queue

  Request second;
  second.src_ids = random_src_ids(1, 4, 20, 332);
  second.max_new_tokens = 3;
  const index_t second_id = scheduler.submit(std::move(second));

  Request third;  // queue is at max_queue: shed, resolved immediately
  third.src_ids = random_src_ids(1, 4, 20, 333);
  third.max_new_tokens = 3;
  const index_t third_id = scheduler.submit(std::move(third));
  EXPECT_EQ(scheduler.results_ready(), 1);
  auto shed = scheduler.take_results();
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].id, third_id);
  EXPECT_EQ(shed[0].reason, FinishReason::kShed);
  EXPECT_TRUE(shed[0].tokens.empty());
  EXPECT_NE(shed[0].error.find("max_queue"), std::string::npos);
  EXPECT_EQ(shed[0].admit_tick, -1)
      << "a shed request never admitted — admit_tick keeps the sentinel";

  // Shedding never throws: while the queue is still full (a tick has not
  // admitted `second` yet), another submit sheds the same way.
  Request overflow;
  overflow.src_ids = random_src_ids(1, 4, 20, 334);
  overflow.max_new_tokens = 3;
  const index_t overflow_id = scheduler.submit(std::move(overflow));
  auto shed_again = scheduler.take_results();
  ASSERT_EQ(shed_again.size(), 1u);
  EXPECT_EQ(shed_again[0].id, overflow_id);
  EXPECT_EQ(shed_again[0].reason, FinishReason::kShed);
  scheduler.run();
  auto rest = scheduler.take_results();
  std::vector<index_t> ids;
  for (const RequestResult& r : rest) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::count(ids.begin(), ids.end(), first_id) == 1);
  EXPECT_TRUE(std::count(ids.begin(), ids.end(), second_id) == 1);

  const SchedulerStats stats = scheduler.stats();
  const auto& normal =
      stats.per_class[static_cast<std::size_t>(Priority::kNormal)];
  EXPECT_EQ(normal.shed, 2);
  EXPECT_EQ(normal.completed, 2);
}

TEST(BatchScheduler, ExplicitIdsMustBeUniqueAmongInFlight) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8));

  Request a;
  a.src_ids = random_src_ids(1, 4, 20, 341);
  a.max_new_tokens = 2;
  a.id = 7;
  EXPECT_EQ(scheduler.submit(std::move(a)), 7);

  Request dup;  // same id while 7 is unresolved: rejected at the edge
  dup.src_ids = random_src_ids(1, 4, 20, 342);
  dup.max_new_tokens = 2;
  dup.id = 7;
  EXPECT_THROW(scheduler.submit(std::move(dup)), std::runtime_error);

  Request negative;
  negative.src_ids = random_src_ids(1, 4, 20, 343);
  negative.id = -5;
  EXPECT_THROW(scheduler.submit(std::move(negative)), std::runtime_error);

  // Auto-assignment skips ids claimed explicitly.
  Request zero;
  zero.src_ids = random_src_ids(1, 4, 20, 344);
  zero.max_new_tokens = 2;
  zero.id = 0;
  EXPECT_EQ(scheduler.submit(std::move(zero)), 0);

  // While 0 is still in flight, auto-assignment must skip it.
  Request barely;
  barely.src_ids = random_src_ids(1, 4, 20, 345);
  barely.max_new_tokens = 2;
  EXPECT_NE(scheduler.submit(std::move(barely)), 0)
      << "auto ids must skip explicitly claimed in-flight ones";
  scheduler.run();
  EXPECT_EQ(scheduler.take_results().size(), 3u);

  // A RESOLVED id may be reused.
  Request again;
  again.src_ids = random_src_ids(1, 4, 20, 346);
  again.max_new_tokens = 2;
  again.id = 7;
  EXPECT_EQ(scheduler.submit(std::move(again)), 7);
  scheduler.run();
  EXPECT_EQ(scheduler.take_results().size(), 1u);
}

TEST(BatchScheduler, StreamingCallbacksMatchTheResultExactly) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 10));

  std::vector<StreamEvent> events;
  Request streamed;
  streamed.src_ids = random_src_ids(1, 4, 20, 351);
  streamed.max_new_tokens = 5;
  streamed.on_token = [&](const StreamEvent& e) { events.push_back(e); };
  const index_t id = scheduler.submit(std::move(streamed));
  scheduler.run();

  auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 1u);
  const RequestResult& r = results[0];
  ASSERT_EQ(events.size(), r.tokens.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, id);
    EXPECT_EQ(events[i].token, r.tokens[i]) << "stream diverged at " << i;
    EXPECT_EQ(events[i].index, static_cast<index_t>(i));
    if (i > 0) {
      EXPECT_GT(events[i].tick, events[i - 1].tick);
    }
  }
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().tick, r.first_token_tick)
      << "TTFT must be the first streamed tick";
  EXPECT_GT(r.first_token_tick, r.submit_tick);
}

TEST(BatchScheduler, ThrowingCallbackRetiresOnlyItsRowAsError) {
  // A stream callback that throws fails its own request and nothing
  // else: the row retires kError exactly once, keeping the tokens decoded
  // so far (the throwing token included) and the exception's message,
  // while the rows around it decode on, bit-identical to solo.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 10;
  BatchScheduler scheduler(model, scheduler_config(3, max_steps));

  std::vector<std::vector<index_t>> refs;
  std::map<index_t, std::size_t> index_of;
  index_t thrower = -1;
  for (std::uint64_t seed = 361; refs.size() < 3; ++seed) {
    const Tensor src = random_src_ids(1, 5, 20, seed);
    auto ref =
        model.greedy_decode_reference(src, {}, kBos, kEos, max_steps)[0];
    if (ref.size() < 3) continue;  // the thrower needs its second token
    Request req;
    req.src_ids = src;
    req.max_new_tokens = max_steps;
    if (refs.size() == 1) {
      req.on_token = [](const StreamEvent& e) {
        if (e.index == 1) throw std::runtime_error("callback failed");
      };
    }
    const index_t id = scheduler.submit(std::move(req));
    if (refs.size() == 1) thrower = id;
    index_of[id] = refs.size();
    refs.push_back(std::move(ref));
  }
  scheduler.run();

  auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 3u);
  std::map<index_t, index_t> seen;
  for (const RequestResult& r : results) {
    ++seen[r.id];
    const auto& ref = refs[index_of.at(r.id)];
    if (r.id == thrower) {
      EXPECT_EQ(r.reason, FinishReason::kError);
      EXPECT_EQ(r.error, "callback failed");
      EXPECT_EQ(r.tokens, std::vector<index_t>(ref.begin(), ref.begin() + 2))
          << "the decoded prefix survives, the throwing token included";
    } else {
      EXPECT_TRUE(r.reason == FinishReason::kEos ||
                  r.reason == FinishReason::kLength);
      EXPECT_EQ(r.tokens, ref) << "neighbour " << r.id << " diverged";
    }
  }
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "id " << id;
  EXPECT_EQ(scheduler.stats()
                .per_class[static_cast<std::size_t>(Priority::kNormal)]
                .errored,
            1);
  EXPECT_TRUE(scheduler.idle());
}

TEST(BatchScheduler, EosIsNeverStreamedAndEmptyResultHasNoTtft) {
  // A request whose very first greedy pick is eos produces zero stream
  // events and first_token_tick == -1 (no token ever existed).
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const Tensor probe_src = random_src_ids(1, 5, 20, 352);
  const auto probe =
      model.greedy_decode_reference(probe_src, {}, kBos, kEos, 12);
  ASSERT_FALSE(probe[0].empty());
  BatchSchedulerConfig config = scheduler_config(1, 12);
  config.eos = probe[0][0];
  BatchScheduler scheduler(model, config);

  index_t calls = 0;
  Request req;
  req.src_ids = probe_src;
  req.on_token = [&](const StreamEvent&) { ++calls; };
  scheduler.submit(std::move(req));
  scheduler.run();
  auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].reason, FinishReason::kEos);
  EXPECT_TRUE(results[0].tokens.empty());
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(results[0].first_token_tick, -1);

  const SchedulerStats stats = scheduler.stats();
  const auto& normal =
      stats.per_class[static_cast<std::size_t>(Priority::kNormal)];
  EXPECT_EQ(normal.ttft_samples, 0) << "no first token, no TTFT sample";
  EXPECT_EQ(normal.queue_wait_samples, 1) << "it WAS admitted";
}

TEST(BatchScheduler, StatsSnapshotTracksClassesAndPercentiles) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  {
    BatchScheduler scheduler(model, scheduler_config(1, 8));
    // One row: the second request queues behind the first's 3 decode
    // ticks, so its queue wait is strictly positive.
    for (int i = 0; i < 2; ++i) {
      Request req;
      req.src_ids = random_src_ids(1, 4, 20, 361 + i);
      req.max_new_tokens = 3;
      scheduler.submit(std::move(req));
    }
    scheduler.run();
    scheduler.take_results();

    const SchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.ticks, scheduler.ticks());
    EXPECT_GT(stats.stepped_ticks, 0);
    EXPECT_EQ(stats.total_tokens, scheduler.total_tokens());
    EXPECT_DOUBLE_EQ(stats.mean_occupancy, scheduler.mean_occupancy());
    const auto& normal =
        stats.per_class[static_cast<std::size_t>(Priority::kNormal)];
    EXPECT_EQ(normal.submitted, 2);
    EXPECT_EQ(normal.completed, 2);
    EXPECT_EQ(normal.cancelled + normal.expired + normal.shed +
                  normal.errored,
              0);
    EXPECT_EQ(normal.queue_wait_samples, 2);
    EXPECT_EQ(normal.ttft_samples, 2);
    EXPECT_GE(normal.queue_wait_p99, 3.0)
        << "the queued request waited out the first's full budget";
    EXPECT_LE(normal.queue_wait_p50, normal.queue_wait_p99);
    EXPECT_GE(normal.ttft_p50, 1.0);
    EXPECT_LE(normal.ttft_p50, normal.ttft_p99);
    for (const Priority other : {Priority::kHigh, Priority::kLow}) {
      const auto& cls = stats.per_class[static_cast<std::size_t>(other)];
      EXPECT_EQ(cls.submitted, 0);
      EXPECT_EQ(cls.queue_wait_samples, 0);
    }
  }  // unbind before the next scheduler takes the model

  // stats_window == 0 keeps the counters but disables sampling.
  {
    BatchSchedulerConfig no_window = scheduler_config(1, 8);
    no_window.stats_window = 0;
    BatchScheduler bare(model, no_window);
    Request req;
    req.src_ids = random_src_ids(1, 4, 20, 363);
    req.max_new_tokens = 2;
    bare.submit(std::move(req));
    bare.run();
    const SchedulerStats bare_stats = bare.stats();
    const auto& bare_normal = bare_stats.per_class[static_cast<
        std::size_t>(Priority::kNormal)];
    EXPECT_EQ(bare_normal.completed, 1);
    EXPECT_EQ(bare_normal.queue_wait_samples, 0);
    EXPECT_EQ(bare_normal.ttft_samples, 0);
  }

  // The sample window is EXACTLY stats_window, not whatever
  // vector::reserve rounded the ring's capacity up to.
  BatchSchedulerConfig tight = scheduler_config(1, 8);
  tight.stats_window = 1;
  BatchScheduler windowed(model, tight);
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.src_ids = random_src_ids(1, 4, 20, 365 + i);
    req.max_new_tokens = 2;
    windowed.submit(std::move(req));
    windowed.run();
  }
  const SchedulerStats tight_stats = windowed.stats();
  const auto& tight_normal = tight_stats.per_class[static_cast<
      std::size_t>(Priority::kNormal)];
  EXPECT_EQ(tight_normal.completed, 3);
  EXPECT_EQ(tight_normal.queue_wait_samples, 1)
      << "the ring must hold stats_window samples, no more";
  EXPECT_EQ(tight_normal.ttft_samples, 1);
}

TEST(BatchScheduler, BindsTheDecoderExclusively) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8));
  // The scheduler's session holds the decoder: a second session (and
  // greedy_decode, which binds one internally) must be rejected while
  // the reference path keeps working.
  runtime::DecodeSessionConfig sc;
  sc.max_batch = 1;
  sc.max_steps = 4;
  EXPECT_THROW(runtime::DecodeSession(model, sc), std::runtime_error);
  const Tensor src = random_src_ids(1, 4, 20, 96);
  EXPECT_THROW(model.greedy_decode(src, {}, kBos, kEos, 4),
               std::runtime_error);
  EXPECT_NO_THROW(model.greedy_decode_reference(src, {}, kBos, kEos, 4));
}

}  // namespace
}  // namespace qdnn::serve
