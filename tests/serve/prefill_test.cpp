// Prefill/decode-split contracts: asynchronous admission (PrefillPool
// workers computing the encoder pass off the serving thread) must be
// bit-identical per request to the synchronous scheduler — and therefore
// to solo decodes — for fuzzed arrival traces; pool lifecycle (pending/
// ready/slots, worker-error propagation) behaves as documented.
#include "serve/prefill.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "decode_test_util.h"
#include "obs/trace.h"
#include "serve/scheduler.h"

namespace qdnn::serve {
namespace {

using models::Transformer;
using qdnn::testing::random_src_ids;
using qdnn::testing::tiny_transformer_config;

constexpr index_t kBos = 1, kEos = 2;

BatchSchedulerConfig scheduler_config(index_t max_batch, index_t max_steps,
                                      index_t prefill_workers) {
  BatchSchedulerConfig config;
  config.session.max_batch = max_batch;
  config.session.max_steps = max_steps;
  config.bos = kBos;
  config.eos = kEos;
  config.prefill_workers = prefill_workers;
  return config;
}

struct TestRequest {
  Tensor src;
  index_t src_length;
  index_t budget;
  SamplingConfig sampling = SamplingConfig::greedy();
  std::vector<index_t> reference;  // solo greedy tokens (greedy requests)
};

std::vector<TestRequest> make_requests(Transformer& model, index_t count,
                                       index_t max_steps,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestRequest> requests;
  for (index_t i = 0; i < count; ++i) {
    TestRequest r;
    const index_t ts = 3 + rng.uniform_int(4);     // 3..6
    const index_t len = 1 + rng.uniform_int(ts);   // 1..ts (ragged)
    r.src = random_src_ids(1, ts, 20, seed * 100 + i);
    r.src_length = len;
    r.budget = 2 + rng.uniform_int(max_steps - 2);
    r.reference = model.greedy_decode_reference(r.src, {len}, kBos, kEos,
                                                r.budget)[0];
    requests.push_back(std::move(r));
  }
  return requests;
}

// Drives one scheduler (sync or async) over an arrival trace; returns
// results keyed by request index.
std::map<index_t, RequestResult> drive(
    Transformer& model, const std::vector<TestRequest>& requests,
    const std::vector<index_t>& order,
    const std::vector<index_t>& arrival_ticks, index_t max_batch,
    index_t max_steps, index_t prefill_workers) {
  BatchScheduler scheduler(
      model, scheduler_config(max_batch, max_steps, prefill_workers));
  std::map<index_t, index_t> id_to_index;
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
    // Async: block for an in-flight prefill instead of free-running idle
    // ticks (which would collapse the arrival schedule).
    if (scheduler.wait_for_prefill()) continue;
    scheduler.step();
    for (RequestResult& result : scheduler.take_results())
      results[id_to_index.at(result.id)] = std::move(result);
  }
  return results;
}

TEST(PrefillPool, AsyncAdmissionBitIdenticalToSyncForFuzzedTraces) {
  // The headline split contract: for fuzzed submission orders, arrival
  // delays, batch widths and worker counts, every request's async-served
  // token sequence equals the synchronous scheduler's AND the solo
  // reference, token for token.  Only admission *timing* may differ.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 12;
  const auto requests = make_requests(model, 8, max_steps, 21);

  for (const std::uint64_t fuzz_seed : {11u, 22u, 33u}) {
    Rng rng(fuzz_seed);
    const index_t max_batch = 1 + rng.uniform_int(3);        // 1..3
    const index_t workers = 1 + rng.uniform_int(2);          // 1..2
    std::vector<index_t> order =
        rng.permutation(static_cast<index_t>(requests.size()));
    std::vector<index_t> arrivals;
    index_t tick = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      arrivals.push_back(tick);
      tick += rng.uniform_int(4);  // 0..3 ticks between arrivals
    }

    const auto sync = drive(model, requests, order, arrivals, max_batch,
                            max_steps, /*prefill_workers=*/0);
    const auto async = drive(model, requests, order, arrivals, max_batch,
                             max_steps, workers);
    ASSERT_EQ(sync.size(), requests.size()) << "fuzz seed " << fuzz_seed;
    ASSERT_EQ(async.size(), requests.size()) << "fuzz seed " << fuzz_seed;
    for (const auto& [idx, result] : async) {
      const TestRequest& r = requests[static_cast<std::size_t>(idx)];
      EXPECT_EQ(result.tokens, r.reference)
          << "request " << idx << " diverged from solo (fuzz seed "
          << fuzz_seed << ", workers " << workers << ")";
      EXPECT_EQ(result.tokens, sync.at(idx).tokens)
          << "request " << idx << " diverged from sync (fuzz seed "
          << fuzz_seed << ")";
      EXPECT_EQ(result.reason == FinishReason::kEos,
                sync.at(idx).reason == FinishReason::kEos)
          << "request " << idx;
    }
  }
}

TEST(PrefillPool, ConcurrentPrimeComputeBitIdenticalToSequential) {
  // The lock-free contract head on: N threads hammering prime_compute on
  // ONE session — each with a private warmed staging slot, claiming
  // ragged sources off a shared counter — must stage exactly the bytes a
  // sequential pass stages, and the committed rows must decode exactly
  // the solo reference streams.  Any shared mutable state in the encoder
  // path (the old per-module training caches) shows up here as a flaky
  // byte diff; under TSan (CI) it shows up as a reported race.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  runtime::DecodeSessionConfig sc;
  sc.max_batch = 2;
  sc.max_steps = 6;
  runtime::DecodeSession session(model, sc);

  constexpr index_t kThreads = 4;
  constexpr index_t kRequests = 12;
  struct Source {
    Tensor ids;
    index_t ts, len;
    std::vector<index_t> reference;
  };
  Rng rng(91);
  std::vector<Source> sources;
  for (index_t i = 0; i < kRequests; ++i) {
    Source s;
    s.ts = 3 + rng.uniform_int(4);     // 3..6
    s.len = 1 + rng.uniform_int(s.ts); // 1..ts (ragged)
    s.ids = random_src_ids(1, s.ts, 20, 400 + static_cast<std::uint64_t>(i));
    s.reference = model.greedy_decode_reference(s.ids, {s.len}, kBos, kEos,
                                                sc.max_steps)[0];
    // Untrained tiny model: no eos inside the budget, so generate() below
    // emits exactly max_steps tokens to compare against.
    EXPECT_EQ(s.reference.size(), static_cast<std::size_t>(sc.max_steps));
    sources.push_back(std::move(s));
  }

  // Only the first st.ts rows of each layer's staged slice are
  // meaningful — the valid prefix; the tail holds whatever an earlier
  // prefill through the slot left behind.
  const index_t layers = model.config().n_layers;
  const index_t proj = model.config().proj_dim;
  const index_t max_src = session.max_src();
  const auto valid_bytes = [&](const runtime::PrefillStaging& st) {
    std::vector<float> out;
    for (index_t l = 0; l < layers; ++l) {
      const index_t off = l * max_src * proj;
      const index_t n = st.ts * proj;
      out.insert(out.end(), st.k.data() + off, st.k.data() + off + n);
      out.insert(out.end(), st.v.data() + off, st.v.data() + off + n);
    }
    return out;
  };

  runtime::PrefillStaging seq;
  session.init_staging(seq);
  std::vector<std::vector<float>> baseline;
  for (const Source& s : sources) {
    session.prime_compute(s.ids, s.len, seq);
    EXPECT_EQ(seq.ts, s.len);
    baseline.push_back(valid_bytes(seq));
  }

  std::atomic<index_t> next{0};
  std::atomic<index_t> first_mismatch{-1};
  std::vector<std::thread> threads;
  for (index_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      runtime::PrefillStaging mine;
      session.init_staging(mine);
      for (;;) {
        const index_t i = next.fetch_add(1);
        if (i >= kRequests) break;
        const Source& s = sources[static_cast<std::size_t>(i)];
        session.prime_compute(s.ids, s.len, mine);
        if (valid_bytes(mine) != baseline[static_cast<std::size_t>(i)]) {
          index_t expected = -1;
          first_mismatch.compare_exchange_strong(expected, i);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(first_mismatch.load(), -1)
      << "concurrent prime_compute staged different bytes than sequential "
         "for request "
      << first_mismatch.load();

  // The staged results commit and decode bit-identically to the solo
  // references, two rows at a time.
  for (index_t i = 0; i + 1 < kRequests; i += 2) {
    for (index_t r = 0; r < 2; ++r) {
      const Source& s = sources[static_cast<std::size_t>(i + r)];
      session.prime_compute(s.ids, s.len, seq);
      session.commit_row(r, seq);
    }
    const auto streams = session.generate(kBos, kEos);
    for (index_t r = 0; r < 2; ++r)
      EXPECT_EQ(streams[static_cast<std::size_t>(r)],
                sources[static_cast<std::size_t>(i + r)].reference)
          << "committed row " << r << " of pair " << i
          << " diverged from its solo decode";
  }
}

TEST(PrefillStaging, ReuseRebuildsForANewSessionAtTheSameAddress) {
  // A staging slot outlives its session and is reused with a new session
  // built in the same storage — so its plans sit at the same addresses.
  // The new encoder's wider FFN needs wider boundary slots: the slot
  // must be rebuilt for it, not run on buffers sized for the old plan,
  // and then stage exactly what a fresh slot stages.
  const models::TransformerConfig narrow = tiny_transformer_config();
  models::TransformerConfig wide = narrow;
  wide.d_ff = 4 * narrow.d_ff;
  Transformer narrow_model(narrow), wide_model(wide);
  narrow_model.set_training(false);
  wide_model.set_training(false);
  runtime::DecodeSessionConfig sc;
  sc.max_batch = 1;
  sc.max_steps = 4;
  const Tensor ids = random_src_ids(1, 6, 20, 77);

  std::optional<runtime::DecodeSession> session;
  runtime::PrefillStaging reused;
  session.emplace(narrow_model, sc);
  session->init_staging(reused);
  session->prime_compute(ids, 0, reused);

  session.emplace(wide_model, sc);
  session->init_staging(reused);
  session->prime_compute(ids, 0, reused);
  runtime::PrefillStaging fresh;
  session->init_staging(fresh);
  session->prime_compute(ids, 0, fresh);

  ASSERT_EQ(reused.ts, fresh.ts);
  ASSERT_EQ(reused.k.numel(), fresh.k.numel());
  const index_t per_layer = session->max_src() * wide.proj_dim;
  for (index_t l = 0; l < wide.n_layers; ++l)
    for (index_t i = l * per_layer; i < l * per_layer + fresh.ts * wide.proj_dim;
         ++i) {
      ASSERT_EQ(reused.k.data()[i], fresh.k.data()[i]) << "K float " << i;
      ASSERT_EQ(reused.v.data()[i], fresh.v.data()[i]) << "V float " << i;
    }
}

TEST(PrefillPool, StochasticRequestsReproducibleAcrossAdmissionModes) {
  // Per-request seeded streams must make stochastic outputs independent
  // of admission mode too, not just admission order.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 10;
  auto requests = make_requests(model, 5, max_steps, 31);
  for (std::size_t i = 0; i < requests.size(); ++i)
    requests[i].sampling =
        i % 2 == 0 ? SamplingConfig::with_temperature(
                         1.3f, 500 + static_cast<std::uint64_t>(i))
                   : SamplingConfig::with_top_k(
                         3, 0.8f, 900 + static_cast<std::uint64_t>(i));

  const auto n = static_cast<index_t>(requests.size());
  std::vector<index_t> order(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  const std::vector<index_t> no_delay(static_cast<std::size_t>(n), 0);

  const auto sync =
      drive(model, requests, order, no_delay, 2, max_steps, 0);
  const auto async =
      drive(model, requests, order, no_delay, 2, max_steps, 2);
  ASSERT_EQ(sync.size(), requests.size());
  for (const auto& [idx, result] : sync)
    EXPECT_EQ(result.tokens, async.at(idx).tokens)
        << "request " << idx << ": admission mode changed the sample";
}

TEST(PrefillPool, ComputesOffThreadIntoSlotsAndReportsPending) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  runtime::DecodeSessionConfig sc;
  sc.max_batch = 2;
  sc.max_steps = 8;
  runtime::DecodeSession session(model, sc);
  PrefillPool pool(session, /*workers=*/1, /*slots=*/2);
  EXPECT_EQ(pool.workers(), 1);
  EXPECT_EQ(pool.slots(), 2);
  EXPECT_EQ(pool.pending(), 0);

  const Tensor src = random_src_ids(1, 4, 20, 71);
  const auto ref = model.greedy_decode_reference(src, {}, kBos, kEos, 6)[0];
  // Untrained tiny model: the reference never hits eos inside the budget.
  ASSERT_EQ(ref.size(), 6u);

  PrefillJob job;
  job.id = 0;
  job.request.src_ids = src;
  pool.submit(std::move(job));
  // pending() counts until the serving side takes the job.
  EXPECT_GE(pool.pending(), 1);
  PrefillPool::Finished fin;
  while (!pool.try_take(fin)) std::this_thread::yield();
  EXPECT_EQ(fin.job.id, 0);
  EXPECT_EQ(pool.pending(), 0);

  // The staged K/V commit into a row and decode exactly the solo stream.
  session.commit_row(0, pool.staging_mut(fin.slot));
  pool.release(fin.slot);
  std::vector<index_t> feed{kBos, kBos};
  std::vector<index_t> got;
  for (index_t s = 0; s < 6; ++s) {
    feed = session.step(feed);
    got.push_back(feed[0]);
    feed[1] = kBos;  // row 1 parked
  }
  EXPECT_EQ(got, ref);
}

TEST(PrefillPool, WorkerErrorsArriveWithTheJobIntact) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  runtime::DecodeSessionConfig sc;
  sc.max_batch = 1;
  sc.max_steps = 4;
  sc.max_src = 4;
  runtime::DecodeSession session(model, sc);
  PrefillPool pool(session, 1, 1);

  PrefillJob bad;
  bad.id = 7;
  bad.request.src_ids = random_src_ids(1, 6, 20, 73);  // > max_src
  pool.submit(std::move(bad));
  PrefillPool::Finished fin;
  while (!pool.try_take(fin)) std::this_thread::yield();
  // try_take never throws: the failure travels in `error` with the job
  // (and its id) preserved, so the caller can resolve the request.
  EXPECT_EQ(fin.job.id, 7);
  ASSERT_TRUE(fin.error != nullptr);
  try {
    std::rethrow_exception(fin.error);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("source length"),
              std::string::npos)
        << e.what();
  }
  pool.release(fin.slot);

  // The slot cycles back: the pool still serves after a failure.
  PrefillJob good;
  good.id = 8;
  good.request.src_ids = random_src_ids(1, 3, 20, 74);
  pool.submit(std::move(good));
  while (!pool.try_take(fin)) std::this_thread::yield();
  EXPECT_EQ(fin.job.id, 8);
  EXPECT_TRUE(fin.error == nullptr);
  pool.release(fin.slot);

  EXPECT_THROW(PrefillPool(session, -1, 1), std::runtime_error);
  EXPECT_THROW(PrefillPool(session, 1, 0), std::runtime_error);
}

TEST(BatchScheduler, FailedPrefillResolvesAsErrorResult) {
  // A worker-side prefill failure must still resolve its request id: the
  // scheduler emits a kError result (empty tokens, message set) and
  // keeps serving — no dropped ids, no hung run().  submit() validates
  // at the edge, so a failing job is injected straight into the
  // scheduler's pool to simulate an internal worker error alongside
  // normal traffic.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8, 1));

  auto* pool = const_cast<PrefillPool*>(scheduler.prefill_pool());
  PrefillJob bad;
  bad.id = 998;  // an id the scheduler never handed out
  bad.request.src_ids = random_src_ids(1, 20, 20, 75);  // > max_src
  pool->submit(std::move(bad));

  Request fine;
  fine.src_ids = random_src_ids(1, 4, 20, 76);
  fine.max_new_tokens = 2;
  const index_t good_id = scheduler.submit(std::move(fine));
  scheduler.run();

  auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 2u);
  bool saw_error = false, saw_good = false;
  for (const RequestResult& r : results) {
    if (r.id == 998) {
      saw_error = true;
      EXPECT_EQ(r.reason, FinishReason::kError);
      EXPECT_TRUE(r.tokens.empty());
      EXPECT_NE(r.error.find("source length"), std::string::npos)
          << r.error;
    }
    if (r.id == good_id) {
      saw_good = true;
      EXPECT_EQ(r.reason, FinishReason::kLength);
      EXPECT_EQ(r.tokens.size(), 2u);
      EXPECT_TRUE(r.error.empty());
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(saw_good);
}

TEST(BatchScheduler, AsyncSchedulerReportsPoolAndRetiresEverything) {
  // End-to-end async smoke with more requests than rows: queued()
  // tracks the pool, idle() only clears once every prefill drained, and
  // run() completes the whole trace.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8, 1));
  ASSERT_NE(scheduler.prefill_pool(), nullptr);
  EXPECT_EQ(scheduler.prefill_pool()->workers(), 1);

  std::vector<index_t> ids;
  for (index_t i = 0; i < 5; ++i) {
    Request req;
    req.src_ids = random_src_ids(1, 3 + i % 3, 20, 160 + i);
    req.max_new_tokens = 2 + i % 4;
    ids.push_back(scheduler.submit(std::move(req)));
  }
  EXPECT_FALSE(scheduler.idle());
  scheduler.run();
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.queued(), 0);
  auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 5u);
  for (const RequestResult& r : results) {
    EXPECT_GE(r.admit_tick, r.submit_tick);
    EXPECT_EQ(r.finish_tick - r.admit_tick, r.decode_steps);
  }
}

TEST(BatchScheduler, OutOfVocabSourceResolvesAsErrorAndLeaksNoRow) {
  // submit() validates shape/length/budget/sampling but not token
  // values, so a source id outside the encoder vocabulary only fails in
  // the prefill itself.  BOTH admission modes must resolve it as a
  // kError result — never a thrown-away id or, worse, a leaked batch
  // row (with max_batch == 1, a leaked row would wedge the scheduler
  // for good).
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  for (const index_t workers : {0, 1}) {
    BatchScheduler scheduler(model, scheduler_config(1, 8, workers));

    Request bad;
    bad.src_ids = Tensor{Shape{1, 4}};
    for (index_t j = 0; j < 4; ++j)
      bad.src_ids[j] = 100.0f;  // >= src_vocab (20)
    const index_t bad_id = scheduler.submit(std::move(bad));
    scheduler.run();
    auto failed = scheduler.take_results();
    ASSERT_EQ(failed.size(), 1u) << "workers " << workers;
    EXPECT_EQ(failed[0].id, bad_id);
    EXPECT_EQ(failed[0].reason, FinishReason::kError);
    EXPECT_TRUE(failed[0].tokens.empty());
    EXPECT_FALSE(failed[0].error.empty());

    // The single row survived: normal traffic still serves.
    Request good;
    good.src_ids = random_src_ids(1, 4, 20, 88);
    good.max_new_tokens = 2;
    const index_t good_id = scheduler.submit(std::move(good));
    scheduler.run();
    auto ok = scheduler.take_results();
    ASSERT_EQ(ok.size(), 1u) << "workers " << workers;
    EXPECT_EQ(ok[0].id, good_id);
    EXPECT_EQ(ok[0].tokens.size(), 2u);
  }
}

TEST(BatchScheduler, SyncModeIsAZeroWorkerPool) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8, 0));
  ASSERT_NE(scheduler.prefill_pool(), nullptr);
  EXPECT_EQ(scheduler.prefill_pool()->workers(), 0);
}

TEST(PrefillPool, ConcurrentPrefixLookupsFromWorkersAreBitIdentical) {
  // The prefix cache under concurrency (the TSan target): several pool
  // workers probe prefix_lookup_into for the SAME handful of sources
  // while the serving thread commits rows and PUBLISHES those sources —
  // lookup pins, publish pins and LRU eviction all interleave, with
  // tracing live so the workers' sampled trace records interleave too.
  // Every request must still decode bit-identically to its solo
  // reference, and repeated sources must actually hit the cache.
  const bool trace_was = obs::trace_enabled();
  obs::set_trace_enabled(true);
  const index_t max_steps = 8;
  Transformer model(tiny_transformer_config());
  model.set_training(false);

  struct Source {
    Tensor src;
    index_t len;
    std::vector<index_t> reference;
  };
  std::vector<Source> sources;
  for (index_t s = 0; s < 3; ++s) {
    Source src;
    src.src = random_src_ids(1, 4 + s, 20, 700 + s);
    src.len = 3 + s;
    src.reference = model.greedy_decode_reference(
        src.src, {src.len}, kBos, kEos, max_steps)[0];
    sources.push_back(std::move(src));
  }

  BatchSchedulerConfig config = scheduler_config(
      /*max_batch=*/3, max_steps, /*prefill_workers=*/3);
  // No page pressure, so no cached prefix is ever reclaimed: 3 rows (1
  // cross + 1 self page each) plus 3 cached sources need at most 9
  // pages.  With the dense default (6), a duplicate cold prefill (a
  // second copy of a source fed before the first copy committed) takes
  // an extra page, so a later acquisition could evict a cached source,
  // and its re-publish broke the insertion bound below depending on
  // thread timing.
  config.session.pool_pages = 12;
  BatchScheduler scheduler(model, config);
  std::map<index_t, index_t> id_to_source;
  for (index_t i = 0; i < 12; ++i) {
    const Source& s = sources[static_cast<std::size_t>(i % 3)];
    Request req;
    req.src_ids = s.src;
    req.src_length = s.len;
    req.max_new_tokens = max_steps;
    id_to_source[scheduler.submit(std::move(req))] = i % 3;
  }
  std::map<index_t, std::vector<index_t>> results;
  while (!scheduler.idle()) {
    if (scheduler.wait_for_prefill()) continue;
    scheduler.step();
    for (RequestResult& r : scheduler.take_results()) {
      EXPECT_TRUE(results.emplace(r.id, std::move(r.tokens)).second);
    }
    ASSERT_LT(scheduler.ticks(), 20000) << "scheduler stuck";
  }
  ASSERT_EQ(results.size(), 12u);
  for (const auto& [id, tokens] : results) {
    const Source& s =
        sources[static_cast<std::size_t>(id_to_source.at(id))];
    EXPECT_EQ(tokens, s.reference);
  }
  // 3 distinct sources over 12 requests: at least the resubmissions
  // AFTER each source's first publish must have hit.
  EXPECT_GE(scheduler.session().prefix_cache().hits(), 3);
  EXPECT_LE(scheduler.session().prefix_cache().insertions(), 3);
  obs::set_trace_enabled(trace_was);
}

}  // namespace
}  // namespace qdnn::serve
