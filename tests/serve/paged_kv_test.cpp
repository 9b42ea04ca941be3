// Paged-KV contracts for the serving layer (PR 10): prefix-cache
// semantics (hit skips prime_compute, bit-identity to a cold prime,
// LRU eviction under capacity, refcount safety, hash-collision safety)
// and page-budget oversubscription (preemption resolves every request
// exactly once with bit-identical tokens).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "decode_test_util.h"
#include "runtime/kv_pages.h"
#include "serve/scheduler.h"

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

// Runs one request through `scheduler` to completion and returns its
// tokens.
std::vector<index_t> run_one(BatchScheduler& scheduler, const Tensor& src,
                             index_t src_length, index_t budget) {
  Request req;
  req.src_ids = src;
  req.src_length = src_length;
  req.max_new_tokens = budget;
  const index_t id = scheduler.submit(std::move(req));
  std::vector<index_t> tokens;
  bool resolved = false;
  while (!resolved) {
    scheduler.step();
    for (RequestResult& r : scheduler.take_results()) {
      EXPECT_EQ(r.id, id) << "unexpected foreign result";
      tokens = std::move(r.tokens);
      resolved = true;
    }
    EXPECT_LT(scheduler.ticks(), 10000) << "scheduler stuck";
    if (scheduler.ticks() >= 10000) break;
  }
  return tokens;
}

TEST(PagedKv, PrefixHitSkipsPrimeAndMatchesColdPrimeBitExactly) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 10;
  BatchScheduler scheduler(model, scheduler_config(2, max_steps));

  const Tensor src = random_src_ids(1, 6, 20, 77);
  const index_t len = 5;
  const auto reference =
      model.greedy_decode_reference(src, {len}, kBos, kEos, max_steps)[0];

  const auto cold = run_one(scheduler, src, len, max_steps);
  EXPECT_EQ(cold, reference);
  const auto& cache = scheduler.session().prefix_cache();
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_GE(cache.misses(), 1);
  EXPECT_EQ(cache.insertions(), 1);

  // The cache's pin keeps the committed cross pages out of the free
  // list even though no row is live.
  // Only the valid prefix is encoded and paged.
  const index_t cross_pages = scheduler.session().cross_pages_for(len);
  EXPECT_EQ(scheduler.session().free_pages(),
            scheduler.session().total_pages() - cross_pages);
  EXPECT_EQ(scheduler.session().reclaimable_pages(), cross_pages);

  // Same source again: the admission path takes the cached pages —
  // a hit, no second insertion — and the tokens are bit-identical to
  // the cold prime.
  const auto warm = run_one(scheduler, src, len, max_steps);
  EXPECT_EQ(warm, cold);
  EXPECT_GE(cache.hits(), 1);
  EXPECT_EQ(cache.insertions(), 1) << "hit must not re-publish";

  const SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.prefix_hits, 1);
  EXPECT_EQ(stats.prefix_insertions, 1);

  // With the cache off the same source primes cold every time and
  // decodes the same tokens; nothing is looked up or pinned.  (A second,
  // identically built replica: a model binds one scheduler at a time.)
  Transformer replica(tiny_transformer_config());
  replica.set_training(false);
  BatchSchedulerConfig off = scheduler_config(2, max_steps);
  off.session.prefix_cache_entries = 0;
  BatchScheduler uncached(replica, off);
  EXPECT_EQ(run_one(uncached, src, len, max_steps), reference);
  EXPECT_EQ(run_one(uncached, src, len, max_steps), reference);
  const SchedulerStats off_stats = uncached.stats();
  EXPECT_EQ(off_stats.prefix_hits, 0);
  EXPECT_EQ(off_stats.prefix_insertions, 0);
  EXPECT_EQ(uncached.session().free_pages(),
            uncached.session().total_pages());
}

TEST(PagedKv, DistinctSourcesMissAndLruEvictsUnderCapacity) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 8;
  BatchSchedulerConfig config = scheduler_config(1, max_steps);
  config.session.prefix_cache_entries = 2;
  BatchScheduler scheduler(model, config);
  const auto& cache = scheduler.session().prefix_cache();

  for (index_t i = 0; i < 4; ++i) {
    const Tensor src = random_src_ids(1, 4 + (i % 3), 20, 500 + i);
    run_one(scheduler, src, 0, max_steps);
  }
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.insertions(), 4);
  EXPECT_GE(cache.evictions(), 2) << "capacity 2 must have evicted";
  EXPECT_LE(cache.live_entries(), 2);

  // The two survivors are the most recently used; the first source was
  // evicted, so resubmitting it misses (and re-inserts).
  const long long misses_before = cache.misses();
  const Tensor first = random_src_ids(1, 4, 20, 500);
  run_one(scheduler, first, 0, max_steps);
  EXPECT_GT(cache.misses(), misses_before);
  EXPECT_EQ(cache.insertions(), 5);
}

TEST(PagedKv, CachedPagesStayPinnedWhileALiveRowMapsThem) {
  // Direct pool/cache unit test: eviction drops only the CACHE's pin;
  // pages a live row still maps survive (and their bits survive) until
  // the row itself releases them.
  runtime::KvPagePool pool;
  pool.init(/*pages=*/4, /*page_floats=*/8);
  runtime::PrefixCache cache;
  cache.init(/*entries=*/1, /*max_tokens=*/8, /*max_pages=*/4);

  const index_t pages[2] = {pool.acquire(), pool.acquire()};
  ASSERT_GT(pages[0], 0);
  ASSERT_GT(pages[1], 0);
  for (int p = 0; p < 2; ++p)
    for (index_t f = 0; f < 8; ++f)
      pool.page_data(pages[p])[f] = static_cast<float>(100 * p + f);

  const index_t tokens[3] = {5, 6, 7};
  const std::uint64_t h = runtime::prefix_hash(tokens, 3);
  cache.publish(h, tokens, 3, pages, 2, pool);
  EXPECT_EQ(pool.refcount(pages[0]), 2);  // producer + cache

  // Producer row retires: only the cache pin remains.
  pool.release(pages[0]);
  pool.release(pages[1]);
  EXPECT_EQ(pool.refcount(pages[0]), 1);
  EXPECT_EQ(pool.free_pages(), 2);

  // A consumer row takes the prefix (pin under the cache lock)...
  std::vector<index_t> row_pages;
  ASSERT_TRUE(cache.lookup_acquire(h, tokens, 3, pool, row_pages));
  ASSERT_EQ(row_pages.size(), 2u);
  EXPECT_EQ(pool.refcount(pages[0]), 2);

  // ... then the cache entry is evicted: the full one-entry cache drops
  // it to publish another source.  The pages must NOT return to the free
  // list — the row still maps them — and their contents must be intact.
  const index_t other_tokens[1] = {9};
  const index_t other_page = pool.acquire();
  cache.publish(runtime::prefix_hash(other_tokens, 1), other_tokens, 1,
                &other_page, 1, pool);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(pool.refcount(pages[0]), 1);
  EXPECT_EQ(pool.free_pages(), 1);  // the other source took one
  for (int p = 0; p < 2; ++p)
    for (index_t f = 0; f < 8; ++f)
      EXPECT_EQ(pool.page_data(pages[p])[f],
                static_cast<float>(100 * p + f));

  // Only when the row releases do the pages become free again.
  for (index_t page : row_pages) pool.release(page);
  EXPECT_EQ(pool.free_pages(), 3);
}

TEST(PagedKv, ReclaimSkipsEntriesWhosePagesLiveRowsStillMap) {
  // Pool pressure drops only an entry whose drop frees a page: the LRU
  // entry here is mapped by a live row, so it is kept and the younger,
  // cache-only entry goes instead.
  runtime::KvPagePool pool;
  pool.init(/*pages=*/2, /*page_floats=*/4);
  runtime::PrefixCache cache;
  cache.init(/*entries=*/2, /*max_tokens=*/4, /*max_pages=*/1);

  const index_t tokens_a[2] = {1, 2};
  const index_t tokens_b[2] = {3, 4};
  const std::uint64_t ha = runtime::prefix_hash(tokens_a, 2);
  const std::uint64_t hb = runtime::prefix_hash(tokens_b, 2);
  const index_t page_a = pool.acquire();
  cache.publish(ha, tokens_a, 2, &page_a, 1, pool);  // LRU; row keeps it
  const index_t page_b = pool.acquire();
  cache.publish(hb, tokens_b, 2, &page_b, 1, pool);
  pool.release(page_b);  // B's producer retires: the cache is sole holder
  ASSERT_EQ(pool.free_pages(), 0);

  ASSERT_TRUE(cache.reclaim_one(pool));
  EXPECT_EQ(pool.free_pages(), 1);
  std::vector<index_t> out;
  EXPECT_TRUE(cache.lookup_acquire(ha, tokens_a, 2, pool, out));
  EXPECT_FALSE(cache.lookup_acquire(hb, tokens_b, 2, pool, out));

  // Only A is left and every reference to its page but the cache's is a
  // row's: nothing to reclaim.
  EXPECT_FALSE(cache.reclaim_one(pool));
  EXPECT_EQ(cache.live_entries(), 1);
}

TEST(PagedKv, HashCollisionNeverAliasesDifferentTokens) {
  runtime::KvPagePool pool;
  pool.init(/*pages=*/2, /*page_floats=*/4);
  runtime::PrefixCache cache;
  cache.init(/*entries=*/2, /*max_tokens=*/8, /*max_pages=*/2);

  const index_t tokens_a[3] = {1, 2, 3};
  const index_t page = pool.acquire();
  const std::uint64_t h = runtime::prefix_hash(tokens_a, 3);
  cache.publish(h, tokens_a, 3, &page, 1, pool);

  // Forced collision: the SAME 64-bit hash with different tokens must
  // miss — the full-token compare is the safety net.
  const index_t tokens_b[3] = {9, 9, 9};
  std::vector<index_t> out;
  EXPECT_FALSE(cache.lookup_acquire(h, tokens_b, 3, pool, out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(cache.misses(), 1);

  // Same hash + same tokens: hit.
  EXPECT_TRUE(cache.lookup_acquire(h, tokens_a, 3, pool, out));
  ASSERT_EQ(out.size(), 1u);
  pool.release(out[0]);

  // A shorter prefix of the same tokens is a different source (its
  // encoder output differs), so it must miss too, hash forced equal.
  out.clear();
  EXPECT_FALSE(cache.lookup_acquire(h, tokens_a, 2, pool, out));
}

TEST(PagedKv, OversubscriptionFuzzPreemptsAndStaysBitIdentical) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 12;

  struct Job {
    Tensor src;
    index_t len;
    index_t budget;
    Priority priority;
    std::vector<index_t> reference;
  };
  // 4 sources, each submitted twice (with its own budget), so the
  // cache-on runs hit on a tight pool: a hit commits 0 cross pages while
  // pinned prefixes compete with decoding rows for the 8 pages.
  std::vector<Job> jobs;
  Rng rng(4242);
  for (index_t i = 0; i < 8; ++i) {
    Job j;
    if (i < 4) {
      const index_t ts = 3 + rng.uniform_int(4);  // 3..6
      j.src = random_src_ids(1, ts, 20, 9000 + i);
      j.len = 1 + rng.uniform_int(ts);
    } else {
      const Job& first = jobs[static_cast<std::size_t>(i - 4)];
      j.src = first.src;
      j.len = first.len;
    }
    j.budget = max_steps - rng.uniform_int(3);  // deep rows: 10..12
    j.priority = static_cast<Priority>(i % kPriorityClasses);
    j.reference = model.greedy_decode_reference(j.src, {j.len}, kBos,
                                                kEos, j.budget)[0];
    jobs.push_back(std::move(j));
  }

  // The page gate and its held prefill are one path for every worker
  // count: run the fuzz inline (0) and on a threaded pool (2), with the
  // prefix cache on (its pins tighten the pool further) and off.
  // Inline preemptions per cache setting: each setting must preempt.
  std::map<index_t, index_t> sync_preemptions;
  for (const index_t cache_entries : {16, 0})
  for (const index_t workers : {0, 2})
  for (const std::uint64_t fuzz_seed : {11u, 22u, 33u}) {
    BatchSchedulerConfig config = scheduler_config(4, max_steps);
    config.session.max_src = 8;
    config.session.page_tokens = 4;
    // Worst-case row: ceil(12/4) self + ceil(8/4) cross = 5 pages.
    // 8 pages for a width-4 batch (dense bound 20) oversubscribes hard:
    // rows MUST deepen into a dry pool and trigger preemption.
    config.session.pool_pages = 8;
    config.session.prefix_cache_entries = cache_entries;
    config.prefill_workers = workers;
    BatchScheduler scheduler(model, config);
    SCOPED_TRACE(::testing::Message() << "cache entries " << cache_entries
                                      << ", workers " << workers
                                      << ", fuzz seed " << fuzz_seed);

    Rng order_rng(fuzz_seed);
    const std::vector<index_t> order =
        order_rng.permutation(static_cast<index_t>(jobs.size()));
    std::map<index_t, index_t> id_to_job;
    std::map<index_t, std::vector<index_t>> results;
    for (const index_t idx : order) {
      const Job& j = jobs[static_cast<std::size_t>(idx)];
      Request req;
      req.src_ids = j.src;
      req.src_length = j.len;
      req.max_new_tokens = j.budget;
      req.priority = j.priority;
      id_to_job[scheduler.submit(std::move(req))] = idx;
    }
    while (!scheduler.idle()) {
      if (scheduler.wait_for_prefill()) continue;
      scheduler.step();
      scheduler.check_invariants();
      for (RequestResult& r : scheduler.take_results()) {
        const bool inserted =
            results.emplace(r.id, std::move(r.tokens)).second;
        EXPECT_TRUE(inserted) << "id " << r.id << " resolved twice";
      }
      ASSERT_LT(scheduler.ticks(), 20000) << "scheduler stuck";
    }
    ASSERT_EQ(results.size(), jobs.size())
        << "every id must resolve exactly once";
    for (const auto& [id, tokens] : results) {
      const Job& j = jobs[static_cast<std::size_t>(id_to_job.at(id))];
      EXPECT_EQ(tokens, j.reference)
          << "preempted/replayed request diverged from solo decode";
    }
    const SchedulerStats stats = scheduler.stats();
    if (workers == 0) sync_preemptions[cache_entries] += stats.preemptions;
    // Inline admission publishes each prefix before the next lookup, so
    // a repeated source must hit; threaded workers may race both copies
    // past the lookup, so only the inline runs are held to it.
    if (cache_entries == 0) {
      EXPECT_EQ(stats.prefix_hits, 0);
    } else if (workers == 0) {
      EXPECT_GT(stats.prefix_hits, 0) << "shared sources never hit the cache";
    }
    EXPECT_EQ(stats.total_pages, 8);
    // Drained: every non-free page is held only by the prefix cache.
    EXPECT_EQ(scheduler.session().free_pages() +
                  scheduler.session().reclaimable_pages(),
              scheduler.session().total_pages());
  }
  for (const index_t cache_entries : {16, 0}) {
    EXPECT_GT(sync_preemptions[cache_entries], 0)
        << "pool of 8 pages under 8 deep requests never preempted with "
        << cache_entries << " cache entries — the oversubscription path "
           "went untested";
  }
}

}  // namespace
}  // namespace qdnn::serve
