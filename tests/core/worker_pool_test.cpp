// core::WorkerPool: every part index runs exactly once, a job in flight
// turns a second try_run away without deadlock, a part's exception
// reaches the caller once after every part has run, the worker count
// only grows, and a warm try_run performs no heap allocation.  No case
// has a timing threshold: where one part must outlast another, it waits
// on a condition variable for it.
#include "core/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "alloc_counter.h"

namespace qdnn::core {
namespace {

TEST(WorkerPool, EveryPartRunsExactlyOnce) {
  WorkerPool pool(3);
  for (const int parts : {1, 3, 4, 12}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<std::atomic<int>> runs(static_cast<std::size_t>(parts));
      auto part = [&](int i) {
        runs[static_cast<std::size_t>(i)].fetch_add(1);
      };
      ASSERT_TRUE(pool.try_run(parts, part));
      for (int i = 0; i < parts; ++i)
        ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
            << "part " << i << " of " << parts << ", round " << round;
    }
  }
}

TEST(WorkerPool, NoWorkersRunsEveryPartOnTheCaller) {
  WorkerPool pool;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> runs(5, 0);
  auto part = [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs[static_cast<std::size_t>(i)];
  };
  ASSERT_TRUE(pool.try_run(5, part));
  EXPECT_EQ(runs, std::vector<int>(5, 1));
}

TEST(WorkerPool, TryRunFromInsideAPartDeclines) {
  WorkerPool pool(3);
  std::atomic<int> outer{0}, inner{0}, declined{0};
  auto inner_part = [&](int) { inner.fetch_add(1); };
  auto part = [&](int) {
    outer.fetch_add(1);
    if (!pool.try_run(2, inner_part)) declined.fetch_add(1);
  };
  ASSERT_TRUE(pool.try_run(4, part));
  EXPECT_EQ(outer.load(), 4);
  EXPECT_EQ(declined.load(), 4);
  EXPECT_EQ(inner.load(), 0) << "a declined try_run must run nothing";
  // The pool is free again afterwards.
  EXPECT_TRUE(pool.try_run(2, inner_part));
  EXPECT_EQ(inner.load(), 2);
}

TEST(WorkerPool, TryRunFromAnotherThreadDeclinesWhileAJobIsInFlight) {
  WorkerPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false, attempted = false;  // guarded by mu
  bool other_ran = false;
  std::thread other;
  auto part = [&](int) {
    {
      std::lock_guard<std::mutex> lk(mu);
      started = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return attempted; });
  };
  other = std::thread([&] {
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return started; });
    }
    auto other_part = [&](int) { other_ran = true; };
    const bool ran = pool.try_run(1, other_part);
    EXPECT_FALSE(ran);
    {
      std::lock_guard<std::mutex> lk(mu);
      attempted = true;
    }
    cv.notify_all();
  });
  EXPECT_TRUE(pool.try_run(1, part));
  other.join();
  EXPECT_FALSE(other_ran);
}

// Hand-off flags for two parts on a one-worker pool, so a test can make
// one part wait for the other whichever thread claims which.
struct TwoThreadJob {
  std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable cv;
  bool worker_part_started = false;  // guarded by mu
  bool worker_part_done = false;     // guarded by mu
  bool caller_part_threw = false;    // guarded by mu
  std::atomic<int> parts_done{0};

  bool on_caller() const { return std::this_thread::get_id() == caller; }
  void signal(bool& flag) {
    {
      std::lock_guard<std::mutex> lk(mu);
      flag = true;
    }
    cv.notify_all();
  }
  void wait_for(const bool& flag) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return flag; });
  }
};

TEST(WorkerPool, WorkerExceptionReachesTheCallerOnceAfterEveryPart) {
  // A part on the caller waits for a worker's part, which throws; the
  // worker may also run both parts.
  WorkerPool pool(1);
  TwoThreadJob job;
  auto part = [&](int) {
    if (job.on_caller()) {
      job.wait_for(job.worker_part_done);
      job.parts_done.fetch_add(1);
      return;
    }
    job.parts_done.fetch_add(1);
    job.signal(job.worker_part_done);
    throw std::runtime_error("worker part failed");
  };
  int caught = 0;
  try {
    pool.try_run(2, part);
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "worker part failed");
    EXPECT_EQ(job.parts_done.load(), 2) << "rethrown before every part ran";
  }
  EXPECT_EQ(caught, 1);
  // Nothing stale: the next job completes without rethrowing.
  auto ok = [](int) {};
  EXPECT_NO_THROW(EXPECT_TRUE(pool.try_run(3, ok)));
}

TEST(WorkerPool, CallerExceptionWaitsForTheWorkersParts) {
  // The caller's part throws only once the worker's part has started,
  // and the worker's part waits for that throw, so each thread runs
  // exactly one of the two parts.
  WorkerPool pool(1);
  TwoThreadJob job;
  std::atomic<bool> worker_part_finished{false};
  auto part = [&](int) {
    if (job.on_caller()) {
      job.wait_for(job.worker_part_started);
      job.signal(job.caller_part_threw);
      throw std::runtime_error("caller part failed");
    }
    // Still running when the caller's part throws: the pool must not
    // return (and drop the caller's frame) until this part is done.
    job.signal(job.worker_part_started);
    job.wait_for(job.caller_part_threw);
    for (int i = 0; i < 1000; ++i) std::this_thread::yield();
    worker_part_finished.store(true);
  };
  int caught = 0;
  try {
    pool.try_run(2, part);
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "caller part failed");
    EXPECT_TRUE(worker_part_finished.load())
        << "rethrown while a worker's part was still running";
  }
  EXPECT_EQ(caught, 1);
}

TEST(WorkerPool, OnlyTheFirstOfSeveralExceptionsReachesTheCaller) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  auto part = [&](int) {
    ran.fetch_add(1);
    throw std::runtime_error("every part fails");
  };
  int caught = 0;
  try {
    pool.try_run(6, part);
  } catch (const std::runtime_error&) {
    ++caught;
    EXPECT_EQ(ran.load(), 6);
  }
  EXPECT_EQ(caught, 1);
}

TEST(WorkerPool, EnsureWorkersNeverShrinks) {
  WorkerPool pool(2);
  EXPECT_EQ(pool.workers(), 2);
  pool.ensure_workers(1);
  EXPECT_EQ(pool.workers(), 2);
  pool.ensure_workers(4);
  EXPECT_EQ(pool.workers(), 4);
  pool.ensure_workers(0);
  EXPECT_EQ(pool.workers(), 4);
  std::atomic<int> ran{0};
  auto part = [&](int) { ran.fetch_add(1); };
  EXPECT_TRUE(pool.try_run(8, part));
  EXPECT_EQ(ran.load(), 8);
}

TEST(WorkerPool, WarmTryRunMakesNoHeapAllocations) {
  WorkerPool pool(3);
  std::vector<long long> sums(12, 0);
  auto part = [&](int i) {
    for (int k = 0; k <= i; ++k) sums[static_cast<std::size_t>(i)] += k;
  };
  ASSERT_TRUE(pool.try_run(12, part));  // warm-up
  const long long before = g_live_allocs.load();
  for (int round = 0; round < 100; ++round)
    ASSERT_TRUE(pool.try_run(round % 12 + 1, part));
  const long long after = g_live_allocs.load();
  EXPECT_EQ(after - before, 0)
      << "try_run made " << after - before << " heap allocations";
}

}  // namespace
}  // namespace qdnn::core
