// Observability subsystem unit tests: registry get-or-create semantics,
// exporter formats, histogram bucketing, exact totals under concurrent
// hammering (the wait-free recording contract, TSan-audited in CI), the
// trace ring's seqlock snapshot under wrap and concurrency, one distinct
// name per trace event, and the disabled-path overhead bound.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace qdnn::obs {
namespace {

struct TraceFlagGuard {
  bool saved = trace_enabled();
  ~TraceFlagGuard() { set_trace_enabled(saved); }
};

TEST(MetricsRegistry, GetOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("serve.tokens");
  Counter& c2 = reg.counter("serve.tokens");
  EXPECT_EQ(&c1, &c2);
  c1.inc();
  c2.add(4);
  EXPECT_EQ(c1.value(), 5);

  Gauge& g = reg.gauge("serve.live_rows");
  g.set(3.5);
  EXPECT_EQ(&g, &reg.gauge("serve.live_rows"));
  EXPECT_DOUBLE_EQ(reg.gauge("serve.live_rows").value(), 3.5);

  Histogram& h = reg.histogram("serve.wait", {1, 2, 4});
  EXPECT_EQ(&h, &reg.histogram("serve.wait", {1, 2, 4}));
}

TEST(MetricsRegistry, RejectsKindCollisionsAndBadNames) {
  MetricsRegistry reg;
  reg.counter("a.b");
  EXPECT_THROW(reg.gauge("a.b"), std::runtime_error);
  EXPECT_THROW(reg.histogram("a.b", {1}), std::runtime_error);
  reg.histogram("a.h", {1, 2});
  EXPECT_THROW(reg.histogram("a.h", {1, 3}), std::runtime_error);
  EXPECT_THROW(reg.histogram("a.empty", {}), std::runtime_error);
  EXPECT_THROW(reg.counter(""), std::runtime_error);
  EXPECT_THROW(reg.counter(".x"), std::runtime_error);
  EXPECT_THROW(reg.counter("x."), std::runtime_error);
  EXPECT_THROW(reg.counter("x..y"), std::runtime_error);
  EXPECT_THROW(reg.counter("1x"), std::runtime_error);
  EXPECT_THROW(reg.counter("x-y"), std::runtime_error);
  EXPECT_NO_THROW(reg.counter("_ok.x_1"));
}

TEST(Histogram, BucketsFollowInclusiveUpperBounds) {
  Histogram h({1, 2, 4});
  EXPECT_THROW(Histogram({2, 2}), std::runtime_error);
  EXPECT_THROW(Histogram({3, 1}), std::runtime_error);
  for (long long v : {0, 1, 2, 3, 4, 5, 100}) h.observe(v);
  EXPECT_EQ(h.bucket_count(0), 2);  // 0, 1
  EXPECT_EQ(h.bucket_count(1), 1);  // 2
  EXPECT_EQ(h.bucket_count(2), 2);  // 3, 4
  EXPECT_EQ(h.bucket_count(3), 2);  // 5, 100 → +Inf
  EXPECT_EQ(h.count(), 7);
  EXPECT_EQ(h.sum(), 0 + 1 + 2 + 3 + 4 + 5 + 100);
}

TEST(MetricsRegistry, SnapshotAndExporters) {
  MetricsRegistry reg;
  reg.counter("s.tokens").add(42);
  reg.gauge("s.depth").set(2.0);
  Histogram& h = reg.histogram("s.wait", {1, 4});
  h.observe(1);
  h.observe(3);
  h.observe(9);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "s.tokens");
  EXPECT_EQ(snap.counters[0].value, 42);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 2.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].buckets,
            (std::vector<long long>{1, 1, 1}));
  EXPECT_EQ(snap.histograms[0].sum, 13);
  EXPECT_EQ(snap.histograms[0].count, 3);

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("# TYPE s_tokens counter"), std::string::npos);
  EXPECT_NE(prom.find("s_tokens 42"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE s_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE s_wait histogram"), std::string::npos);
  // Cumulative buckets: le="1" → 1, le="4" → 2, +Inf → 3.
  EXPECT_NE(prom.find("s_wait_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("s_wait_bucket{le=\"4\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("s_wait_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("s_wait_sum 13"), std::string::npos);
  EXPECT_NE(prom.find("s_wait_count 3"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"s.tokens\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 13"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentRecordingIsExact) {
  // 4 threads × 50k increments each, with concurrent snapshots — totals
  // must be exact once the writers join (no lost updates).
  MetricsRegistry reg;
  Counter& c = reg.counter("hammer.count");
  Histogram& h = reg.histogram("hammer.hist", {10, 100, 1000});
  constexpr int kThreads = 4;
  constexpr long long kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (long long i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe((i + t) % 2000);
      }
    });
  }
  // Concurrent read-side: snapshots must be safe (values torn in time but
  // never corrupt) while writers run.
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = reg.snapshot();
    for (const auto& cv : snap.counters) EXPECT_GE(cv.value, 0);
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  long long buckets = 0;
  for (std::size_t i = 0; i < 4; ++i) buckets += h.bucket_count(i);
  EXPECT_EQ(buckets, kThreads * kPerThread);
}

// -------------------------------------------------------------------
// TraceRing.
// -------------------------------------------------------------------

TEST(TraceRing, RecordsInOrderAndNamesEvents) {
  TraceFlagGuard guard;
  set_trace_enabled(true);
  TraceRing ring(16);
  EXPECT_THROW(TraceRing(0), std::runtime_error);
  EXPECT_THROW(TraceRing(-3), std::runtime_error);
  ring.record(7, TraceEvent::kSubmit, 1);
  ring.record(7, TraceEvent::kCommit, 2);
  ring.record(7, TraceEvent::kRetire);
  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].event, TraceEvent::kSubmit);
  EXPECT_EQ(records[0].arg, 1);
  EXPECT_EQ(records[1].event, TraceEvent::kCommit);
  EXPECT_EQ(records[2].event, TraceEvent::kRetire);
  EXPECT_LE(records[0].t_ns, records[1].t_ns);
  EXPECT_LE(records[1].t_ns, records[2].t_ns);
  for (const TraceRecord& r : records) EXPECT_EQ(r.id, 7);
  EXPECT_STREQ(trace_event_name(TraceEvent::kSubmit), "submit");
  EXPECT_STREQ(trace_event_name(TraceEvent::kFirstToken), "first_token");
  EXPECT_STREQ(trace_event_name(TraceEvent::kShed), "shed");
}

TEST(TraceEvent, EveryValueHasItsOwnName) {
  // The names label every exported timeline, so two events sharing a
  // name, or one falling through to "unknown", would mislabel records.
  // kPreempt is the last enumerator; the values are dense from 0.
  constexpr int kEvents = static_cast<int>(TraceEvent::kPreempt) + 1;
  std::set<std::string> names;
  for (int i = 0; i < kEvents; ++i) {
    const std::string name = trace_event_name(static_cast<TraceEvent>(i));
    EXPECT_NE(name, "unknown") << "event " << i;
    EXPECT_FALSE(name.empty()) << "event " << i;
    EXPECT_TRUE(names.insert(name).second)
        << "event " << i << " reuses the name \"" << name << "\"";
  }
  EXPECT_EQ(static_cast<int>(names.size()), kEvents);
}

TEST(TraceRing, DisabledRecordIsANoOp) {
  TraceFlagGuard guard;
  set_trace_enabled(false);
  TraceRing ring(8);
  for (int i = 0; i < 100; ++i) ring.record(i, TraceEvent::kStep);
  EXPECT_EQ(ring.recorded(), 0);
  EXPECT_TRUE(ring.snapshot().empty());
  // record_always bypasses the gate (for hoisted-check call sites).
  ring.record_always(1, TraceEvent::kStep);
  EXPECT_EQ(ring.recorded(), 1);
}

TEST(TraceRing, WrapKeepsTheNewestRecords) {
  TraceFlagGuard guard;
  set_trace_enabled(true);
  TraceRing ring(8);
  for (index_t i = 0; i < 20; ++i)
    ring.record(i, TraceEvent::kStep, i);
  EXPECT_EQ(ring.recorded(), 20);
  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(), 8u);
  // Oldest-first: exactly the last capacity() records survive the wrap.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, static_cast<long long>(12 + i));
    EXPECT_EQ(records[i].id, static_cast<index_t>(12 + i));
  }
}

TEST(TraceRing, ConcurrentRecordingLosesNothingBeforeWrap) {
  TraceFlagGuard guard;
  set_trace_enabled(true);
  constexpr int kThreads = 4;
  constexpr index_t kPerThread = 500;
  TraceRing ring(kThreads * kPerThread);  // no wrap: all records live
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (index_t i = 0; i < kPerThread; ++i)
        ring.record(t * kPerThread + i, TraceEvent::kStep, t);
    });
  }
  // Concurrent snapshots: torn slots are skipped, never corrupt.
  for (int i = 0; i < 20; ++i) {
    for (const TraceRecord& r : ring.snapshot()) {
      EXPECT_GE(r.arg, 0);
      EXPECT_LT(r.arg, kThreads);
    }
  }
  for (std::thread& t : threads) t.join();
  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::set<index_t> ids;
  for (const TraceRecord& r : records) ids.insert(r.id);
  EXPECT_EQ(ids.size(), records.size()) << "duplicate or lost ids";
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_LT(records[i - 1].seq, records[i].seq);
}

TEST(TraceRing, DisabledPathOverheadIsNegligible) {
  // The gate is one relaxed load + branch.  Measure a hot loop of
  // disabled record() calls against the same loop doing trivial work;
  // the bound is deliberately generous (CI runners are noisy) — this
  // catches a disabled path that started taking locks or timestamps,
  // not nanosecond drift.
  TraceFlagGuard guard;
  set_trace_enabled(false);
  TraceRing ring(64);
  constexpr int kIters = 2000000;
  volatile long long sink = 0;

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) sink = sink + 1;
  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    ring.record(i, TraceEvent::kStep);
    sink = sink + 1;
  }
  const auto t2 = std::chrono::steady_clock::now();

  const double base = std::chrono::duration<double>(t1 - t0).count();
  const double gated = std::chrono::duration<double>(t2 - t1).count();
  EXPECT_EQ(ring.recorded(), 0);
  // Disabled record() must stay within ~20x of an empty loop iteration
  // (in practice ~1-2x; a lock or clock read in the gate blows far past).
  EXPECT_LT(gated, base * 20.0 + 0.05)
      << "disabled trace path too slow: " << gated << "s vs " << base
      << "s baseline";
}

}  // namespace
}  // namespace qdnn::obs
