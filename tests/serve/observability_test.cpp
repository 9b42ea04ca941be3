// Serving-stack observability contracts: per-request phase timelines
// (RequestResult::phases) populated when tracing is on and exactly zero
// when off, scheduler registry counters agreeing with the returned
// results, trace-ring timelines carrying the full request lifecycle, and
// the Server's per-shard instruments — shard_stats(), the shard<i>.*
// registry prefixes and the per-replica weight-checksum gauges.
#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "decode_test_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace qdnn::serve {
namespace {

using models::Transformer;
using qdnn::testing::random_src_ids;
using qdnn::testing::tiny_transformer_config;

constexpr index_t kBos = 1, kEos = 2;

struct TraceFlagGuard {
  bool saved = obs::trace_enabled();
  ~TraceFlagGuard() { obs::set_trace_enabled(saved); }
};

BatchSchedulerConfig scheduler_config(index_t max_batch,
                                      index_t max_steps) {
  BatchSchedulerConfig config;
  config.session.max_batch = max_batch;
  config.session.max_steps = max_steps;
  config.bos = kBos;
  config.eos = kEos;
  return config;
}

long long counter_value(const obs::MetricsSnapshot& snap,
                        const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "counter '" << name << "' not in snapshot";
  return -1;
}

double gauge_value(const obs::MetricsSnapshot& snap,
                   const std::string& name) {
  for (const auto& g : snap.gauges)
    if (g.name == name) return g.value;
  ADD_FAILURE() << "gauge '" << name << "' not in snapshot";
  return -1.0;
}

std::vector<RequestResult> run_all(BatchScheduler& scheduler,
                                   index_t count, index_t budget,
                                   std::uint64_t seed) {
  for (index_t i = 0; i < count; ++i) {
    Request req;
    req.src_ids = random_src_ids(1, 4 + i % 3, 20, seed + i);
    req.max_new_tokens = budget;
    scheduler.submit(std::move(req));
  }
  scheduler.run();
  return scheduler.take_results();
}

TEST(Observability, PhasesPopulatedWhenTracingEnabled) {
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8));
  const auto results = run_all(scheduler, 5, 4, 300);
  ASSERT_EQ(results.size(), 5u);
  for (const RequestResult& r : results) {
    ASSERT_TRUE(r.reason == FinishReason::kEos ||
                r.reason == FinishReason::kLength)
        << "unexpected reason for id " << r.id;
    EXPECT_GT(r.phases.total_ns, 0) << r.id;
    EXPECT_GT(r.phases.prefill_ns, 0) << r.id;
    EXPECT_GT(r.phases.decode_ns, 0) << r.id;
    EXPECT_GE(r.phases.queue_ns, 0) << r.id;
    // First token lands between submission and retirement (a request
    // whose very first sample is eos legitimately has none).
    if (!r.tokens.empty()) {
      EXPECT_GT(r.phases.first_token_ns, 0) << r.id;
      EXPECT_LE(r.phases.first_token_ns, r.phases.total_ns) << r.id;
    }
    EXPECT_LE(r.phases.decode_ns, r.phases.total_ns) << r.id;
    EXPECT_LE(r.phases.queue_ns, r.phases.total_ns) << r.id;
  }
}

TEST(Observability, PhasesZeroWhenTracingDisabled) {
  TraceFlagGuard guard;
  obs::set_trace_enabled(false);
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8));
  const auto results = run_all(scheduler, 4, 3, 320);
  ASSERT_EQ(results.size(), 4u);
  for (const RequestResult& r : results) {
    EXPECT_EQ(r.phases.total_ns, 0) << r.id;
    EXPECT_EQ(r.phases.queue_ns, 0) << r.id;
    EXPECT_EQ(r.phases.prefill_ns, 0) << r.id;
    EXPECT_EQ(r.phases.first_token_ns, 0) << r.id;
    EXPECT_EQ(r.phases.decode_ns, 0) << r.id;
  }
  EXPECT_EQ(scheduler.trace().recorded(), 0);
}

TEST(Observability, TracingOnOffTokensAreBitIdentical) {
  // The bit-identity contract must hold with telemetry live: the traced
  // run's tokens match the untraced run's exactly.
  TraceFlagGuard guard;
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  auto tokens_of = [&](bool tracing) {
    obs::set_trace_enabled(tracing);
    BatchScheduler scheduler(model, scheduler_config(2, 8));
    std::map<index_t, std::vector<index_t>> out;
    for (const RequestResult& r : run_all(scheduler, 5, 5, 340))
      out[r.id] = r.tokens;
    return out;
  };
  EXPECT_EQ(tokens_of(false), tokens_of(true));
}

TEST(Observability, RegistryCountersMatchResults) {
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8));
  const auto results = run_all(scheduler, 6, 4, 360);
  index_t tokens = 0;
  for (const RequestResult& r : results)
    tokens += static_cast<index_t>(r.tokens.size());

  const obs::MetricsSnapshot snap = scheduler.metrics().snapshot();
  EXPECT_EQ(counter_value(snap, "scheduler.normal.submitted"), 6);
  EXPECT_EQ(counter_value(snap, "scheduler.normal.completed"), 6);
  EXPECT_EQ(counter_value(snap, "scheduler.tokens"), tokens);
  EXPECT_EQ(counter_value(snap, "scheduler.tokens"),
            scheduler.total_tokens());
  EXPECT_EQ(counter_value(snap, "scheduler.ticks"), scheduler.ticks());
  EXPECT_EQ(gauge_value(snap, "scheduler.live_rows"), 0.0);
  EXPECT_EQ(gauge_value(snap, "scheduler.queue_depth"), 0.0);
  // The latency histogram saw every completed request.
  bool latency_seen = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "scheduler.latency_ticks") {
      EXPECT_EQ(h.count, 6);
      latency_seen = true;
    }
  }
  EXPECT_TRUE(latency_seen);
  // SchedulerStats is now a view over the same registry.
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.total_tokens, tokens);
  const auto& normal =
      stats.per_class[static_cast<std::size_t>(Priority::kNormal)];
  EXPECT_EQ(normal.submitted, 6);
  EXPECT_EQ(normal.completed, 6);
}

TEST(Observability, TraceTimelineCarriesTheRequestLifecycle) {
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8));
  const auto results = run_all(scheduler, 3, 3, 380);
  ASSERT_EQ(results.size(), 3u);

  const auto records = scheduler.trace().snapshot();
  ASSERT_FALSE(records.empty());
  std::map<index_t, std::set<obs::TraceEvent>> per_id;
  for (const auto& rec : records) per_id[rec.id].insert(rec.event);
  for (const RequestResult& r : results) {
    const auto& events = per_id[r.id];
    EXPECT_TRUE(events.count(obs::TraceEvent::kSubmit)) << r.id;
    EXPECT_TRUE(events.count(obs::TraceEvent::kQueueAdmit)) << r.id;
    EXPECT_TRUE(events.count(obs::TraceEvent::kPrefillStart)) << r.id;
    EXPECT_TRUE(events.count(obs::TraceEvent::kPrefillEnd)) << r.id;
    EXPECT_TRUE(events.count(obs::TraceEvent::kCommit)) << r.id;
    if (!r.tokens.empty()) {
      EXPECT_TRUE(events.count(obs::TraceEvent::kFirstToken)) << r.id;
    }
    EXPECT_TRUE(events.count(obs::TraceEvent::kRetire)) << r.id;
  }
  // Timestamps are monotone in claim order.
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_LE(records[i - 1].t_ns, records[i].t_ns);
}

TEST(Observability, AsyncAdmissionTracesPrefillFromTheWorker) {
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchSchedulerConfig config = scheduler_config(2, 8);
  config.prefill_workers = 1;
  BatchScheduler scheduler(model, config);
  const auto results = run_all(scheduler, 4, 3, 400);
  ASSERT_EQ(results.size(), 4u);
  for (const RequestResult& r : results) {
    EXPECT_GT(r.phases.prefill_ns, 0) << r.id;
    EXPECT_GT(r.phases.total_ns, 0) << r.id;
  }
  std::map<index_t, int> prefill_starts;
  for (const auto& rec : scheduler.trace().snapshot())
    if (rec.event == obs::TraceEvent::kPrefillStart)
      ++prefill_starts[rec.id];
  EXPECT_EQ(prefill_starts.size(), 4u);
}

TEST(Observability, ShedAndCancelLandInClassCounters) {
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchSchedulerConfig config = scheduler_config(1, 8);
  config.max_queue = 1;
  BatchScheduler scheduler(model, config);

  std::vector<index_t> ids;
  index_t sheds = 0;
  for (index_t i = 0; i < 4; ++i) {
    Request req;
    req.src_ids = random_src_ids(1, 4, 20, 420 + i);
    req.max_new_tokens = 6;
    ids.push_back(scheduler.submit(std::move(req)));
  }
  for (RequestResult& r : scheduler.take_results())
    if (r.reason == FinishReason::kShed) ++sheds;
  ASSERT_GT(sheds, 0) << "queue bound did not shed";
  // Cancel one still-pending id.
  index_t cancelled = 0;
  for (index_t id : ids)
    if (scheduler.cancel(id)) ++cancelled;
  ASSERT_GT(cancelled, 0);
  scheduler.run();
  scheduler.take_results();

  const obs::MetricsSnapshot snap = scheduler.metrics().snapshot();
  EXPECT_EQ(counter_value(snap, "scheduler.normal.submitted"), 4);
  EXPECT_EQ(counter_value(snap, "scheduler.normal.shed"), sheds);
  EXPECT_EQ(counter_value(snap, "scheduler.normal.cancelled"), cancelled);
  // The trace carries the shed and cancel resolutions too.
  index_t shed_events = 0, cancel_events = 0;
  for (const auto& rec : scheduler.trace().snapshot()) {
    if (rec.event == obs::TraceEvent::kShed) ++shed_events;
    if (rec.event == obs::TraceEvent::kCancel) ++cancel_events;
  }
  EXPECT_EQ(shed_events, sheds);
  EXPECT_EQ(cancel_events, cancelled);
}

// -------------------------------------------------------------------
// Server-level observability.
// -------------------------------------------------------------------

TEST(Observability, ServerExportsPerShardInstrumentsAndChecksums) {
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  const index_t shards = 2;
  std::vector<std::unique_ptr<Transformer>> replicas;
  std::vector<Transformer*> raw;
  for (index_t i = 0; i < shards; ++i) {
    replicas.push_back(
        std::make_unique<Transformer>(tiny_transformer_config()));
    replicas.back()->set_training(false);
    raw.push_back(replicas.back().get());
  }
  ServerConfig config;
  config.shard.session.max_batch = 2;
  config.shard.session.max_steps = 8;
  config.shard.bos = kBos;
  config.shard.eos = kEos;
  Server server(raw, config);

  // Identically-seeded replicas hash identically; the gauges export it.
  EXPECT_EQ(server.weight_checksum(0), server.weight_checksum(1));
  EXPECT_GT(server.weight_checksum(0), 0.0);
  EXPECT_THROW(server.weight_checksum(-1), std::runtime_error);
  EXPECT_THROW(server.weight_checksum(2), std::runtime_error);

  index_t submitted = 0;
  for (index_t i = 0; i < 6; ++i) {
    Request req;
    req.src_ids = random_src_ids(1, 4, 20, 500 + i);
    req.max_new_tokens = 4;
    server.submit(std::move(req));
    ++submitted;
  }
  server.wait_idle();
  const auto results = server.take_results();
  ASSERT_EQ(static_cast<index_t>(results.size()), submitted);
  for (const RequestResult& r : results)
    EXPECT_GT(r.phases.total_ns, 0) << r.id;

  const obs::MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_DOUBLE_EQ(gauge_value(snap, "server.shard0.weight_checksum"),
                   server.weight_checksum(0));
  EXPECT_DOUBLE_EQ(gauge_value(snap, "server.shard1.weight_checksum"),
                   server.weight_checksum(1));
  // Both shards registered under their own prefixes; submit counters
  // across shards sum to the total.
  const long long sub0 =
      counter_value(snap, "shard0.normal.submitted");
  const long long sub1 =
      counter_value(snap, "shard1.normal.submitted");
  EXPECT_EQ(sub0 + sub1, submitted);

  // shard_stats agrees with the rolled-up stats().
  EXPECT_THROW(server.shard_stats(2), std::runtime_error);
  const ServerStats all = server.stats();
  index_t tokens = 0;
  for (index_t s = 0; s < shards; ++s)
    tokens += server.shard_stats(s).total_tokens;
  EXPECT_EQ(tokens, all.totals.total_tokens);
}

TEST(Observability, PerClassPhaseHistogramsObserveSampledRetirements) {
  // RequestResult::phases feed the per-class wall-clock histograms at
  // retirement: each retired (sampled) request lands one observation in
  // its class's queue/prefill/decode histograms, and an untouched class
  // stays empty.
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8));
  for (index_t i = 0; i < 5; ++i) {
    Request req;
    req.src_ids = random_src_ids(1, 4, 20, 900 + i);
    req.max_new_tokens = 4;
    req.priority = (i < 2) ? Priority::kHigh : Priority::kNormal;
    scheduler.submit(std::move(req));
  }
  scheduler.run();
  ASSERT_EQ(scheduler.take_results().size(), 5u);

  const obs::MetricsSnapshot snap = scheduler.metrics().snapshot();
  auto hist_count = [&](const std::string& name) -> long long {
    for (const auto& h : snap.histograms)
      if (h.name == name) return h.count;
    ADD_FAILURE() << "histogram '" << name << "' not in snapshot";
    return -1;
  };
  EXPECT_EQ(hist_count("scheduler.high.queue_us"), 2);
  EXPECT_EQ(hist_count("scheduler.high.prefill_us"), 2);
  EXPECT_EQ(hist_count("scheduler.high.decode_us"), 2);
  EXPECT_EQ(hist_count("scheduler.normal.queue_us"), 3);
  EXPECT_EQ(hist_count("scheduler.normal.prefill_us"), 3);
  EXPECT_EQ(hist_count("scheduler.normal.decode_us"), 3);
  // first_token_us only observes requests that emitted a token, so it
  // is bounded by the class count rather than pinned to it.
  EXPECT_LE(hist_count("scheduler.high.first_token_us"), 2);
  EXPECT_EQ(hist_count("scheduler.low.queue_us"), 0);
  EXPECT_EQ(hist_count("scheduler.low.decode_us"), 0);
}

TEST(Observability, TraceSamplingRecordsEveryNthRequest) {
  // QDNN_TRACE_SAMPLE=3 semantics: the sampling decision is made once
  // at submit (requests 0, 3, ... in submit order), sampled requests
  // get the full lifecycle (phases + timeline records), unsampled ones
  // stay at zero phases and never appear in the trace ring.
  TraceFlagGuard guard;
  obs::set_trace_enabled(true);
  obs::set_trace_sample(3);
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(2, 8));

  std::vector<index_t> ids_in_submit_order;
  std::map<index_t, RequestResult> results;
  for (index_t i = 0; i < 6; ++i) {
    Request req;
    req.src_ids = random_src_ids(1, 4, 20, 950 + i);
    req.max_new_tokens = 3;
    ids_in_submit_order.push_back(scheduler.submit(std::move(req)));
    // One at a time, so the submit order IS the sampling sequence.
    scheduler.run();
    for (RequestResult& r : scheduler.take_results())
      results[r.id] = std::move(r);
  }
  ASSERT_EQ(results.size(), 6u);

  std::set<index_t> sampled_ids;
  for (std::size_t i = 0; i < ids_in_submit_order.size(); ++i) {
    const RequestResult& r = results.at(ids_in_submit_order[i]);
    if (i % 3 == 0) {
      sampled_ids.insert(r.id);
      EXPECT_GT(r.phases.total_ns, 0) << "sampled request " << i;
      EXPECT_GT(r.phases.prefill_ns, 0) << "sampled request " << i;
    } else {
      EXPECT_EQ(r.phases.total_ns, 0) << "unsampled request " << i;
      EXPECT_EQ(r.phases.queue_ns, 0) << "unsampled request " << i;
      EXPECT_EQ(r.phases.prefill_ns, 0) << "unsampled request " << i;
      EXPECT_EQ(r.phases.first_token_ns, 0) << "unsampled request " << i;
      EXPECT_EQ(r.phases.decode_ns, 0) << "unsampled request " << i;
    }
  }
  // The trace ring carries ONLY the sampled requests' lifecycles.
  for (const auto& rec : scheduler.trace().snapshot())
    EXPECT_TRUE(sampled_ids.count(rec.id))
        << "unsampled id " << rec.id << " leaked into the trace ring";
  obs::set_trace_sample(1);
}

}  // namespace
}  // namespace qdnn::serve
