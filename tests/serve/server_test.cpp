// serve::Server — the multi-shard, multi-threaded front end.
//
// The headline contracts: (1) shard-invariance — a request's tokens are
// bit-identical to its solo decode whichever shard JSQ routes it to,
// because every shard serves an identically-constructed replica; (2)
// exactly-once resolution — every submitted id lands in exactly one
// RequestResult, fuzzed with concurrent submitters, a canceller, and a
// drainer racing the shard workers' own retirement drains.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "decode_test_util.h"

namespace qdnn::serve {
namespace {

using models::Transformer;
using qdnn::testing::random_src_ids;
using qdnn::testing::tiny_transformer_config;

constexpr index_t kBos = 1, kEos = 2;

ServerConfig server_config(index_t max_batch, index_t max_steps) {
  ServerConfig config;
  config.shard.session.max_batch = max_batch;
  config.shard.session.max_steps = max_steps;
  config.shard.bos = kBos;
  config.shard.eos = kEos;
  return config;
}

// N identically-constructed replicas: same config (including the init
// seed), so every shard holds the same weights.
std::vector<std::unique_ptr<Transformer>> make_replicas(index_t n) {
  std::vector<std::unique_ptr<Transformer>> replicas;
  for (index_t i = 0; i < n; ++i) {
    auto m = std::make_unique<Transformer>(tiny_transformer_config());
    m->set_training(false);
    replicas.push_back(std::move(m));
  }
  return replicas;
}

std::vector<Transformer*> raw(
    const std::vector<std::unique_ptr<Transformer>>& replicas) {
  std::vector<Transformer*> out;
  for (const auto& m : replicas) out.push_back(m.get());
  return out;
}

struct Case {
  Tensor src;
  index_t budget = 0;
  std::vector<index_t> reference;
};

std::vector<Case> make_cases(Transformer& model, index_t count,
                             index_t max_steps, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Case> cases;
  for (index_t i = 0; i < count; ++i) {
    Case c;
    c.src = random_src_ids(1, 3 + rng.uniform_int(3), 20,
                           seed * 100 + static_cast<std::uint64_t>(i));
    c.budget = 2 + rng.uniform_int(max_steps - 2);
    c.reference = model.greedy_decode_reference(c.src, {}, kBos, kEos,
                                                c.budget)[0];
    cases.push_back(std::move(c));
  }
  return cases;
}

// Keeps the shards busy without sleeping: an on_token hook that parks
// the streaming shard worker — holding its shard lock, mid-tick — while
// the gate is closed.  A parked worker finishes its tick only once a
// front-end call is queued on a shard lock (Server::lock_waiters()), and
// each shard gets at most one such tick per front-end call, so no shard
// runs ahead of the thread driving the burst.  Announce every front-end
// call made while the gate is closed with front_call(); open() releases
// every worker for good.
class TickGate {
 public:
  explicit TickGate(const Server& server)
      : server_(server),
        passed_tick_(static_cast<std::size_t>(server.shards()), -1),
        passed_call_(static_cast<std::size_t>(server.shards()), 0) {}

  void front_call() { calls_.fetch_add(1); }

  void open() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
  }

  void hold(const StreamEvent& ev) {
    const auto shard = static_cast<std::size_t>(ev.id % server_.shards());
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        // Every row of a tick that was let through streams freely.
        if (open_ || ev.tick == passed_tick_[shard]) return;
        const index_t calls = calls_.load();
        if (server_.lock_waiters() > 0 && calls > passed_call_[shard]) {
          passed_tick_[shard] = ev.tick;
          passed_call_[shard] = calls;
          return;
        }
      }
      std::this_thread::yield();
    }
  }

 private:
  const Server& server_;
  std::atomic<index_t> calls_{0};
  std::mutex mu_;
  bool open_ = false;                // guarded by mu_
  std::vector<index_t> passed_tick_;  // guarded by mu_
  std::vector<index_t> passed_call_;  // guarded by mu_
};

TEST(Server, SingleShardMatchesSoloReferences) {
  auto replicas = make_replicas(1);
  const auto cases = make_cases(*replicas[0], 6, 10, 7);
  Server server(raw(replicas), server_config(2, 10));
  EXPECT_EQ(server.shards(), 1);

  std::map<index_t, std::size_t> id_to_case;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Request req;
    req.src_ids = cases[i].src;
    req.max_new_tokens = cases[i].budget;
    id_to_case[server.submit(std::move(req))] = i;
  }
  server.wait_idle();
  EXPECT_EQ(server.pending(), 0);

  auto results = server.take_results();
  ASSERT_EQ(results.size(), cases.size());
  for (const RequestResult& r : results)
    EXPECT_EQ(r.tokens, cases[id_to_case.at(r.id)].reference)
        << "id " << r.id;
}

TEST(Server, MultiShardStreamsAreBitIdenticalToSolo) {
  // 4 shards over 4 identically-seeded replicas: whatever shard JSQ
  // picks, every request's tokens match its solo reference — and the
  // globally unique ids actually spread over more than one shard (JSQ
  // breaks ties round-robin, so this holds however fast shards drain).
  auto replicas = make_replicas(4);
  const auto cases = make_cases(*replicas[0], 12, 10, 9);
  Server server(raw(replicas), server_config(2, 10));
  EXPECT_EQ(server.shards(), 4);

  std::map<index_t, std::size_t> id_to_case;
  std::set<index_t> shards_used;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Request req;
    req.src_ids = cases[i].src;
    req.max_new_tokens = cases[i].budget;
    const index_t id = server.submit(std::move(req));
    EXPECT_EQ(id_to_case.count(id), 0u) << "ids must be globally unique";
    id_to_case[id] = i;
    shards_used.insert(id % server.shards());
  }
  server.wait_idle();

  auto results = server.take_results();
  ASSERT_EQ(results.size(), cases.size());
  for (const RequestResult& r : results) {
    EXPECT_EQ(r.tokens, cases[id_to_case.at(r.id)].reference)
        << "id " << r.id << " (shard " << r.id % server.shards() << ")";
    EXPECT_TRUE(r.reason == FinishReason::kEos ||
                r.reason == FinishReason::kLength);
  }
  EXPECT_GT(shards_used.size(), 1u)
      << "join-shortest-queue left every request on one shard";

  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.per_shard.size(), 4u);
  index_t submitted = 0;
  for (const auto& cls : stats.totals.per_class) submitted += cls.submitted;
  EXPECT_EQ(submitted, static_cast<index_t>(cases.size()));
}

TEST(Server, OwnsIdAssignment) {
  auto replicas = make_replicas(1);
  Server server(raw(replicas), server_config(2, 8));
  Request req;
  req.src_ids = random_src_ids(1, 4, 20, 501);
  req.id = 5;  // the Server assigns globally unique ids itself
  EXPECT_THROW(server.submit(std::move(req)), std::runtime_error);
  // A rejected submit leaves nothing behind.
  EXPECT_EQ(server.pending(), 0);
  server.wait_idle();
  EXPECT_TRUE(server.take_results().empty());
}

TEST(Server, ConstructorValidatesTheReplicaSet) {
  auto replicas = make_replicas(2);
  const ServerConfig config = server_config(2, 8);

  EXPECT_THROW(Server({}, config), std::runtime_error) << "no replicas";
  {
    std::vector<Transformer*> nulled = raw(replicas);
    nulled[1] = nullptr;
    EXPECT_THROW(Server(nulled, config), std::runtime_error);
  }
  {
    std::vector<Transformer*> dup{replicas[0].get(), replicas[0].get()};
    EXPECT_THROW(Server(dup, config), std::runtime_error)
        << "one replica cannot back two shards (bind exclusivity)";
  }
  {
    ServerConfig mismatched = config;
    mismatched.shards = 3;  // != models.size()
    EXPECT_THROW(Server(raw(replicas), mismatched), std::runtime_error);
  }
  {
    // A replica built from a different init seed has different weights:
    // shard-invariant outputs would silently break, so it is rejected.
    models::TransformerConfig other = tiny_transformer_config();
    other.seed += 1;
    Transformer drifted(other);
    std::vector<Transformer*> mixed{replicas[0].get(), &drifted};
    EXPECT_THROW(Server(mixed, config), std::runtime_error);
  }
  {
    // Post-construction weight drift: identical configs (so the config
    // equality check passes) but one replica's weights were mutated
    // after construction — only the weight CHECKSUM can catch it, and
    // the constructor must reject at the edge rather than let shards
    // route identical requests to different replicas.
    auto drifting = make_replicas(2);
    nn::Parameter* p = drifting[1]->parameters().front();
    const float saved = p->value[0];
    p->value[0] = saved + 0.5f;
    EXPECT_THROW(Server(raw(drifting), config), std::runtime_error)
        << "weight drift with equal configs must fail the checksum gate";
    // Restoring the weight restores admissibility — the gate keys on
    // the bits, nothing else.
    p->value[0] = saved;
    Server healed(raw(drifting), config);
    EXPECT_EQ(healed.weight_checksum(0), healed.weight_checksum(1));
  }
  // After every rejection the replicas are still unbound and serve.
  Server ok(raw(replicas), config);
  Request req;
  req.src_ids = random_src_ids(1, 4, 20, 502);
  req.max_new_tokens = 2;
  ok.submit(std::move(req));
  ok.wait_idle();
  EXPECT_EQ(ok.take_results().size(), 1u);
}

TEST(Server, StreamsTokensFromTheShardWorker) {
  auto replicas = make_replicas(1);
  const auto cases = make_cases(*replicas[0], 1, 8, 11);
  Server server(raw(replicas), server_config(2, 8));

  std::vector<index_t> streamed;
  Request req;
  req.src_ids = cases[0].src;
  req.max_new_tokens = cases[0].budget;
  req.on_token = [&](const StreamEvent& e) { streamed.push_back(e.token); };
  const index_t id = server.submit(std::move(req));
  // wait_idle() synchronizes with the worker's retirement drain, so
  // reading `streamed` here is race-free.
  server.wait_idle();

  auto results = server.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, id);
  EXPECT_EQ(streamed, results[0].tokens);
  EXPECT_EQ(streamed, cases[0].reference);
  if (!results[0].tokens.empty()) {
    EXPECT_GT(results[0].first_token_tick, results[0].submit_tick);
  }
}

TEST(Server, ShedsAndCancelsResolveExactlyOnce) {
  // The adversarial burst: every 4th source is a full-max_src prefill
  // amid 4-token ones (head-of-line blockers for both shards' prefill
  // workers), priorities are random and some requests carry a tight
  // deadline.  Submits into two two-row, three-deep shards outrun the
  // workers' ticks — a TickGate lets each shard stream at most one tick
  // per front-end call until the storm is over — so much of the burst
  // load-sheds; a cancel storm follows.  Every id must resolve exactly
  // once, and whatever was served must agree with the solo decode.  The
  // shed does not hinge on the submitting thread never being descheduled
  // mid-burst: a descheduled driver stalls the shards with it.
  auto replicas = make_replicas(2);
  const index_t max_steps = 8;
  const index_t max_src = tiny_transformer_config().max_len;
  struct Entry {
    Tensor src;
    index_t budget = 0;
    Priority priority = Priority::kNormal;
    index_t deadline_tick = 0;
    std::vector<index_t> reference;
  };
  // References first, so the burst below is not spread out by them.
  Rng rng(211);
  std::vector<Entry> entries;
  for (index_t i = 0; i < 24; ++i) {
    Entry e;
    e.src = random_src_ids(1, i % 4 == 0 ? max_src : 4, 20,
                           520 + static_cast<std::uint64_t>(i));
    e.budget = 4 + rng.uniform_int(max_steps - 3);  // 4..max_steps
    e.priority = static_cast<Priority>(rng.uniform_int(kPriorityClasses));
    if (i % 7 == 3) e.deadline_tick = 2 + rng.uniform_int(4);
    e.reference = replicas[0]->greedy_decode_reference(e.src, {}, kBos,
                                                       kEos, e.budget)[0];
    entries.push_back(std::move(e));
  }

  ServerConfig config = server_config(2, max_steps);
  config.shard.max_queue = 3;
  config.shard.prefill_workers = 1;
  Server server(raw(replicas), config);
  TickGate gate(server);
  std::map<index_t, std::size_t> id_to_entry;
  std::vector<index_t> ids;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Request req;
    req.src_ids = entries[i].src;
    req.max_new_tokens = entries[i].budget;
    req.priority = entries[i].priority;
    req.deadline_tick = entries[i].deadline_tick;
    req.on_token = [&gate](const StreamEvent& ev) { gate.hold(ev); };
    gate.front_call();
    const index_t id = server.submit(std::move(req));
    id_to_entry[id] = i;
    ids.push_back(id);
  }
  // The cancel storm: every third id, whatever state it is in — queued,
  // prefilling, live or already resolved — each followed at once by a
  // double-cancel that must be a no-op.
  index_t cancel_hits = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    gate.front_call();
    if (server.cancel(ids[i])) ++cancel_hits;
    gate.front_call();
    EXPECT_FALSE(server.cancel(ids[i])) << "double-cancel of id " << ids[i];
  }
  gate.open();
  server.wait_idle();  // a deadlock or a leaked row hangs right here

  auto results = server.take_results();
  ASSERT_EQ(results.size(), ids.size());
  std::set<index_t> seen;
  index_t sheds = 0, cancelled = 0;
  for (const RequestResult& r : results) {
    EXPECT_TRUE(seen.insert(r.id).second)
        << "id " << r.id << " resolved twice";
    const std::vector<index_t>& ref =
        entries[id_to_entry.at(r.id)].reference;
    switch (r.reason) {
      case FinishReason::kShed:
        ++sheds;
        EXPECT_TRUE(r.tokens.empty()) << "shed id " << r.id;
        break;
      case FinishReason::kCancelled:
        ++cancelled;
        [[fallthrough]];
      case FinishReason::kDeadline:
        EXPECT_TRUE(r.tokens.size() <= ref.size() &&
                    std::equal(r.tokens.begin(), r.tokens.end(),
                               ref.begin()))
            << "id " << r.id << " cut short but not a prefix of its solo "
            << "decode";
        break;
      case FinishReason::kEos:
      case FinishReason::kLength:
        EXPECT_EQ(r.tokens, ref) << "completed id " << r.id;
        break;
      case FinishReason::kError:
        ADD_FAILURE() << "id " << r.id << " errored: " << r.error;
        break;
    }
  }
  for (const index_t id : ids) EXPECT_EQ(seen.count(id), 1u);
  EXPECT_GT(sheds, 0) << "a 24-submit burst into 2 x max_queue=3 must shed";
  // A cancel that lands while its prefill is in flight wins over a
  // deadline passing in the meantime, so every accepted cancel resolves
  // kCancelled and nothing else does.
  EXPECT_EQ(cancelled, cancel_hits);
  EXPECT_FALSE(server.cancel(ids[0])) << "everything already resolved";
}

TEST(Server, StatsTotalsRollUpAcrossShards) {
  // Server::stats() folds the shards' snapshots into `totals`: counters
  // sum, mean_occupancy and tick_mean_ms are weighted by each shard's
  // stepped ticks, and tick_p99_ms is the worst shard's.  JSQ sends
  // the first request to shard 0 and the short second one to shard 1;
  // the third, submitted while both still decode (a TickGate holds their
  // tokens), ties and joins shard 0.  The shards then step different
  // tick counts at different occupancies, so an unweighted mean would
  // not match.
  auto replicas = make_replicas(2);
  const index_t max_steps = 10;
  Server server(raw(replicas), server_config(2, max_steps));
  TickGate gate(server);
  const index_t budgets[] = {max_steps, 2, max_steps};
  for (std::uint64_t i = 0; i < 3; ++i) {
    Request req;
    req.src_ids = random_src_ids(1, 5, 20, 540 + i);
    req.max_new_tokens = budgets[i];
    req.on_token = [&gate](const StreamEvent& ev) { gate.hold(ev); };
    gate.front_call();
    server.submit(std::move(req));
  }
  gate.open();
  server.wait_idle();
  EXPECT_EQ(server.take_results().size(), 3u);

  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.per_shard.size(), 2u);
  const SchedulerStats& t = stats.totals;
  const SchedulerStats& s0 = stats.per_shard[0];
  const SchedulerStats& s1 = stats.per_shard[1];
  ASSERT_GT(s0.stepped_ticks, 0) << "both shards must have served";
  ASSERT_GT(s1.stepped_ticks, 0) << "both shards must have served";
  const double w0 = static_cast<double>(s0.stepped_ticks);
  const double w1 = static_cast<double>(s1.stepped_ticks);
  EXPECT_EQ(t.stepped_ticks, s0.stepped_ticks + s1.stepped_ticks);
  EXPECT_EQ(t.total_tokens, s0.total_tokens + s1.total_tokens);
  EXPECT_DOUBLE_EQ(t.mean_occupancy,
                   (s0.mean_occupancy * w0 + s1.mean_occupancy * w1) /
                       (w0 + w1));
  EXPECT_DOUBLE_EQ(t.tick_mean_ms,
                   (s0.tick_mean_ms * w0 + s1.tick_mean_ms * w1) / (w0 + w1));
  EXPECT_EQ(t.tick_p99_ms, std::max(s0.tick_p99_ms, s1.tick_p99_ms));
  EXPECT_EQ(t.per_class[static_cast<std::size_t>(Priority::kNormal)].completed,
            3);
}

TEST(Server, ThrowingCallbackResolvesErrorAndTheShardKeepsServing) {
  // A stream callback runs on the shard worker thread; an exception out
  // of it must not escape that thread (which would terminate the
  // process).  The request resolves kError and the shard serves on.
  auto replicas = make_replicas(1);
  const auto cases = make_cases(*replicas[0], 2, 8, 15);
  ASSERT_FALSE(cases[0].reference.empty()) << "the callback must fire";
  Server server(raw(replicas), server_config(2, 8));

  Request bad;
  bad.src_ids = cases[0].src;
  bad.max_new_tokens = cases[0].budget;
  bad.on_token = [](const StreamEvent&) {
    throw std::runtime_error("client went away");
  };
  const index_t bad_id = server.submit(std::move(bad));
  server.wait_idle();
  auto results = server.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, bad_id);
  EXPECT_EQ(results[0].reason, FinishReason::kError);
  EXPECT_EQ(results[0].error, "client went away");
  EXPECT_EQ(results[0].tokens,
            std::vector<index_t>{cases[0].reference.front()});

  Request good;
  good.src_ids = cases[1].src;
  good.max_new_tokens = cases[1].budget;
  const index_t good_id = server.submit(std::move(good));
  server.wait_idle();
  results = server.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, good_id);
  EXPECT_EQ(results[0].tokens, cases[1].reference);
}

TEST(Server, CancelLandsMidDecodeOnABusyShard) {
  // Regression: the shard worker must release the shard lock between
  // ticks.  Holding it across the whole busy period made cancel() block
  // until the request resolved on its own (and then return false) and
  // kept arrivals out of the running batch.  Here a long decode is
  // cancelled right after its first streamed token: the cancel must land
  // mid-flight, cutting the stream short with kCancelled.
  auto replicas = make_replicas(1);
  const index_t budget = 12;  // the tiny model's max_len caps max_steps
  // Pick a source whose solo greedy decode runs long (no early eos), so
  // the cancel has many ticks of runway before natural retirement.
  Tensor src;
  std::size_t solo_len = 0;
  for (std::uint64_t seed = 600; seed < 700 && solo_len < 12; ++seed) {
    Tensor candidate = random_src_ids(1, 5, 20, seed);
    const auto ref = replicas[0]->greedy_decode_reference(
        candidate, {}, kBos, kEos, budget)[0];
    if (ref.size() > solo_len) {
      solo_len = ref.size();
      src = std::move(candidate);
    }
  }
  ASSERT_GE(solo_len, 8u) << "no long-running decode found";

  Server server(raw(replicas), server_config(1, budget));
  std::mutex mu;
  std::condition_variable streamed;
  bool first_token = false;  // guarded by mu
  Request req;
  req.src_ids = std::move(src);
  req.max_new_tokens = static_cast<index_t>(solo_len);
  req.on_token = [&](const StreamEvent& ev) {
    if (ev.index != 0) return;
    {
      std::lock_guard<std::mutex> lk(mu);
      first_token = true;
    }
    streamed.notify_one();
    // The tiny model decodes a token faster than the test thread can
    // wake and call cancel(), so hold this tick (and the shard lock)
    // until the cancel is queued on the lock: from then on the worker
    // must hand the lock over at the next tick boundary, mid-decode.
    while (server.lock_waiters() == 0) std::this_thread::yield();
  };
  const index_t id = server.submit(std::move(req));
  {
    std::unique_lock<std::mutex> lk(mu);
    streamed.wait(lk, [&] { return first_token; });
  }
  EXPECT_TRUE(server.cancel(id))
      << "cancel() must interleave with a busy shard, not wait for it";
  server.wait_idle();

  auto results = server.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, id);
  EXPECT_EQ(results[0].reason, FinishReason::kCancelled);
  EXPECT_LT(results[0].tokens.size(), solo_len)
      << "the stream ran to completion — the cancel never interleaved";
}

TEST(Server, MultiThreadedFuzzEveryIdResolvesExactlyOnce) {
  // Satellite (f): two submitter threads, a canceller, and a drainer all
  // race the shard workers.  Afterwards: every id has exactly one
  // result; completed streams are bit-exact against the solo reference;
  // cancelled streams are bit-exact prefixes.
  auto replicas = make_replicas(2);
  const index_t max_steps = 10;
  const auto cases = make_cases(*replicas[0], 8, max_steps, 13);
  ServerConfig config = server_config(2, max_steps);
  config.shard.prefill_workers = 1;  // cover the async pool under threads
  Server server(raw(replicas), config);

  constexpr int kPerSubmitter = 20;
  std::mutex mu;
  std::map<index_t, std::size_t> id_to_case;  // guarded by mu
  std::vector<index_t> ids;                   // guarded by mu
  std::vector<RequestResult> drained;         // guarded by mu
  std::atomic<bool> done{false};

  auto submitter = [&](std::uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < kPerSubmitter; ++i) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(static_cast<index_t>(cases.size())));
      Request req;
      req.src_ids = cases[pick].src;
      req.max_new_tokens = cases[pick].budget;
      req.priority = static_cast<Priority>(rng.uniform_int(3));
      const index_t id = server.submit(std::move(req));
      std::lock_guard<std::mutex> lk(mu);
      id_to_case[id] = pick;
      ids.push_back(id);
    }
  };
  std::thread submit_a(submitter, 1001);
  std::thread submit_b(submitter, 2002);
  std::thread canceller([&] {
    Rng rng(3003);
    for (int i = 0; i < 2 * kPerSubmitter; ++i) {
      index_t target = -1;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (!ids.empty())
          target = ids[static_cast<std::size_t>(rng.uniform_int(
              static_cast<index_t>(ids.size())))];
      }
      if (target >= 0) server.cancel(target);  // may already be resolved
      std::this_thread::yield();
    }
  });
  std::thread drainer([&] {
    while (!done.load()) {
      auto batch = server.take_results();
      if (!batch.empty()) {
        std::lock_guard<std::mutex> lk(mu);
        for (RequestResult& r : batch) drained.push_back(std::move(r));
      }
      std::this_thread::yield();
    }
  });

  submit_a.join();
  submit_b.join();
  canceller.join();
  server.wait_idle();
  done.store(true);
  drainer.join();
  for (RequestResult& r : server.take_results())
    drained.push_back(std::move(r));  // whatever the drainer missed

  ASSERT_EQ(drained.size(), static_cast<std::size_t>(2 * kPerSubmitter));
  std::set<index_t> seen;
  for (const RequestResult& r : drained) {
    ASSERT_TRUE(seen.insert(r.id).second)
        << "id " << r.id << " resolved twice";
    const auto& reference = cases[id_to_case.at(r.id)].reference;
    if (r.reason == FinishReason::kEos ||
        r.reason == FinishReason::kLength) {
      EXPECT_EQ(r.tokens, reference)
          << "id " << r.id << ": shard/interleaving changed the stream";
    } else {
      ASSERT_EQ(r.reason, FinishReason::kCancelled) << "id " << r.id;
      ASSERT_LE(r.tokens.size(), reference.size()) << "id " << r.id;
      EXPECT_TRUE(std::equal(r.tokens.begin(), r.tokens.end(),
                             reference.begin()))
          << "id " << r.id << ": not a prefix of the solo decode";
    }
  }
  for (const index_t id : ids) EXPECT_EQ(seen.count(id), 1u);
  EXPECT_EQ(server.pending(), 0);
}

}  // namespace
}  // namespace qdnn::serve
