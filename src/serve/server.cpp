#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>

namespace qdnn::serve {

namespace {

// Cheap divergence guard: FNV-1a 64 over every parameter's float bits,
// folded to 52 bits so a double-valued Gauge holds it exactly (doubles
// represent integers up to 2^53 losslessly).  Order-sensitive — the
// replicas' parameters() traversals are structural, so identically-built
// replicas hash identically and any drifted weight changes the value.
double weight_checksum_of(models::Transformer& model) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const nn::Parameter* p : model.parameters()) {
    const float* data = p->value.data();
    const index_t n = p->value.numel();
    for (index_t i = 0; i < n; ++i) {
      std::uint32_t bits;
      std::memcpy(&bits, &data[i], sizeof(bits));
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 1099511628211ULL;  // FNV prime
      }
    }
  }
  return static_cast<double>(h & ((1ULL << 52) - 1));
}

}  // namespace

Server::Server(const std::vector<models::Transformer*>& models,
               ServerConfig config) {
  const auto n = static_cast<index_t>(models.size());
  QDNN_CHECK(n >= 1, "Server: models must be non-empty (one replica per "
                     "shard)");
  QDNN_CHECK(config.shards == 0 || config.shards == n,
             "Server: config.shards " << config.shards
                                      << " must equal models.size() " << n
                                      << " (or 0 to derive)");
  for (index_t i = 0; i < n; ++i) {
    QDNN_CHECK(models[static_cast<std::size_t>(i)] != nullptr,
               "Server: models[" << i << "] is null");
    for (index_t j = 0; j < i; ++j)
      QDNN_CHECK(models[static_cast<std::size_t>(i)] !=
                     models[static_cast<std::size_t>(j)],
                 "Server: models[" << i << "] and models[" << j
                                   << "] are the same object — each shard "
                                      "binds its own replica exclusively");
  }
  // Shard-invariance rests on the replicas being identical; catch the
  // cheap-to-catch divergence (architecture or init seed) at the edge
  // with a field-named error.  Weight drift after construction (training
  // one replica and not the others) is on the caller.
  const models::TransformerConfig& base = models[0]->config();
  for (index_t i = 1; i < n; ++i) {
    const models::TransformerConfig& c =
        models[static_cast<std::size_t>(i)]->config();
#define QDNN_SERVE_SAME(field)                                         \
  QDNN_CHECK(c.field == base.field,                                    \
             "Server: models[" << i << "]." #field " (" << c.field     \
                               << ") differs from models[0] ("         \
                               << base.field                           \
                               << ") — shards must serve identical "   \
                                  "replicas")
    QDNN_SERVE_SAME(src_vocab);
    QDNN_SERVE_SAME(tgt_vocab);
    QDNN_SERVE_SAME(d_model);
    QDNN_SERVE_SAME(n_heads);
    QDNN_SERVE_SAME(n_layers);
    QDNN_SERVE_SAME(d_ff);
    QDNN_SERVE_SAME(proj_dim);
    QDNN_SERVE_SAME(max_len);
    QDNN_SERVE_SAME(seed);
#undef QDNN_SERVE_SAME
  }

  // The config check above cannot see post-construction weight drift
  // (training one replica and not the others): checksum every replica's
  // weights, reject divergence at the edge, and export the values as
  // gauges so drift stays visible in snapshots.
  weight_checksums_.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const double sum =
        weight_checksum_of(*models[static_cast<std::size_t>(i)]);
    QDNN_CHECK(weight_checksums_.empty() || sum == weight_checksums_[0],
               "Server: models[" << i << "] weight checksum (" << sum
                                 << ") differs from models[0] ("
                                 << weight_checksums_[0]
                                 << ") — shards must serve identical "
                                    "replica weights");
    weight_checksums_.push_back(sum);
    registry_
        .gauge("server.shard" + std::to_string(i) + ".weight_checksum")
        .set(sum);
  }

  // Bind every shard's scheduler before starting any worker, so a
  // construction failure (bind exclusivity, ring geometry) never leaves
  // threads running over half-built state.  Every shard records into the
  // server's registry under its own prefix, so one snapshot sees the
  // whole fleet.
  shards_.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    BatchSchedulerConfig shard_config = config.shard;
    shard_config.registry = &registry_;
    shard_config.metrics_prefix = "shard" + std::to_string(i);
    shard->scheduler = std::make_unique<BatchScheduler>(
        *models[static_cast<std::size_t>(i)], shard_config);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_)
    shard->worker = std::thread([this, s = shard.get()] { shard_loop(*s); });
}

Server::~Server() {
  stop_.store(true);
  for (auto& shard : shards_) {
    // Taking the lock before notifying closes the race with a worker
    // that checked stop_ and is about to wait.
    { std::lock_guard<std::mutex> lk(shard->mu); }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

void Server::drain_locked(Shard& shard) {
  if (shard.scheduler->results_ready() == 0) return;
  std::vector<RequestResult> results = shard.scheduler->take_results();
  for (RequestResult& r : results) shard.mailbox.push_back(std::move(r));
  const auto drained = static_cast<index_t>(results.size());
  shard.outstanding.fetch_sub(drained);
  {
    // Decrement under idle_mu_ so wait_idle's predicate check cannot
    // miss the matching notify.
    std::lock_guard<std::mutex> lk(idle_mu_);
    unresolved_.fetch_sub(drained);
  }
  idle_cv_.notify_all();
}

std::unique_lock<std::mutex> Server::lock_front(const Shard& shard) {
  shard.waiters.fetch_add(1);
  std::unique_lock<std::mutex> lk(shard.mu);
  shard.waiters.fetch_sub(1);
  return lk;
}

void Server::shard_loop(Shard& shard) {
  // The lock is scoped to ONE tick: acquired at the top of each
  // iteration, released at the bottom.  A busy shard therefore yields
  // shard.mu between steps, so submit / cancel / take_results / stats
  // interleave at tick granularity — an arrival joins the running batch
  // on the next tick (continuous batching survives the front end) and a
  // mid-decode cancel takes effect at the next tick boundary instead of
  // blocking until the shard drains.
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(shard.mu);
      shard.cv.wait(lk, [&] {
        return stop_.load() || !shard.scheduler->idle();
      });
      if (stop_.load()) return;
      const index_t stepped = shard.scheduler->step();
      drain_locked(shard);
      if (stepped == 0 && !shard.scheduler->idle()) {
        // Only prefill compute is outstanding: back off briefly — the
        // wait releases the lock, so submits/cancels proceed and the
        // tick clock does not free-run while the pool works.
        shard.cv.wait_for(lk, std::chrono::microseconds(200));
      }
    }
    // Releasing the mutex does not hand it over: this loop would win the
    // re-lock against a woken waiter essentially every time (barging),
    // which is the busy-period lockout again in practice.  So between
    // ticks the worker yields until every registered front-end caller
    // (lock_front) has gotten through.
    while (shard.waiters.load() > 0 && !stop_.load())
      std::this_thread::yield();
  }
}

index_t Server::submit(Request request) {
  QDNN_CHECK(request.id == -1,
             "Server: request.id must be left at -1 — the Server assigns "
             "globally unique ids (got "
                 << request.id << ")");
  // Join-shortest-queue: fewest unresolved requests wins, ties broken
  // round-robin — the scan starts at seq % shards, so an idle fleet still
  // spreads consecutive submits instead of piling them on shard 0.
  // Reads are atomic — no shard lock is touched until the destination is
  // chosen, so a busy shard never blocks routing.
  const index_t seq = next_seq_.fetch_add(1);
  index_t best = seq % shards();
  index_t best_load =
      shards_[static_cast<std::size_t>(best)]->outstanding.load();
  for (index_t k = 1; k < shards(); ++k) {
    const index_t i = (seq + k) % shards();
    const index_t load =
        shards_[static_cast<std::size_t>(i)]->outstanding.load();
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  Shard& shard = *shards_[static_cast<std::size_t>(best)];
  const index_t id = seq * shards() + best;
  request.id = id;
  {
    const auto lk = lock_front(shard);
    shard.scheduler->submit(std::move(request));  // throws = nothing taken
    shard.outstanding.fetch_add(1);
    {
      std::lock_guard<std::mutex> ilk(idle_mu_);
      unresolved_.fetch_add(1);
    }
    // A load-shed resolves at submit; surface it to the mailbox now so
    // pending()/wait_idle() never count a request the worker would only
    // notice on its next wake-up.
    drain_locked(shard);
  }
  shard.cv.notify_one();
  return id;
}

bool Server::cancel(index_t id) {
  if (id < 0) return false;
  Shard& shard = *shards_[static_cast<std::size_t>(id % shards())];
  bool hit;
  {
    const auto lk = lock_front(shard);
    hit = shard.scheduler->cancel(id);
    // A queued or mid-decode cancel resolves immediately — mailbox it
    // under the same lock hold.  (A cancel caught mid-prefill resolves
    // on the worker's next drain.)
    drain_locked(shard);
  }
  if (hit) shard.cv.notify_one();
  return hit;
}

std::vector<RequestResult> Server::take_results() {
  std::vector<RequestResult> out;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const auto lk = lock_front(shard);
    drain_locked(shard);
    for (RequestResult& r : shard.mailbox) out.push_back(std::move(r));
    shard.mailbox.clear();
  }
  return out;
}

void Server::wait_idle() {
  std::unique_lock<std::mutex> lk(idle_mu_);
  idle_cv_.wait(lk, [&] { return unresolved_.load() == 0; });
}

index_t Server::lock_waiters() const {
  index_t total = 0;
  for (const auto& shard : shards_) total += shard->waiters.load();
  return total;
}

SchedulerStats Server::shard_stats(index_t shard) const {
  QDNN_CHECK(shard >= 0 && shard < shards(),
             "Server: shard " << shard << " outside [0, " << shards()
                              << ")");
  const Shard& s = *shards_[static_cast<std::size_t>(shard)];
  const auto lk = lock_front(s);
  return s.scheduler->stats();
}

double Server::weight_checksum(index_t shard) const {
  QDNN_CHECK(shard >= 0 && shard < shards(),
             "Server: shard " << shard << " outside [0, " << shards()
                              << ")");
  return weight_checksums_[static_cast<std::size_t>(shard)];
}

ServerStats Server::stats() const {
  ServerStats s;
  s.per_shard.reserve(shards_.size());
  double occupancy_weighted = 0.0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    const auto lk = lock_front(shard);
    s.per_shard.push_back(shard.scheduler->stats());
  }
  double tick_ms_weighted = 0.0;
  for (const SchedulerStats& ps : s.per_shard) {
    s.totals.ticks += ps.ticks;
    s.totals.stepped_ticks += ps.stepped_ticks;
    s.totals.total_tokens += ps.total_tokens;
    // KV-paging counters sum across shards (each shard owns its own pool).
    s.totals.prefix_hits += ps.prefix_hits;
    s.totals.prefix_misses += ps.prefix_misses;
    s.totals.prefix_insertions += ps.prefix_insertions;
    s.totals.prefix_evictions += ps.prefix_evictions;
    s.totals.preemptions += ps.preemptions;
    s.totals.free_pages += ps.free_pages;
    s.totals.total_pages += ps.total_pages;
    occupancy_weighted +=
        ps.mean_occupancy * static_cast<double>(ps.stepped_ticks);
    // Tick percentiles roll up as worst-shard (the conservative tail —
    // per-shard tick clocks advance independently); the tick-time mean is
    // stepped-tick weighted like occupancy.
    tick_ms_weighted +=
        ps.tick_mean_ms * static_cast<double>(ps.stepped_ticks);
    s.totals.tick_p99_ms = std::max(s.totals.tick_p99_ms, ps.tick_p99_ms);
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(kPriorityClasses); ++c) {
      SchedulerClassStats& tot = s.totals.per_class[c];
      const SchedulerClassStats& cls = ps.per_class[c];
      tot.submitted += cls.submitted;
      tot.completed += cls.completed;
      tot.cancelled += cls.cancelled;
      tot.expired += cls.expired;
      tot.shed += cls.shed;
      tot.errored += cls.errored;
      tot.queue_wait_samples += cls.queue_wait_samples;
      tot.ttft_samples += cls.ttft_samples;
      tot.queue_wait_p50 = std::max(tot.queue_wait_p50, cls.queue_wait_p50);
      tot.queue_wait_p99 = std::max(tot.queue_wait_p99, cls.queue_wait_p99);
      tot.ttft_p50 = std::max(tot.ttft_p50, cls.ttft_p50);
      tot.ttft_p99 = std::max(tot.ttft_p99, cls.ttft_p99);
    }
  }
  s.totals.mean_occupancy =
      s.totals.stepped_ticks > 0
          ? occupancy_weighted /
                static_cast<double>(s.totals.stepped_ticks)
          : 0.0;
  s.totals.tick_mean_ms =
      s.totals.stepped_ticks > 0
          ? tick_ms_weighted / static_cast<double>(s.totals.stepped_ticks)
          : 0.0;
  return s;
}

}  // namespace qdnn::serve
