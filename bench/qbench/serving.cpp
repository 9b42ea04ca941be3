// Serving workloads: qt128 replicas behind serve::Server, driven either
// open loop (Poisson arrivals on a wall-clock schedule, one generator
// thread) or as one closed burst.  Every request is timed from its due
// time through its streamed tokens; every result is checked.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_map>

#include "linalg/gemm_backend.h"
#include "serve/server.h"
#include "workloads.h"

namespace qbench {

using namespace qdnn;

namespace {

// Requests per second of timed window in a closed burst: sized so the
// burst drains in about the window on a 4-core x86 box.
constexpr double kBurstPerSecond = 450.0;

using H = ServeSpec::Headline;
// SLO limits are fixed per workload: the largest per-run p99 of TTFT and
// of a request's mean gap over ten seeds, measured when the benchmark was
// introduced, rounded up.  (A burst's TTFT is its queue position, so
// offline_burst's TTFT limit only guards against a stall.)
constexpr ServeSpec kSpecs[] = {
    {"chat", 150.0, 2, 0, 0, 16, 8, 24, 16, 56, 0, 8.0, 1.0, H::kItl},
    {"long_prompt", 250.0, 1, 2, 0, 16, 40, 60, 4, 12, 0, 20.0, 1.0,
     H::kTtft},
    {"shared_prefix", 300.0, 2, 0, 48, 8, 48, 60, 8, 24, 16, 15.0, 2.0,
     H::kTtft},
    {"offline_burst", 0.0, 2, 0, 0, 16, 8, 60, 4, 56, 0, 20000.0, 3.0,
     H::kThroughput},
};

struct Planned {
  std::vector<float> src;
  index_t budget = 0;
  long long due_ns = 0;  // offset into the schedule (open loop)
  bool warm = false;     // warm-up prefix, discarded from the metrics
};

// `n` values spread evenly over [lo, hi], in a seeded random order: every
// seed gets the same multiset, so runs differ in order, not in total work.
std::vector<index_t> stratified(index_t n, index_t lo, index_t hi, Rng& rng) {
  std::vector<index_t> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = lo + (i * (hi - lo + 1)) / std::max<index_t>(n, 1);
  for (index_t i = n - 1; i > 0; --i)
    std::swap(v[static_cast<std::size_t>(i)],
              v[static_cast<std::size_t>(rng.uniform_int(i + 1))]);
  return v;
}

// Draws the whole request stream from the seed, before anything is timed.
// The seed decides token ids, arrival times and the order of lengths and
// budgets; the length/budget mix and the prompt popularity are fixed.
std::vector<Planned> plan_requests(const ServeSpec& spec, const Options& o) {
  Fnv1a mix;
  mix.add(spec.name, std::char_traits<char>::length(spec.name));
  mix.add_u64(o.seed);
  Rng rng(mix.h);
  const index_t vocab = qt128_config().src_vocab;
  auto draw_source = [&](index_t ts) {
    std::vector<float> src(static_cast<std::size_t>(ts));
    for (float& t : src) t = static_cast<float>(3 + rng.uniform_int(vocab - 3));
    return src;
  };

  index_t n_warm = 0, n = 0;
  const double warm_s = o.smoke ? 0.1 : 1.2;
  if (spec.rate > 0.0) {
    n = static_cast<index_t>(std::llround(spec.rate * (warm_s + o.seconds)));
  } else {
    n_warm = o.smoke ? 20 : 400;
    n = n_warm + static_cast<index_t>(std::llround(kBurstPerSecond * o.seconds));
  }
  // Poisson arrivals conditioned on their count: n uniform times over the
  // span, sorted.  The timed window then always holds rate × seconds
  // requests, so runs differ by their inputs, not by their length.
  std::vector<double> due(static_cast<std::size_t>(n), 0.0);
  if (spec.rate > 0.0) {
    for (double& d : due) d = rng.uniform() * (warm_s + o.seconds);
    std::sort(due.begin(), due.end());
  }
  // Shared prompts: prompt p is the (p+1)-th most popular, its length set
  // by its rank, and it is asked exactly its Zipf(1.1) share of n times.
  std::vector<std::vector<float>> prompts;
  std::vector<index_t> source_of;  // prompt per request
  if (spec.prompts > 0) {
    double total = 0.0;
    for (index_t p = 0; p < spec.prompts; ++p)
      total += 1.0 / std::pow(static_cast<double>(p + 1), 1.1);
    double cum = 0.0;
    for (index_t p = 0; p < spec.prompts; ++p) {
      prompts.push_back(draw_source(
          spec.ts_lo + (p * (spec.ts_hi - spec.ts_lo + 1)) / spec.prompts));
      cum += 1.0 / std::pow(static_cast<double>(p + 1), 1.1) / total;
      const auto upto = static_cast<std::size_t>(
          std::llround(cum * static_cast<double>(n)));
      while (source_of.size() < std::min(upto, static_cast<std::size_t>(n)))
        source_of.push_back(p);
    }
    source_of.resize(static_cast<std::size_t>(n), spec.prompts - 1);
    for (index_t i = n - 1; i > 0; --i)
      std::swap(source_of[static_cast<std::size_t>(i)],
                source_of[static_cast<std::size_t>(rng.uniform_int(i + 1))]);
  }
  const std::vector<index_t> lengths =
      stratified(n, spec.ts_lo, spec.ts_hi, rng);
  const std::vector<index_t> budgets = stratified(n, spec.b_lo, spec.b_hi, rng);
  std::vector<Planned> plan(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    Planned& p = plan[k];
    p.src = spec.prompts > 0 ? prompts[static_cast<std::size_t>(source_of[k])]
                             : draw_source(lengths[k]);
    p.budget = budgets[k];
    p.due_ns = static_cast<long long>(due[static_cast<std::size_t>(i)] * 1e9);
    p.warm = spec.rate > 0.0 ? due[static_cast<std::size_t>(i)] < warm_s
                             : i < n_warm;
  }
  return plan;
}

// One request's bench-side record.  The on_token callback (shard worker
// thread, shard lock held) only stores into preallocated slots; main reads
// them after wait_idle(), which orders the two.
struct Rec {
  long long due = 0, submit0 = 0, submit1 = 0;
  index_t budget = 0;
  long long* tok_ns = nullptr;  // [budget] stream timestamps
  index_t* tok_ids = nullptr;   // [budget] streamed token ids
  index_t streamed = 0;
  bool overflow = false;  // a token index past the budget was streamed
  bool warm = false;
  bool ok = false;
  serve::RequestResult result;
};

serve::ServerConfig server_config(const ServeSpec& spec) {
  serve::ServerConfig c;
  c.shard.session.max_batch = kMaxBatch;
  c.shard.session.max_steps = kMaxSteps;
  c.shard.session.pool_pages = spec.pool_pages;
  c.shard.session.prefix_cache_entries = spec.prefix_entries;
  c.shard.bos = kBos;
  c.shard.eos = kEos;
  c.shard.prefill_workers = spec.prefill_workers;
  return c;
}

const char* reason_name(serve::FinishReason r) {
  switch (r) {
    case serve::FinishReason::kEos: return "eos";
    case serve::FinishReason::kLength: return "length";
    case serve::FinishReason::kError: return "error";
    case serve::FinishReason::kCancelled: return "cancelled";
    case serve::FinishReason::kDeadline: return "deadline";
    case serve::FinishReason::kShed: return "shed";
  }
  return "unknown";
}

// Re-decodes up to `count` sampled requests with the O(T²) reference
// decoder on fresh replicas (a few threads, after the timed window) and
// returns the indices whose served tokens differ.
std::vector<std::size_t> reference_mismatches(const std::vector<Rec>& recs,
                                              const std::vector<Planned>& plan,
                                              std::size_t count,
                                              std::uint64_t seed,
                                              RunReport& rep) {
  std::vector<std::size_t> ok_idx;
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (recs[i].ok) ok_idx.push_back(i);
  Rng rng(seed ^ 0xC0FFEEull);
  std::vector<std::size_t> pick;
  for (std::size_t k = 0; k < count && !ok_idx.empty(); ++k) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<index_t>(ok_idx.size())));
    pick.push_back(ok_idx[j]);
    ok_idx[j] = ok_idx.back();
    ok_idx.pop_back();
  }
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>({4, std::thread::hardware_concurrency(),
                                pick.size()}));
  std::vector<char> bad(pick.size(), 0);
  std::vector<std::exception_ptr> failures(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        models::Transformer ref(qt128_config());
        ref.set_training(false);
        for (std::size_t k = t; k < pick.size(); k += threads) {
          const Planned& p = plan[pick[k]];
          const Tensor src{Shape{1, static_cast<index_t>(p.src.size())},
                           p.src};
          const auto out =
              ref.greedy_decode_reference(src, {}, kBos, kEos, p.budget);
          bad[k] = out[0] != recs[pick[k]].result.tokens;
        }
      } catch (...) {
        failures[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : failures) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      rep.error(std::string("reference decode threw: ") + ex.what());
    }
  }
  std::vector<std::size_t> mismatched;
  for (std::size_t k = 0; k < pick.size(); ++k)
    if (bad[k]) mismatched.push_back(pick[k]);
  return mismatched;
}

}  // namespace

models::TransformerConfig qt128_config() {
  models::TransformerConfig c;
  c.src_vocab = 1024;
  c.tgt_vocab = 1024;
  c.d_model = 128;
  c.n_heads = 4;
  c.n_layers = 3;
  c.d_ff = 512;
  c.proj_dim = 64;
  c.spec = quadratic::NeuronSpec::proposed(3);
  c.max_len = 64;
  c.dropout = 0.0f;
  c.seed = 17;
  return c;
}

const ServeSpec* find_serve_spec(const std::string& name) {
  for (const ServeSpec& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

RunReport run_serving(const ServeSpec& spec, const Options& opts,
                      SpanBuffer* spans, Metrics* layers) {
  RunReport rep;
  rep.threads = 1 + static_cast<int>(spec.shards * (1 + spec.prefill_workers));
  const std::vector<Planned> plan = plan_requests(spec, opts);
  const std::size_t n = plan.size();

  // Inputs and records, built before anything is timed.
  std::size_t token_slots = 0;
  for (const Planned& p : plan) token_slots += static_cast<std::size_t>(p.budget);
  std::vector<long long> tok_ns(token_slots, 0);
  std::vector<index_t> tok_ids(token_slots, -1);
  std::vector<Rec> recs(n);
  std::vector<serve::Request> requests(n);
  std::size_t off = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Rec& r = recs[i];
    r.budget = plan[i].budget;
    r.warm = plan[i].warm;
    r.tok_ns = tok_ns.data() + off;
    r.tok_ids = tok_ids.data() + off;
    off += static_cast<std::size_t>(r.budget);
    serve::Request& q = requests[i];
    q.src_ids = Tensor{Shape{1, static_cast<index_t>(plan[i].src.size())},
                       plan[i].src};
    q.max_new_tokens = r.budget;
    q.on_token = [rec = &r](const serve::StreamEvent& e) {
      if (e.index < 0 || e.index >= rec->budget) {
        rec->overflow = true;
        return;
      }
      rec->tok_ns[e.index] = now_ns();
      rec->tok_ids[e.index] = e.token;
      ++rec->streamed;
    };
  }

  // Set-up: replica build, bind/freeze and the sessions' own warm-up,
  // repeated so its median is steady; the last server is the one served.
  std::vector<std::unique_ptr<models::Transformer>> replicas;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s;
  for (int k = 0; k < opts.setup_repeats(); ++k) {
    server.reset();
    replicas.clear();
    const long long t0 = now_ns();
    std::vector<models::Transformer*> raw;
    for (index_t s = 0; s < spec.shards; ++s) {
      replicas.push_back(std::make_unique<models::Transformer>(qt128_config()));
      replicas.back()->set_training(false);
      raw.push_back(replicas.back().get());
    }
    server = std::make_unique<serve::Server>(raw, server_config(spec));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  obs::set_trace_enabled(opts.traced);
  const long long heap0 = linalg::gemm_heap_pack_calls();
  std::vector<index_t> ids(n, -1);
  auto submit = [&](std::size_t i) {
    recs[i].submit0 = now_ns();
    ids[i] = server->submit(std::move(requests[i]));
    recs[i].submit1 = now_ns();
  };
  long long window0 = 0, window1 = 0;
  if (spec.rate > 0.0) {
    const long long start = now_ns() + 1000000;
    for (std::size_t i = 0; i < n; ++i) {
      recs[i].due = start + plan[i].due_ns;
      if (window0 == 0 && !recs[i].warm) window0 = recs[i].due;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(recs[i].due)));
      submit(i);
    }
    server->wait_idle();
    window1 = now_ns();
    rep.drain_s = static_cast<double>(window1 - recs.back().due) / 1e9;
  } else {
    std::size_t i = 0;
    const long long warm0 = now_ns();
    for (; i < n && recs[i].warm; ++i) {
      recs[i].due = warm0;
      submit(i);
    }
    server->wait_idle();
    window0 = now_ns();
    for (std::size_t j = i; j < n; ++j) {
      recs[j].due = window0;
      submit(j);
    }
    server->wait_idle();
    window1 = now_ns();
  }
  const long long heap_delta = linalg::gemm_heap_pack_calls() - heap0;
  obs::set_trace_enabled(false);
  const double rss_mb = peak_rss_mb();
  const serve::ServerStats stats = server->stats();
  std::vector<serve::RequestResult> results = server->take_results();
  server.reset();  // joins the shard workers before the checks
  replicas.clear();

  // ---- correctness: every id resolves once, to its budgeted stream ----
  rep.attempted = static_cast<long long>(n);
  std::unordered_map<index_t, std::size_t> by_id;
  for (std::size_t i = 0; i < n; ++i) by_id.emplace(ids[i], i);
  std::vector<char> seen(n, 0);
  for (serve::RequestResult& res : results) {
    const auto it = by_id.find(res.id);
    if (it == by_id.end() || seen[it->second]) {
      rep.error("unknown or duplicate result id " + std::to_string(res.id));
      continue;
    }
    seen[it->second] = 1;
    Rec& r = recs[it->second];
    r.result = std::move(res);
    const auto len = static_cast<index_t>(r.result.tokens.size());
    const bool reason_ok =
        (r.result.reason == serve::FinishReason::kLength && len == r.budget) ||
        (r.result.reason == serve::FinishReason::kEos && len < r.budget);
    const bool stream_ok =
        !r.overflow && r.streamed == len &&
        std::equal(r.result.tokens.begin(), r.result.tokens.end(),
                   r.tok_ids);
    r.ok = reason_ok && stream_ok;
    if (!r.ok) {
      ++rep.failed;
      rep.error("request " + std::to_string(it->second) + ": " +
                reason_name(r.result.reason) + " with " +
                std::to_string(len) + "/" + std::to_string(r.budget) +
                " tokens, " + std::to_string(r.streamed) + " streamed");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (seen[i]) continue;
    ++rep.failed;
    rep.error("request " + std::to_string(i) + " never resolved");
  }
  for (const std::size_t i : reference_mismatches(
           recs, plan, opts.smoke ? 4 : 32, opts.seed, rep)) {
    recs[i].ok = false;
    ++rep.failed;
    rep.error("request " + std::to_string(i) +
              " differs from greedy_decode_reference");
  }
  if (heap_delta != 0)
    rep.error("gemm heap-pack calls during the timed window: " +
              std::to_string(heap_delta));

  Fnv1a digest;
  for (std::size_t i = 0; i < n; ++i) {
    digest.add_u64(i);
    digest.add_u64(recs[i].result.tokens.size());
    for (const index_t t : recs[i].result.tokens)
      digest.add_u64(static_cast<std::uint64_t>(t));
  }
  rep.digest = digest.h;

  // ---- end-to-end metrics over the timed requests ----
  // Generator lag: how late the generator itself started a submit — past
  // the due time or past the end of the previous submit, whichever is
  // later.  Time blocked inside Server::submit is the system's, and shows
  // in TTFT (measured from the due time) and in server.submit_us.
  std::vector<double> ttft, itl, lag;
  long long timed = 0, met_slo = 0, tokens = 0;
  long long last_ns = window0;
  for (std::size_t i = 0; i < n; ++i) {
    const Rec& r = recs[i];
    if (r.warm) continue;
    ++timed;
    const long long ready = i > 0 ? std::max(r.due, recs[i - 1].submit1) : r.due;
    lag.push_back(static_cast<double>(r.submit0 - ready) / 1e6);
    const auto len = static_cast<std::size_t>(r.result.tokens.size());
    if (!r.ok || len == 0) continue;
    const double first = static_cast<double>(r.tok_ns[0] - r.due) / 1e6;
    const double last = static_cast<double>(r.tok_ns[len - 1] - r.due) / 1e6;
    ttft.push_back(first);
    for (std::size_t j = 1; j < len; ++j)
      itl.push_back(static_cast<double>(r.tok_ns[j] - r.tok_ns[j - 1]) / 1e6);
    const double mean_gap =
        len > 1 ? (last - first) / static_cast<double>(len - 1) : 0.0;
    met_slo += first <= spec.ttft_slo_ms && mean_gap <= spec.tpot_slo_ms;
    tokens += static_cast<long long>(len);
    last_ns = std::max(last_ns, r.tok_ns[len - 1]);
  }
  rep.samples = static_cast<long long>(ttft.size());
  double throughput = static_cast<double>(tokens) /
                      (static_cast<double>(std::max(last_ns - window0, 1LL)) / 1e9);
  if (spec.rate == 0.0) {
    // A burst's throughput is its saturated rate: tokens per 200 ms slice
    // while requests still waited for a row (up to the last first token),
    // median over the slices — the drain tail and short stalls drop out.
    constexpr long long kSlice = 200000000;
    long long saturated = window0;
    for (const Rec& r : recs)
      if (!r.warm && r.ok && r.streamed > 0)
        saturated = std::max(saturated, r.tok_ns[0]);
    const auto slices = static_cast<std::size_t>((saturated - window0) / kSlice);
    if (slices >= 3) {
      std::vector<double> per_slice(slices, 0.0);
      for (const Rec& r : recs) {
        if (r.warm || !r.ok) continue;
        for (index_t j = 0; j < r.streamed; ++j) {
          const auto s = static_cast<std::size_t>((r.tok_ns[j] - window0) / kSlice);
          if (s < slices) per_slice[s] += 1.0;
        }
      }
      throughput = median(per_slice) / (static_cast<double>(kSlice) / 1e9);
    }
  }
  if (spec.rate > 0.0) {
    rep.lag_p99_ms = percentile(lag, 0.99);
    if (rep.lag_p99_ms > 1.0)
      rep.invalid.push_back("generator lag p99 above 1 ms");
    if (rep.drain_s > 1.0)
      rep.invalid.push_back("drain after the last arrival above 1 s");
  }
  // The gap centre is p25, not p50: on a shared VM the gaps mix fast ticks
  // with ticks slowed by host contention, in a share that drifts from
  // minute to minute; p25 stays among the fast ones (see README.md).
  const double itl_p25 = percentile(itl, 0.25);
  const double ttft_p50 = percentile(ttft, 0.5);
  rep.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"ttft_p50_ms", ttft_p50, "ms"},
      {"ttft_p90_ms", percentile(ttft, 0.9), "ms"},
      {"itl_p25_ms", itl_p25, "ms"},
      {"itl_p90_ms", percentile(itl, 0.9), "ms"},
      {"throughput_per_s", throughput, "1/s"},
      {"slo_attainment",
       static_cast<double>(met_slo) / static_cast<double>(std::max(timed, 1LL)),
       "share"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
  switch (spec.headline) {
    case H::kTtft: rep.headline_cost = ttft_p50; break;
    case H::kItl: rep.headline_cost = itl_p25; break;
    case H::kThroughput: rep.headline_cost = 1e3 / throughput; break;
  }

  if (spans != nullptr) {
    spans->reserve(1 + 2 * n + token_slots);
    const long long root = spans->add("workload", 0, window0, window1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const Rec& r = recs[i];
      const auto len = static_cast<index_t>(r.result.tokens.size());
      if (r.warm || !r.ok || len == 0) continue;
      const int shard_tid = 1 + static_cast<int>(ids[i] % spec.shards);
      const long long req = spans->add("request", root, r.due,
                                       r.tok_ns[len - 1], shard_tid,
                                       SpanBuffer::Kind::kAsync);
      spans->add("server.submit", req, r.submit0, r.submit1, 0);
      for (index_t j = 0; j < len; ++j)
        spans->add("token", req, r.tok_ns[j], r.tok_ns[j], shard_tid,
                   SpanBuffer::Kind::kInstant);
    }
  }

  if (layers != nullptr) {
    std::vector<double> submit_us, queue_ms, prefill_ms;
    for (const Rec& r : recs) {
      if (r.warm) continue;
      submit_us.push_back(static_cast<double>(r.submit1 - r.submit0) / 1e3);
      if (!r.ok) continue;
      const serve::RequestPhases& ph = r.result.phases;
      if (ph.decode_ns > 0) queue_ms.push_back(static_cast<double>(ph.queue_ns) / 1e6);
      if (ph.prefill_ns > 0)
        prefill_ms.push_back(static_cast<double>(ph.prefill_ns) / 1e6);
    }
    if (opts.traced && queue_ms.empty())
      rep.error("traced run produced no request phases");
    double occ_lo = 1e300, occ_hi = 0.0;
    index_t shed = 0;
    for (const serve::SchedulerStats& s : stats.per_shard) {
      occ_lo = std::min(occ_lo, s.mean_occupancy);
      occ_hi = std::max(occ_hi, s.mean_occupancy);
    }
    for (const serve::SchedulerClassStats& c : stats.totals.per_class)
      shed += c.shed;
    const long long lookups =
        stats.totals.prefix_hits + stats.totals.prefix_misses;
    *layers = {
        {"server.submit_us_p99", percentile(submit_us, 0.99), "us"},
        {"server.occupancy_imbalance", occ_hi - occ_lo, "rows"},
        {"scheduler.tick_ms_mean", stats.totals.tick_mean_ms, "ms"},
        {"scheduler.tick_ms_p99", stats.totals.tick_p99_ms, "ms"},
        {"scheduler.occupancy_mean", stats.totals.mean_occupancy, "rows"},
        {"scheduler.queue_ms_p50", percentile(queue_ms, 0.5), "ms"},
        {"scheduler.queue_ms_p99", percentile(queue_ms, 0.99), "ms"},
        {"scheduler.preemptions", static_cast<double>(stats.totals.preemptions),
         "count"},
        {"scheduler.shed", static_cast<double>(shed), "count"},
        {"prefill.ms_p50", percentile(prefill_ms, 0.5), "ms"},
        {"prefill.ms_p99", percentile(prefill_ms, 0.99), "ms"},
        {"kv.prefix_hit_rate",
         lookups > 0 ? static_cast<double>(stats.totals.prefix_hits) /
                           static_cast<double>(lookups)
                     : 0.0,
         "share"},
        {"kv.prefix_evictions",
         static_cast<double>(stats.totals.prefix_evictions), "count"},
        {"kv.free_pages_end", static_cast<double>(stats.totals.free_pages),
         "pages"},
        {"gemm.heap_pack_calls_delta", static_cast<double>(heap_delta),
         "count"},
    };
  }
  return rep;
}

}  // namespace qbench
