// PrefillPool: the prefill half of the prefill/decode split, and the
// scheduler's only admission path.
//
// Every BatchScheduler admission runs through one pool; the worker count
// only decides WHERE the prefill computes.  With N >= 1 workers it runs
// off the serving thread, so a long prefill never stalls the live decode
// rows.  With 0 workers it runs inline on the serving thread through one
// staging slot (run_inline), the deterministic single-threaded mode.
// Both run the same body (prefill(): prefix probe, else prime_compute,
// with error capture and sampled trace stamps):
//
//   * submit() enqueues a prefill job (the request plus its scheduler
//     bookkeeping, including the warm token buffer reserved at submit).
//     The scheduler feeds the pool in priority/aging order and keeps at
//     most `slots` jobs inside it, so a later high-priority submit can
//     still overtake everything waiting in the scheduler's own queue.
//   * Worker threads (a bounded job queue, not a fork-join, so not a
//     core::WorkerPool; each holds a linalg::GemmSerialScope) pop jobs,
//     claim a preallocated runtime::PrefillStaging slot, and run the
//     expensive half, DecodeSession::prime_compute: the encoder's stage
//     plan over the source's valid prefix, run on the slot's own
//     runtime::StageLane, plus every layer's cross-K/V projection, all
//     computed from and written into the worker's exclusively-held
//     staging slot.
//     prime_compute touches no session or model mutable state (stateless
//     kernels over frozen weights), so N workers scale the prefill
//     throughput across N cores — no mutex, no serialization — while the
//     serving thread's step()/commit_row runs undisturbed.  Each slot's
//     workspace is warmed at pool construction (init_staging), so
//     steady-state prefill is zero-alloc end to end.
//   * The serving thread drains finished prefills each tick (try_take,
//     completion order), commits the staged K/V into a free batch row
//     (DecodeSession::commit_row — O(K/V copy), zero heap allocations)
//     and releases the slot for the next job.
//   * A zero-worker pool takes no submit()s: the scheduler hands it one
//     job at a time (run_inline) only when a batch row is free, so
//     priority order and zero-alloc admission hold exactly as in the
//     threaded mode.
//
// With workers, admission therefore costs the scheduler tick exactly one
// K/V copy, and tick-time jitter no longer tracks source length
// (qbench's long_prompt workload serves 40-60 token prompts through 2
// workers and reports scheduler.tick_ms_p99).
//
// Determinism: prefill computes the same bits on any thread (the encoder
// is deterministic and per-request), and per-request decode output is
// independent of admission interleaving (the PR 4 masked-attention
// contract) — so admission through N workers is bit-identical to the
// zero-worker pool per request, fuzzed in tests/serve/prefill_test.cpp.
// A prefill failure is captured into Finished::error and handed to
// the serving thread (try_take / run_inline), which NEVER throws — the
// scheduler resolves the failed id with a FinishReason::kError result,
// so every submitted request is accounted for.
//
// Thread-safety: submit/try_take/run_inline/release/pending are safe from
// the serving thread; the pool owns its workers and joins them on
// destruction.  The pool must be destroyed before the session it feeds.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "runtime/decode_session.h"
#include "serve/request.h"

namespace qdnn::serve {

// One queued admission: the request plus the scheduler bookkeeping that
// must survive until the row retires.  `tokens` is the request's warm
// output buffer, reserved to its step budget at submit() — it is swapped
// into the batch slot at admission and handed off inside the
// RequestResult at retirement, so the retire→admit slot cycle on the
// serving thread never heap-allocates.
struct PrefillJob {
  index_t id = -1;
  index_t submit_tick = 0;
  // Effective step budget (max_new_tokens, or the session's max_steps
  // when unset), resolved ONCE at submit: `tokens` is reserved to
  // exactly this, and the slot decodes to exactly this, so the warm
  // buffer can never fall short of the budget mid-tick.
  index_t budget = 0;
  Request request;
  std::vector<index_t> tokens;  // reserved at submit, empty until decode
  // Observability timestamps (obs::now_ns; 0 = this request was not
  // trace-sampled).  submit_ns is stamped by the scheduler; the prefill
  // window is stamped by whichever thread runs the prefill — a pool
  // worker, or the serving thread for a zero-worker pool.
  long long submit_ns = 0;
  long long prefill_start_ns = 0;
  long long prefill_end_ns = 0;
  // Trace sampling: decided ONCE at submit (every Nth request while
  // tracing — obs::trace_sample()), so a sampled request's lifecycle
  // timeline and phase timestamps are complete and the rest keep the
  // one-relaxed-load fast path at every per-request record site.
  bool sampled = false;
  // Preemption replay (PR 10): set when this job is a row the scheduler
  // evicted under KV-page pressure and requeued.  `tokens` then holds
  // everything decoded so far; at re-admission the scheduler replays
  // them through the session — feeding, never sampling (no Rng draws,
  // no streaming, no appends) — which rebuilds the row's KV state
  // bit-identically, then decoding resumes from `resume_rng` exactly
  // where it stopped.  The carried stamps keep the result's admission /
  // first-token accounting at the ORIGINAL values, so a preempted
  // request's result differs from the unpreempted run only in
  // finish_tick.
  bool resume = false;
  Rng resume_rng{0};
  index_t resume_admit_tick = -1;
  index_t resume_first_token_tick = -1;
  long long resume_admit_ns = 0;
  long long resume_first_token_ns = 0;
  long long resume_prefill_ns = 0;
};

class PrefillPool {
 public:
  // A finished prefill: the job plus the staging slot holding its
  // projected K/V.  `error` is set instead when the worker threw — the
  // job (and its id) is preserved so the caller can resolve it.
  struct Finished {
    PrefillJob job;
    index_t slot = -1;
    std::exception_ptr error;
  };

  // `workers` >= 0 threads compute over `slots` >= 1 preallocated staging
  // slots (a job waits queued until a slot frees); 0 workers = the
  // inline pool, driven through run_inline only.  The session reference
  // must outlive the pool.  `trace` (optional, must outlive the pool) is
  // where workers record prefill_start/prefill_end events; the scheduler
  // passes its own per-shard ring so pool events interleave with the
  // serving thread's timeline.
  PrefillPool(runtime::DecodeSession& session, index_t workers,
              index_t slots, obs::TraceRing* trace = nullptr);
  ~PrefillPool();

  PrefillPool(const PrefillPool&) = delete;
  PrefillPool& operator=(const PrefillPool&) = delete;

  // Enqueues a job (allocates: queue growth — the submit edge allocates
  // by contract, like BatchScheduler::submit).
  void submit(PrefillJob job);

  // Zero-worker pools only: computes `job` on the calling thread into a
  // free staging slot and hands it back in `out`, exactly as try_take
  // would (a failure arrives in out.error, never thrown).  The caller
  // must release(out.slot) afterwards.  Zero heap allocations once the
  // slot is warm.
  void run_inline(PrefillJob&& job, Finished& out);

  // Non-blocking: moves the oldest finished prefill into `out` and
  // returns true, or returns false when none is ready.  Never throws;
  // a worker failure arrives in out.error with the job intact.  Performs
  // no heap allocation.  The caller must release(out.slot) once the
  // staging has been committed (or the error handled).
  bool try_take(Finished& out);

  // Non-blocking: takes the oldest finished prefill matching `pred` (any
  // position in the finished queue) or returns false.  The scheduler
  // uses this to drain doomed prefills — errored, cancelled mid-compute,
  // or past their deadline — unconditionally: resolving them needs no
  // batch row, so they must not queue behind the free-row gate holding
  // their staging slot hostage.  `pred` runs under the pool lock; keep
  // it trivial and never call back into the pool.
  template <class Pred>
  bool try_take_if(Pred&& pred, Finished& out) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = finished_.begin(); it != finished_.end(); ++it) {
      if (!pred(static_cast<const Finished&>(*it))) continue;
      out = std::move(*it);
      finished_.erase(it);
      --pending_;
      return true;
    }
    return false;
  }

  // Blocks until a finished prefill is ready for try_take (returns
  // immediately when one already is, or when nothing is pending at all).
  // The alternative — spinning ticks or yield loops while the only
  // outstanding work is prefill compute — burns the serving core the
  // workers need.
  void wait_ready() const;

  // Invariant-check support (BatchScheduler::check_invariants): blocks
  // until no worker is mid-prefill, then calls check(ids, staged) while
  // holding the pool lock, so no worker starts a prefill (or takes a
  // prefix-page reference) until it returns.  `ids` lists every job
  // inside the pool; `staged` the prefix pages its finished slots hold,
  // one entry per reference.  `check` must not call back into the pool.
  // Allocates; never call it on the tick path.
  template <class F>
  void inspect_quiescent(F&& check) const {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] {
      return pending_ ==
             static_cast<index_t>(queue_.size() + finished_.size());
    });
    std::vector<index_t> ids, staged;
    for (const PrefillJob& job : queue_) ids.push_back(job.id);
    for (const Finished& f : finished_) {
      ids.push_back(f.job.id);
      const std::vector<index_t>& pages =
          staging_[static_cast<std::size_t>(f.slot)].page_ids;
      staged.insert(staged.end(), pages.begin(), pages.end());
    }
    check(ids, staged);
  }

  // Staged K/V of a slot returned by try_take (valid until release).
  const runtime::PrefillStaging& staging(index_t slot) const;
  // Mutable face of the same slot, for DecodeSession::commit_row /
  // release_staged_prefix (which consume the slot's staged prefix-page
  // ownership).  Serving-thread only, between try_take and release.
  runtime::PrefillStaging& staging_mut(index_t slot);

  // Returns a slot to the free list so the next queued job can compute.
  // Performs no heap allocation.
  void release(index_t slot);

  // Jobs submitted and not yet taken (queued + computing + finished):
  // the scheduler's idle() drains this to zero.
  index_t pending() const;
  // Finished prefills awaiting try_take.
  index_t ready() const;
  index_t workers() const { return static_cast<index_t>(workers_.size()); }
  index_t slots() const { return static_cast<index_t>(staging_.size()); }

 private:
  void worker_loop();
  // The prefill itself, on whichever thread owns fin.slot: probe the
  // prefix cache, else prime_compute into the slot; capture any failure
  // into fin.error; stamp the window when the job is trace-sampled.
  void prefill(Finished& fin);

  runtime::DecodeSession* session_;
  obs::TraceRing* trace_ = nullptr;  // not owned; may be null
  std::vector<runtime::PrefillStaging> staging_;
  std::vector<index_t> free_slots_;  // stack, capacity = slots
  std::deque<PrefillJob> queue_;
  std::deque<Finished> finished_;
  index_t pending_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  mutable std::condition_variable done_cv_;  // signaled per finished job
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace qdnn::serve
