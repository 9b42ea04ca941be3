// Request/result types for the continuous-batching serving layer.
//
// A Request is one decode job: a source row plus decode policy (step
// budget, sampling head, priority class, optional deadline and streaming
// callback).  The scheduler assigns ids at submit() — or validates a
// caller-chosen id for uniqueness among in-flight requests — and returns
// RequestResults after retirement; tick counters let callers derive
// queueing delay (admit − submit), time-to-first-token (first_token −
// submit), decode time (finish − admit) and end-to-end latency (finish −
// submit) in batch-step units.
//
// Lifecycle: submit → route (serve::Server: join-shortest-queue across
// shards) → [queue, aging upward across priority classes / shed when the
// bounded queue is full] → prefill (encoder pass + cross-K/V projection,
// through the scheduler's PrefillPool: inline on the serving thread with
// 0 workers, else on a worker) → commit into a free batch row → step until
// eos/budget/cancel/deadline, streaming each token as it is sampled →
// retire.  The result's token buffer is reserved at submit and travels
// with the request through admission, so the scheduler's admit/retire
// ticks never heap-allocate (see serve/prefill.h and serve/scheduler.h).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "serve/sampling.h"

namespace qdnn::serve {

// Admission priority class: among queued requests, lower classes admit
// first.  Waiting requests age upward one class every
// BatchSchedulerConfig::age_ticks ticks, so a steady high-priority
// stream cannot starve low priority; within one effective class,
// admission is FIFO by submit order.
enum class Priority : index_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr index_t kPriorityClasses = 3;

// One streamed token, delivered to Request::on_token as it is sampled
// (not at retirement).  `index` is the 0-based position inside the
// request's output; `tick` is the scheduler tick that produced it.
struct StreamEvent {
  index_t id = -1;
  index_t token = -1;
  index_t index = 0;
  index_t tick = 0;
};

struct Request {
  // Source token ids, [Ts] or [1, Ts]; Ts must fit the session's
  // configured max_src.
  Tensor src_ids;
  // Valid (non-pad) source positions; 0 = all Ts valid.
  index_t src_length = 0;
  // Most tokens to emit; 0 = the scheduler's max_steps.  Must not exceed
  // max_steps (the self-attention ring capacity).
  index_t max_new_tokens = 0;
  // Per-request sampling head; greedy by default.
  SamplingConfig sampling;
  // Explicit request id, or -1 (default) to have the scheduler assign
  // one.  An explicit id must be unique among in-flight (unresolved)
  // requests — a duplicate is rejected at submit with a field-named
  // error; ids may be reused once their result has been produced.
  // serve::Server always assigns ids itself (globally unique, encoding
  // the shard), so callers routing through a Server leave this at -1.
  index_t id = -1;
  // Admission priority class (see Priority above).  Affects only WHEN
  // the request is admitted, never its tokens.
  Priority priority = Priority::kNormal;
  // Absolute scheduler tick by which the request must have retired; 0 =
  // no deadline.  At the start of any tick where ticks() >=
  // deadline_tick, the request resolves with FinishReason::kDeadline —
  // removed from the queue if still waiting, or retired mid-flight with
  // the tokens decoded so far, freeing its KV row for the next admit.
  index_t deadline_tick = 0;
  // Per-token streaming: invoked on the serving thread as each token is
  // sampled (eos is never delivered — it is not part of the output).
  // Keep it fast and non-blocking; under serve::Server it runs on the
  // shard's worker thread with the shard lock held, so it must not call
  // back into the Server.  Empty = no streaming.
  std::function<void(const StreamEvent&)> on_token;
};

enum class FinishReason {
  kEos,        // the model emitted eos
  kLength,     // the step budget ran out
  kError,      // prefill failed — tokens empty, error holds the cause
  kCancelled,  // cancel(id) resolved it (queued, prefilling, or mid-decode)
  kDeadline,   // deadline_tick passed before the request finished
  kShed,       // the bounded admission queue was full at submit
};

// Wall-clock phase breakdown of one request's lifecycle, derived from
// the scheduler's trace timestamps (steady-clock nanoseconds).  All
// fields are 0 when tracing (obs::trace_enabled()) was off when the
// request was submitted — the tick counters on RequestResult remain the
// always-on accounting.  For requests that never held a batch row
// (shed/error/cancelled-while-queued) only total_ns is populated.
struct RequestPhases {
  long long queue_ns = 0;        // submit → admission into a batch row
  long long prefill_ns = 0;      // the prime_compute window
  long long first_token_ns = 0;  // submit → first sampled token (0 = none)
  long long decode_ns = 0;       // admission → retirement
  long long total_ns = 0;        // submit → retirement
};

struct RequestResult {
  index_t id = -1;
  // Emitted token ids, bos/eos excluded — for a greedy request that ran
  // to eos/budget, exactly Transformer::greedy_decode of that source
  // alone.  A kCancelled/kDeadline result holds the tokens decoded so
  // far (a prefix of that solo decode for greedy requests).
  std::vector<index_t> tokens;
  FinishReason reason = FinishReason::kLength;
  // Failure description for kError/kShed (empty otherwise): a submitted
  // id is ALWAYS resolved by exactly one result — shed at submit, failed
  // on a pool worker, cancelled, expired, or decoded to completion.
  std::string error;
  Priority priority = Priority::kNormal;
  // Batch ticks this request spent decoding (== steps consumed).
  index_t decode_steps = 0;
  index_t submit_tick = 0;  // scheduler tick count at submit()
  // Tick at admission into a batch row, or -1 if the request never held
  // one (shed at submit, prefill error, cancelled or expired while
  // queued / in the pool) — mirrors first_token_tick, so queue wait
  // (admit_tick - submit_tick) is only computed for admitted requests.
  index_t admit_tick = -1;
  index_t finish_tick = 0;  // tick at retirement
  // Tick that sampled the request's first token, or -1 if none was
  // (error/shed/eos-first/cancelled-before-decode).  Time-to-first-token
  // in batch-step units is first_token_tick - submit_tick.
  index_t first_token_tick = -1;
  // Wall-clock phase durations (all zero unless tracing was enabled).
  RequestPhases phases;
};

}  // namespace qdnn::serve
