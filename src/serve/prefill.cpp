#include "serve/prefill.h"

#include "linalg/gemm_backend.h"

namespace qdnn::serve {

PrefillPool::PrefillPool(runtime::DecodeSession& session, index_t workers,
                         index_t slots, obs::TraceRing* trace)
    : session_(&session), trace_(trace) {
  QDNN_CHECK(workers >= 0,
             "PrefillPool: workers must be >= 0, got " << workers);
  QDNN_CHECK(slots >= 1, "PrefillPool: slots must be >= 1, got " << slots);
  staging_.resize(static_cast<std::size_t>(slots));
  for (runtime::PrefillStaging& s : staging_) session_->init_staging(s);
  free_slots_.reserve(static_cast<std::size_t>(slots));
  for (index_t s = slots - 1; s >= 0; --s) free_slots_.push_back(s);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (index_t w = 0; w < workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

PrefillPool::~PrefillPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void PrefillPool::worker_loop() {
  // Prefill workers are the parallelism at this layer — keep the
  // row-sharded gemm pool out of their inner gemms (oversubscription
  // plus the async-vs-sync bit-identity contract).
  linalg::GemmSerialScope serial_gemm;
  for (;;) {
    Finished fin;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] {
        return stop_ || (!queue_.empty() && !free_slots_.empty());
      });
      if (stop_) return;
      fin.job = std::move(queue_.front());
      queue_.pop_front();
      fin.slot = free_slots_.back();
      free_slots_.pop_back();
    }
    prefill(fin);
    {
      std::lock_guard<std::mutex> lk(mu_);
      finished_.push_back(std::move(fin));
    }
    done_cv_.notify_all();
  }
}

void PrefillPool::run_inline(PrefillJob&& job, Finished& out) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    QDNN_CHECK(workers_.empty() && !free_slots_.empty(),
               "PrefillPool: run_inline needs a zero-worker pool with a "
               "free staging slot");
    out.slot = free_slots_.back();
    free_slots_.pop_back();
  }
  out.job = std::move(job);
  prefill(out);
}

void PrefillPool::prefill(Finished& fin) {
  PrefillJob& job = fin.job;
  fin.error = nullptr;
  // The sampling decision was made at submit: a sampled job stamps its
  // whole prefill window and ring events, the rest skip every record
  // site.  Timestamps and ring writes are all-or-nothing per job.
  // Recording is wait-free and allocation-free.
  const bool tracing = job.sampled;
  if (tracing) {
    job.prefill_start_ns = obs::now_ns();
    if (trace_ != nullptr)
      trace_->record_always(job.id, obs::TraceEvent::kPrefillStart);
  }
  try {
    // Prefix-cache probe first: a hit acquires the shared cross-K/V
    // pages into this slot (from_cache) and skips the whole encoder +
    // projection.  The cache and page pool serialize the lookup
    // internally, so any number of workers probe concurrently with each
    // other and with the serving thread's publish/evict.
    runtime::PrefillStaging& st =
        staging_[static_cast<std::size_t>(fin.slot)];
    if (!session_->prefix_lookup_into(job.request.src_ids,
                                      job.request.src_length, st)) {
      // The expensive half: encoder pass + cross-K/V projections into
      // this slot.
      session_->prime_compute(job.request.src_ids, job.request.src_length,
                              st);
    }
  } catch (...) {
    fin.error = std::current_exception();
  }
  if (tracing) {
    job.prefill_end_ns = obs::now_ns();
    if (trace_ != nullptr)
      trace_->record_always(job.id, obs::TraceEvent::kPrefillEnd);
  }
}

void PrefillPool::submit(PrefillJob job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(job));
    ++pending_;
  }
  work_cv_.notify_one();
}

bool PrefillPool::try_take(Finished& out) {
  std::lock_guard<std::mutex> lk(mu_);
  if (finished_.empty()) return false;
  out = std::move(finished_.front());
  finished_.pop_front();
  --pending_;
  return true;
}

void PrefillPool::wait_ready() const {
  std::unique_lock<std::mutex> lk(mu_);
  // pending_ == 0 guards a caller that races a take on another thread;
  // the single-consumer scheduler only waits while something is queued.
  done_cv_.wait(lk, [&] { return !finished_.empty() || pending_ == 0; });
}

const runtime::PrefillStaging& PrefillPool::staging(index_t slot) const {
  QDNN_CHECK(slot >= 0 && slot < slots(),
             "PrefillPool: slot " << slot << " outside [0, " << slots()
                                  << ")");
  return staging_[static_cast<std::size_t>(slot)];
}

runtime::PrefillStaging& PrefillPool::staging_mut(index_t slot) {
  QDNN_CHECK(slot >= 0 && slot < slots(),
             "PrefillPool: slot " << slot << " outside [0, " << slots()
                                  << ")");
  return staging_[static_cast<std::size_t>(slot)];
}

void PrefillPool::release(index_t slot) {
  QDNN_CHECK(slot >= 0 && slot < slots(),
             "PrefillPool: slot " << slot << " outside [0, " << slots()
                                  << ")");
  {
    std::lock_guard<std::mutex> lk(mu_);
    free_slots_.push_back(slot);
  }
  work_cv_.notify_one();
}

index_t PrefillPool::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_;
}

index_t PrefillPool::ready() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<index_t>(finished_.size());
}

}  // namespace qdnn::serve
