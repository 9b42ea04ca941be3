#include "core/worker_pool.h"

#include "core/check.h"

namespace qdnn::core {

WorkerPool::WorkerPool(int workers) { ensure_workers(workers); }

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::ensure_workers(int count) {
  std::lock_guard<std::mutex> lk(mu_);
  while (static_cast<int>(workers_.size()) < count)
    workers_.emplace_back([this] { worker_loop(); });
}

int WorkerPool::workers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(workers_.size());
}

bool WorkerPool::try_run(int parts, PartFn fn, void* ctx) {
  QDNN_CHECK(parts >= 1, "WorkerPool: parts must be >= 1, got " << parts);
  std::unique_lock<std::mutex> lk(mu_);
  if (busy_) return false;
  busy_ = true;
  fn_ = fn;
  ctx_ = ctx;
  parts_ = parts;
  next_part_ = 0;
  parts_done_ = 0;
  if (parts > 1 && !workers_.empty()) {
    lk.unlock();
    work_cv_.notify_all();
    lk.lock();
  }
  run_parts(lk);
  done_cv_.wait(lk, [&] { return parts_done_ == parts_; });
  std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  busy_ = false;
  lk.unlock();
  if (error) std::rethrow_exception(error);
  return true;
}

void WorkerPool::run_parts(std::unique_lock<std::mutex>& lk) {
  while (next_part_ < parts_) {
    const int part = next_part_++;
    const PartFn fn = fn_;
    void* const ctx = ctx_;
    lk.unlock();
    std::exception_ptr error;
    try {
      fn(ctx, part);
    } catch (...) {
      error = std::current_exception();
    }
    lk.lock();
    if (error && !error_) error_ = std::move(error);
    if (++parts_done_ == parts_) done_cv_.notify_all();
  }
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || next_part_ < parts_; });
    if (stop_) return;
    run_parts(lk);
  }
}

}  // namespace qdnn::core
