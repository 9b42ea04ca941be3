// WorkerPool: the library's one fork-join pool.
//
// try_run(parts, fn) runs fn(0) … fn(parts − 1), each exactly once: the
// calling thread and the persistent workers claim part indices under one
// mutex (part counts are a thread budget or a shard count, so the lock
// is cold next to one part's work), then the caller waits for the last.
//   * A part body is a function pointer plus a context pointer, never a
//     std::function, so a steady-state call makes no heap allocation.
//   * The first exception thrown by any part, on any thread, is rethrown
//     on the caller once every part has finished.
//   * While a job is in flight (a concurrent caller, or a part calling
//     back into its own pool), try_run runs nothing and returns false;
//     the caller decides what that means.  No caller blocks on a peer.
//   * Workers are spawned only by ensure_workers, never shrink, and are
//     joined by the destructor; with none, the caller runs every part.
// Users: linalg's row-sharded gemm (one process-wide pool) and
// runtime::InferenceSession's batch shards (one pool per session).
#pragma once

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace qdnn::core {

class WorkerPool {
 public:
  // A part body: fn(ctx, part).
  using PartFn = void (*)(void* ctx, int part);

  explicit WorkerPool(int workers = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Spawns workers until `count` exist; never shrinks.
  void ensure_workers(int count);
  int workers() const;

  // Runs parts [0, parts) as described above; returns false, having run
  // nothing, when another job is in flight.
  bool try_run(int parts, PartFn fn, void* ctx);

  // Same, over a callable invoked by reference as part_fn(int).
  template <class F>
  bool try_run(int parts, F& part_fn) {
    return try_run(
        parts, [](void* ctx, int part) { (*static_cast<F*>(ctx))(part); },
        &part_fn);
  }

 private:
  void worker_loop();
  // Claims and runs parts of the current job until none is left.  `lk`
  // holds mu_ on entry and on return; it is released around each part.
  void run_parts(std::unique_lock<std::mutex>& lk);

  // mu_ guards everything below it.
  mutable std::mutex mu_;
  std::condition_variable work_cv_, done_cv_;
  bool busy_ = false;  // a job is in flight
  PartFn fn_ = nullptr;
  void* ctx_ = nullptr;
  int parts_ = 0, next_part_ = 0, parts_done_ = 0;
  std::exception_ptr error_;  // the job's first exception
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: they use every member above
};

}  // namespace qdnn::core
