// ThreadPool: the shared parallel-execution primitive of the IIM engine.
//
// The only entry point is ParallelFor(n, grain, fn): the index range [0, n)
// is cut into fixed-size blocks of `grain` iterations and fn(begin, end) is
// invoked once per block, concurrently. The partition depends ONLY on n and
// grain — never on how many threads the pool has — so any per-block partial
// results merged in ascending block order are bit-identical whether the
// pool runs 1 thread or 64. This is what lets IndividualModels promise
// identical models and imputations for every `threads` setting.
//
// There is deliberately no work stealing and no dynamic splitting: blocks
// are handed out through a single atomic cursor in ascending order, which
// keeps the schedule cheap, cache-friendly (adjacent tuples share table
// pages) and reproducible.
//
// Exceptions thrown inside fn are captured and rethrown on the calling
// thread after all blocks finish (the exception of the lowest-numbered
// failing block wins, again for determinism).
//
// Submit(fn) is the second entry point: a detached task that runs on a
// pool worker while the caller keeps going — the primitive behind
// stream::DynamicIndex's background KD-tree rebuilds. Tasks never run on
// the calling thread; a 1-thread pool (whose ParallelFor is inline)
// lazily spawns one worker the first time Submit is called, so an async
// task always has a real thread. Queued tasks are drained, not dropped,
// at destruction.

#ifndef IIM_COMMON_THREAD_POOL_H_
#define IIM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace iim {

class ThreadPool {
 public:
  // threads == 0 picks std::thread::hardware_concurrency(); threads == 1
  // runs everything inline on the caller (no workers are spawned).
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total workers including the calling thread (>= 1).
  size_t num_threads() const { return num_threads_; }

  // Invokes fn(begin, end) for every block of the fixed partition of [0, n)
  // into ceil(n / grain) blocks of `grain` iterations (the last block may
  // be short). Blocks run concurrently on the pool plus the calling thread;
  // the call returns after every block has finished. fn must not call
  // ParallelFor on the same pool (no nesting).
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  // Runs fn asynchronously on a pool worker and returns immediately; the
  // future resolves when fn has finished (exceptionally if fn threw).
  // Tasks are served in submission order, before any waiting ParallelFor
  // job, and never on the calling thread — safe to call while holding
  // locks fn itself takes. ~ThreadPool waits for every submitted task.
  std::future<void> Submit(std::function<void()> fn);
  // Submit for a task the caller packaged itself, so it can take the
  // future first (under its own lock, say) and queue the task after
  // releasing that lock — the pool mutex and worker wake-up then stay
  // outside the caller's critical section.
  void Post(std::shared_ptr<std::packaged_task<void()>> task);

  // Ensures at least one worker thread exists, spawning it now if the
  // pool was constructed 1-wide (whose workers are otherwise lazy).
  // Lets a latency-sensitive caller pay the OS thread-creation cost at
  // setup time instead of inside its first Submit.
  void Prestart();

  // The partition ParallelFor uses, exposed so callers can pre-size
  // per-block accumulators: NumBlocks(n, grain) blocks, block b covering
  // [BlockBegin, min(BlockBegin + grain, n)).
  static size_t NumBlocks(size_t n, size_t grain) {
    if (n == 0) return 0;
    if (grain == 0) grain = 1;
    return (n + grain - 1) / grain;
  }

 private:
  struct Job;

  void WorkerLoop();
  // Runs blocks of the current job until the cursor is exhausted.
  static void RunBlocks(Job* job);

  size_t num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a job or task
  std::condition_variable done_cv_;   // caller waits for completion
  Job* job_ = nullptr;                // current job, guarded by mu_
  uint64_t generation_ = 0;           // bumps per job; stops re-entry
  size_t active_workers_ = 0;         // workers currently inside job_
  // Detached Submit tasks, drained ahead of jobs and before shutdown.
  std::deque<std::shared_ptr<std::packaged_task<void()>>> tasks_;
  bool shutdown_ = false;
};

}  // namespace iim

#endif  // IIM_COMMON_THREAD_POOL_H_
