#include "common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>

namespace iim {

// One ParallelFor invocation. Workers pull block indices from `cursor`;
// the caller waits until every block has finished and every worker has
// stepped out of the job (the Job lives on the caller's stack).
struct ThreadPool::Job {
  size_t n = 0;
  size_t grain = 1;
  size_t num_blocks = 0;
  const std::function<void(size_t, size_t)>* fn = nullptr;

  std::atomic<size_t> cursor{0};     // next block to hand out
  std::atomic<size_t> remaining{0};  // blocks not yet finished

  // Lowest failing block's exception (determinism: the same block's
  // exception surfaces regardless of scheduling).
  std::mutex error_mu;
  size_t error_block = std::numeric_limits<size_t>::max();
  std::exception_ptr error;
};

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  num_threads_ = threads;
  // The calling thread participates in every ParallelFor, so spawn one
  // fewer worker than the requested width.
  workers_.reserve(threads - 1);
  for (size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RunBlocks(Job* job) {
  while (true) {
    size_t b = job->cursor.fetch_add(1, std::memory_order_relaxed);
    if (b >= job->num_blocks) return;
    size_t begin = b * job->grain;
    size_t end = std::min(begin + job->grain, job->n);
    try {
      (*job->fn)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job->error_mu);
      if (b < job->error_block) {
        job->error_block = b;
        job->error = std::current_exception();
      }
    }
    job->remaining.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  while (true) {
    Job* job = nullptr;
    std::shared_ptr<std::packaged_task<void()>> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen_generation] {
        return shutdown_ || !tasks_.empty() ||
               (job_ != nullptr && generation_ != seen_generation);
      });
      if (!tasks_.empty()) {
        // Tasks drain first — including during shutdown, so a submitted
        // background build always completes before the pool dies.
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else if (shutdown_) {
        return;
      } else {
        seen_generation = generation_;
        job = job_;
        ++active_workers_;
      }
    }
    if (task != nullptr) {
      (*task)();  // packaged_task captures exceptions into the future
      continue;
    }
    RunBlocks(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_workers_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::Prestart() {
  std::lock_guard<std::mutex> lock(mu_);
  if (workers_.empty()) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto task =
      std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> fut = task->get_future();
  Post(std::move(task));
  return fut;
}

void ThreadPool::Post(std::shared_ptr<std::packaged_task<void()>> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    // A 1-thread pool runs ParallelFor inline and owns no workers; the
    // first Submit brings one up so async tasks have a thread to run on.
    if (workers_.empty()) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
  work_cv_.notify_one();
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  size_t num_blocks = NumBlocks(n, grain);

  // Serial fast path: one thread, or nothing to share.
  if (num_threads_ == 1 || num_blocks == 1) {
    for (size_t b = 0; b < num_blocks; ++b) {
      size_t begin = b * grain;
      fn(begin, std::min(begin + grain, n));
    }
    return;
  }

  Job job;
  job.n = n;
  job.grain = grain;
  job.num_blocks = num_blocks;
  job.fn = &fn;
  job.remaining.store(num_blocks, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();

  RunBlocks(&job);

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this, &job] {
      return active_workers_ == 0 &&
             job.remaining.load(std::memory_order_acquire) == 0;
    });
    job_ = nullptr;
  }

  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace iim
