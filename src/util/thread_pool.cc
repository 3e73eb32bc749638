#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace sdnprobe::util {
namespace {

// parallel_for's blocks per worker: enough slack that one slow block does
// not idle the other workers, few enough that per-task queue and
// std::function overhead stays negligible against per-index work.
constexpr std::size_t kBlocksPerWorker = 4;

}  // namespace

ThreadPool::ThreadPool(std::size_t worker_count) {
  if (worker_count == 0) {
    worker_count = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  SDNPROBE_CHECK(task != nullptr) << "enqueue of an empty task";
  {
    std::lock_guard<std::mutex> lock(mu_);
    SDNPROBE_CHECK(!stop_) << "enqueue on a ThreadPool being destroyed";
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void TaskGroup::spawn(std::function<void()> fn) {
  std::size_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = next_index_++;
    ++inflight_;
  }
  auto run = [this, index, fn = std::move(fn)]() {
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    finish(index, error);
  };
  pool_->enqueue(std::move(run));
}

void TaskGroup::finish(std::size_t index, std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mu_);
  SDNPROBE_DCHECK_GT(inflight_, 0u) << "finish without a matching spawn";
  if (error && (!first_error_ || index < first_error_index_)) {
    first_error_ = error;
    first_error_index_ = index;
  }
  if (--inflight_ == 0) done_cv_.notify_all();
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return inflight_ == 0; });
  // Reset for reuse; rethrow the deterministic (lowest-index) failure.
  next_index_ = 0;
  std::exception_ptr error = std::exchange(first_error_, nullptr);
  if (error) std::rethrow_exception(error);
}

void parallel_for(ThreadPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || count < 2) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Block b covers [b * base + min(b, extra), ...) with base or base + 1
  // indices, so block sizes differ by at most one and blocks stay in
  // index order (the spawn order TaskGroup ranks exceptions by).
  const std::size_t blocks =
      std::min(count, kBlocksPerWorker * pool->worker_count());
  const std::size_t base = count / blocks;
  const std::size_t extra = count % blocks;
  TaskGroup group(*pool);
  std::size_t begin = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t end = begin + base + (b < extra ? 1 : 0);
    group.spawn([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
    begin = end;
  }
  group.wait();
}

}  // namespace sdnprobe::util
