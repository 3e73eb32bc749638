#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/check.h"

namespace sdnprobe::util {
namespace {

std::atomic<ThreadPoolObserver*> g_pool_observer{nullptr};

}  // namespace

void set_thread_pool_observer(ThreadPoolObserver* observer) {
  g_pool_observer.store(observer, std::memory_order_release);
}

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
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SDNPROBE_CHECK(!stop_) << "enqueue on a ThreadPool being destroyed";
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  cv_.notify_one();
  if (ThreadPoolObserver* obs =
          g_pool_observer.load(std::memory_order_acquire)) {
    obs->on_queue_depth(depth);
  }
}

std::size_t ThreadPool::resolve_thread_count(int requested) {
  if (requested == 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::size_t>(std::max(requested, 1));
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
    if (ThreadPoolObserver* obs =
            g_pool_observer.load(std::memory_order_acquire)) {
      obs->on_task_run();
    }
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
  if (pool_) {
    pool_->enqueue(std::move(run));
  } else {
    run();
  }
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
    TaskGroup group(nullptr);
    for (std::size_t i = 0; i < count; ++i) group.spawn([&fn, i] { fn(i); });
    group.wait();
    return;
  }
  TaskGroup group(pool);
  for (std::size_t i = 0; i < count; ++i) group.spawn([&fn, i] { fn(i); });
  group.wait();
}

}  // namespace sdnprobe::util
