#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
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

void parallel_for(ThreadPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || count < 2) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Block b covers [b * base + min(b, extra), ...) with base or base + 1
  // indices, so block sizes differ by at most one and blocks stay in index
  // order. Each block owns one exception slot; after every block finished,
  // the lowest filled slot holds the lowest failing index's exception.
  const std::size_t blocks =
      std::min(count, kBlocksPerWorker * pool->worker_count());
  const std::size_t base = count / blocks;
  const std::size_t extra = count % blocks;
  std::vector<std::exception_ptr> errors(blocks);
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t inflight = blocks;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t end = begin + base + (b < extra ? 1 : 0);
    pool->enqueue([&, b, begin, end] {
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        errors[b] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--inflight == 0) done_cv.notify_all();
    });
    begin = end;
  }
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&inflight] { return inflight == 0; });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace sdnprobe::util
