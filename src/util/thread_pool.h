// Deterministic parallel execution layer.
//
// The analysis hot paths (MLPC restarts, probe-header candidate generation)
// fan read-only work out over an immutable core::AnalysisSnapshot, on a pool
// the caller builds and lends to core::MlpcSolver / core::ProbeEngine (a
// null pool means serial; no library component owns a pool). The
// contract everywhere in this repository is that parallel execution must be
// *bit-identical* to serial execution for any worker count: workers never
// share mutable state, every task writes into its own pre-assigned result
// slot, and the caller merges results in slot-index order. ThreadPool and
// parallel_for only schedule; determinism comes from that merge discipline
// plus per-task RNG streams (util::Rng::derive).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sdnprobe::util {

// Fixed-size pool of worker threads draining a FIFO task queue. The pool is
// intended to be built once by the caller and lent to every solve that can
// use it; construction cost is a few microseconds per worker. enqueue() is
// thread-safe. Tasks must not enqueue into the pool they run on and then
// block on it (no work-stealing; that would deadlock) — use parallel_for,
// which only blocks the *submitting* thread.
class ThreadPool {
 public:
  // worker_count == 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t worker_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  // Schedules a task; returns immediately. Tasks run in FIFO submission
  // order across the pool (per-task completion order is unspecified).
  void enqueue(std::function<void()> task);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Runs fn(0), fn(1), ..., fn(count - 1) and blocks until all complete.
// Serial (a plain loop in index order) when pool is null or count < 2.
// Otherwise [0, count) is split into min(count, 4 x worker_count) contiguous
// blocks, one pool task each, enqueued in index order; a block runs its
// indices in order and stops at its first exception. The lowest failing
// block holds the lowest failing index, and that index's exception is
// rethrown. Because each index writes only its own result slot, output
// never depends on the pool's worker count. The pool is reusable as soon as
// the call returns or throws.
void parallel_for(ThreadPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace sdnprobe::util
