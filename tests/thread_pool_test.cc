// Tests for the deterministic execution layer: ThreadPool scheduling,
// parallel_for's completion and exception semantics, its contiguous block
// split and slot discipline, and reuse of one pool across many calls.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace sdnprobe::util {
namespace {

TEST(ThreadPool, RunsEveryEnqueuedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> ran{0};
  parallel_for(&pool, 100, [&ran](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ParallelForFillsEverySlotExactlyOnce) {
  // Counts around every block-split boundary: fewer indices than workers,
  // one block per index, exactly 4 blocks per worker, and one index over.
  for (const std::size_t workers : {1u, 3u, 8u}) {
    ThreadPool pool(workers);
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, workers - 1, workers,
          4 * workers, 4 * workers + 1, std::size_t{1000}}) {
      std::vector<int> slots(count, 0);
      parallel_for(&pool, count, [&](std::size_t i) { ++slots[i]; });
      EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), 0),
                static_cast<int>(count))
          << "workers=" << workers << " count=" << count;
      for (const int s : slots) {
        EXPECT_EQ(s, 1) << "workers=" << workers << " count=" << count;
      }
    }
  }
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);  // 16 blocks of 6-7 indices over 100
  // Failing indices sit in different blocks, the lowest in a middle one;
  // later blocks may fail first, but the lowest index must always surface.
  const std::vector<std::size_t> failing = {13, 29, 30, 47, 71, 95};
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> ran(100);
    try {
      parallel_for(&pool, ran.size(), [&](std::size_t i) {
        ran[i].fetch_add(1, std::memory_order_relaxed);
        for (const std::size_t f : failing) {
          if (i == f) throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "expected parallel_for to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 13");
    }
    // Every index below the lowest failure ran, each exactly once.
    for (std::size_t i = 0; i <= 13; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
  }
}

TEST(ThreadPool, WaitRethrowsLowestIndexException) {
  ThreadPool pool(4);
  // One index per block (16 indices, 16 blocks): every third index fails in
  // its own task. parallel_for waits for every block and must surface index
  // 1's failure deterministically, not whichever worker lost the race.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for(&pool, 16, [](std::size_t i) {
        if (i % 3 == 1) throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "expected parallel_for to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 1");
    }
  }
}

TEST(ThreadPool, ParallelForNullPoolRunsInline) {
  std::vector<std::size_t> order;
  parallel_for(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForPoolIsReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    parallel_for(&pool, 8, [&ran](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 8);
  }
  // After a throwing call, the pool must run the next call in full.
  EXPECT_THROW(parallel_for(&pool, 8,
                            [](std::size_t) {
                              throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  std::atomic<int> ran{0};
  parallel_for(&pool, 8, [&ran](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, SingleWorkerPreservesFifoOrder) {
  // One worker drains the blocks in the order they were enqueued, and each
  // block runs its indices in order.
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  parallel_for(&pool, 64, [&order](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace sdnprobe::util
