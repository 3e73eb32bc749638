// Tests for the deterministic execution layer: ThreadPool scheduling,
// TaskGroup completion/exception semantics, parallel_for's contiguous block
// split and slot discipline, and reuse of one pool across many rounds.
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
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) {
    group.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
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

TEST(ThreadPool, ParallelForNullPoolRunsInline) {
  std::vector<std::size_t> order;
  parallel_for(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, WaitRethrowsLowestIndexException) {
  ThreadPool pool(4);
  // Several tasks fail; wait() must deterministically surface the failure of
  // the lowest spawn index, not whichever worker lost the race.
  for (int round = 0; round < 20; ++round) {
    TaskGroup group(pool);
    for (int i = 0; i < 16; ++i) {
      group.spawn([i] {
        if (i % 3 == 1) {  // indices 1, 4, 7, ... fail
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
    }
    try {
      group.wait();
      FAIL() << "expected wait() to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 1");
    }
  }
}

TEST(ThreadPool, GroupIsReusableAcrossRounds) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
      group.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(ran.load(), 8);
  }
  // After an error round, the group must be clean again.
  group.spawn([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  std::atomic<int> ran{0};
  group.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  group.wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, SingleWorkerPreservesFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) {
    group.spawn([&order, i] { order.push_back(i); });
  }
  group.wait();
  std::vector<int> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace sdnprobe::util
