// Tests for the discrete-event kernel: deadline semantics and clock
// advancement of run_until(), stable ordering of same-time events,
// clear() between repetitions, re-entrant schedule_in() from inside a
// running callback — the pattern the data plane uses for every hop — and
// that running an event never copies its callback's captures.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_loop.h"

namespace sdnprobe::sim {
namespace {

TEST(EventLoop, StartsAtTimeZeroAndEmpty) {
  EventLoop loop;
  EXPECT_DOUBLE_EQ(loop.now(), 0.0);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.run(), 0u);
}

TEST(EventLoop, RunExecutesInTimeOrderAndAdvancesClock) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(3.0, [&] { order.push_back(3); });
  loop.schedule_at(1.0, [&] { order.push_back(1); });
  loop.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(EventLoop, RunUntilRespectsDeadlineAndLeavesLaterEventsQueued) {
  EventLoop loop;
  std::vector<double> fired;
  for (const double t : {0.5, 1.5, 2.5, 3.5}) {
    loop.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  EXPECT_EQ(loop.run_until(2.5), 3u);  // events at 0.5, 1.5, 2.5
  EXPECT_EQ(fired, (std::vector<double>{0.5, 1.5, 2.5}));
  EXPECT_EQ(loop.pending(), 1u);  // the 3.5 event survives
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_DOUBLE_EQ(loop.now(), 3.5);
}

TEST(EventLoop, RunUntilAdvancesClockToDeadlineWithNoEvents) {
  // The localizer idles between rounds by run_until(now + grace): the clock
  // must advance to the deadline even when nothing is scheduled.
  EventLoop loop;
  EXPECT_EQ(loop.run_until(5.0), 0u);
  EXPECT_DOUBLE_EQ(loop.now(), 5.0);
  // A deadline in the past must not rewind the clock.
  EXPECT_EQ(loop.run_until(1.0), 0u);
  EXPECT_DOUBLE_EQ(loop.now(), 5.0);
}

TEST(EventLoop, SameTimeEventsRunInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    loop.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  loop.run();
  std::vector<int> expected(16);
  for (int i = 0; i < 16; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(EventLoop, ScheduleAtPastTimeIsClampedToNow) {
  EventLoop loop;
  loop.run_until(10.0);
  bool ran = false;
  loop.schedule_at(2.0, [&] { ran = true; });  // in the past
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(loop.now(), 10.0);  // clamped, not rewound
}

TEST(EventLoop, ClearDropsPendingEventsButKeepsClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1.0, [&] { ++fired; });
  loop.run();
  loop.schedule_at(2.0, [&] { ++fired; });
  loop.schedule_at(3.0, [&] { ++fired; });
  EXPECT_EQ(loop.pending(), 2u);
  loop.clear();
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.run(), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now(), 1.0);  // experiment repetitions keep the clock
  // The loop stays usable after clear().
  loop.schedule_in(0.5, [&] { ++fired; });
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(loop.now(), 1.5);
}

TEST(EventLoop, ReentrantScheduleInChainsRelativeToFiringTime) {
  // A callback scheduling the next hop relative to its own firing time is
  // how packets traverse the simulated network; delays must compound.
  EventLoop loop;
  std::vector<double> hop_times;
  std::function<void(int)> hop = [&](int remaining) {
    hop_times.push_back(loop.now());
    if (remaining > 0) {
      loop.schedule_in(0.25, [&hop, remaining] { hop(remaining - 1); });
    }
  };
  loop.schedule_at(1.0, [&hop] { hop(3); });
  EXPECT_EQ(loop.run(), 4u);
  ASSERT_EQ(hop_times.size(), 4u);
  EXPECT_DOUBLE_EQ(hop_times[0], 1.0);
  EXPECT_DOUBLE_EQ(hop_times[1], 1.25);
  EXPECT_DOUBLE_EQ(hop_times[2], 1.5);
  EXPECT_DOUBLE_EQ(hop_times[3], 1.75);
  EXPECT_DOUBLE_EQ(loop.now(), 1.75);
}

TEST(EventLoop, RunUntilWithReentrantSchedulingStopsAtDeadline) {
  // An infinite self-rescheduling chain (a heartbeat) must still respect
  // run_until's deadline instead of spinning forever.
  EventLoop loop;
  int beats = 0;
  std::function<void()> beat = [&] {
    ++beats;
    loop.schedule_in(1.0, beat);
  };
  loop.schedule_at(1.0, beat);
  loop.run_until(5.5);
  EXPECT_EQ(beats, 5);  // t = 1, 2, 3, 4, 5
  EXPECT_DOUBLE_EQ(loop.now(), 5.5);
  EXPECT_EQ(loop.pending(), 1u);  // the t=6 beat stays queued
}

// Counts copies of itself; moves are free. Stands in for the Packet (header
// and two trace vectors) that every data-plane event captures.
struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* c) : copies(c) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
  CopyCounter(CopyCounter&& o) noexcept = default;
};

TEST(EventLoop, RunningAnEventDoesNotCopyItsCallback) {
  EventLoop loop;
  int copies = 0;
  std::vector<int> order;
  // Enough events, in scrambled times, that the heap reorders them.
  for (int i = 0; i < 32; ++i) {
    const double at = static_cast<double>((i * 7) % 32);
    loop.schedule_at(at, [c = CopyCounter(&copies), &order, i] {
      (void)c;
      order.push_back(i);
    });
  }
  EXPECT_EQ(loop.run(), 32u);
  EXPECT_EQ(copies, 0);
  ASSERT_EQ(order.size(), 32u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_LT((order[k - 1] * 7) % 32, (order[k] * 7) % 32);
  }
}

}  // namespace
}  // namespace sdnprobe::sim
