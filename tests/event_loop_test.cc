// Tests for the discrete-event kernel: deadline semantics and clock
// advancement of run_until(), stable ordering of same-time events,
// clear() between repetitions, re-entrant schedule_in() from inside a
// running callback — the pattern the data plane uses for every hop — that
// running an event never copies its callback's captures, and that the
// loop's two queues (a FIFO lane and a heap) run events in the order one
// heap would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "util/rng.h"

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

// The reference: every event on one binary heap ordered by (at, seq), the
// loop as it was before the lane. Same API as EventLoop.
class HeapLoop {
 public:
  using Callback = std::function<void()>;
  SimTime now() const { return now_; }
  void schedule_at(SimTime at, Callback fn) {
    queue_.push_back(Event{std::max(at, now_), next_seq_++, std::move(fn)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }
  void schedule_in(SimTime delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  std::size_t run_until(SimTime deadline) {
    std::size_t ran = 0;
    while (!queue_.empty() && queue_.front().at <= deadline) {
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      Event e = std::move(queue_.back());
      queue_.pop_back();
      now_ = e.at;
      e.fn();
      ++ran;
    }
    if (now_ < deadline && deadline != std::numeric_limits<SimTime>::infinity()) {
      now_ = deadline;
    }
    return ran;
  }
  std::size_t run() {
    return run_until(std::numeric_limits<SimTime>::infinity());
  }
  std::size_t pending() const { return queue_.size(); }
  void clear() { queue_.clear(); }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::vector<Event> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

// What one callback saw: its event id and the clock when it ran.
struct Fired {
  int id;
  SimTime at;
  bool operator==(const Fired&) const = default;
};

// Drives `loop` through a seeded program and returns every callback run,
// plus the clock and pending count after each step. Times sit on a coarse
// grid so equal timestamps are common; batches are paced (the lane's case)
// or scrambled, some times lie in the past (clamped to now()), callbacks
// schedule children (zero, positive and negative delays), and steps mix
// run_until deadlines, clear() and a final run(). Every decision comes from
// the program's own Rng or from the event id, so two loops that run events
// in one order see one program.
template <typename Loop>
std::vector<Fired> drive(std::uint64_t seed, std::vector<double>* clocks) {
  Loop loop;
  util::Rng rng(seed);
  std::vector<Fired> log;
  int next_id = 0;
  const auto grid = [](std::uint64_t k) { return 0.25 * static_cast<double>(k); };
  std::function<void(SimTime, int)> add = [&](SimTime at, int depth) {
    const int id = next_id++;
    loop.schedule_at(at, [&, id, depth] {
      log.push_back({id, loop.now()});
      const std::uint64_t h = util::Rng::derive(seed, static_cast<std::uint64_t>(id));
      if (depth >= 3) return;
      for (std::uint64_t c = 0; c < h % 3; ++c) {
        const double delay = grid((h >> (8 + 4 * c)) % 5) - 0.25;  // -0.25 .. 0.75
        add(loop.now() + delay, depth + 1);
      }
    });
  };
  for (int step = 0; step < 60; ++step) {
    switch (rng.next_below(6)) {
      case 0:
      case 1: {  // a paced batch, like a probe round's PacketOuts
        SimTime t = loop.now() + grid(rng.next_below(4));
        if (rng.next_below(8) == 0) {
          // A long one, consumed across steps while later events join.
          for (int i = 0; i < 3000; ++i) add(t + 1e-3 * i, 0);
          break;
        }
        const int n = 1 + static_cast<int>(rng.next_below(40));
        for (int i = 0; i < n; ++i) {
          add(t, 0);
          t += grid(rng.next_below(2));  // equal times now and then
        }
        break;
      }
      case 2: {  // scrambled times, some in the past
        const int n = 1 + static_cast<int>(rng.next_below(20));
        for (int i = 0; i < n; ++i) {
          add(loop.now() + grid(rng.next_below(12)) - 1.0, 0);
        }
        break;
      }
      case 3:
      case 4:
        loop.run_until(loop.now() + grid(rng.next_below(10)));
        break;
      default:
        if (rng.next_below(4) == 0) loop.clear();
        break;
    }
    clocks->push_back(loop.now());
    clocks->push_back(static_cast<double>(loop.pending()));
  }
  loop.run();
  clocks->push_back(loop.now());
  return log;
}

TEST(EventLoop, LaneAndHeapRunEventsInOneHeapsOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::vector<double> clocks, ref_clocks;
    const std::vector<Fired> got = drive<EventLoop>(seed, &clocks);
    const std::vector<Fired> want = drive<HeapLoop>(seed, &ref_clocks);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(clocks, ref_clocks) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sdnprobe::sim
