// Discrete-event simulation kernel. The data-plane simulator schedules packet
// deliveries and the prober schedules probe injections / timeouts on this
// loop; detection-delay results (Fig. 8) are read off the simulated clock.
//
// Events run in (time, scheduling order). They are held in two queues:
//  * a FIFO lane, which takes every event no earlier than the lane's last
//    one (a probe round's paced PacketOuts arrive this way, thousands at a
//    time, and each costs O(1));
//  * a binary min-heap on (time, seq) for every other event (mostly the
//    in-flight hops, so the heap stays as small as the packets in flight).
// The lane is sorted by (time, seq) because seq only grows, so running the
// smaller of the two heads each step yields exactly the order one heap
// holding every event would.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace sdnprobe::sim {

using SimTime = double;  // seconds of simulated time

class EventLoop {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (clamped to now()).
  // Events at equal times run in scheduling order (stable).
  void schedule_at(SimTime at, Callback fn);

  // Schedules `fn` to run `delay` seconds from now.
  void schedule_in(SimTime delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  // Runs events until the queue drains. Returns the number of events run.
  std::size_t run();

  // Runs events with time <= deadline; leaves later events queued and
  // advances the clock to min(deadline, last event time processed).
  std::size_t run_until(SimTime deadline);

  bool empty() const { return pending() == 0; }
  std::size_t pending() const {
    return heap_.size() + (lane_.size() - lane_head_);
  }

  // Drops all pending events (used between experiment repetitions).
  void clear();

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

  // Whether the earliest pending event heads the lane (else the heap).
  bool lane_is_next() const;
  // Moves the earliest pending event out (the queue must not be empty).
  Event pop_next();

  // Kept with std::push_heap/pop_heap, so run_until can move the earliest
  // event out instead of copying it (and every capture of its callback)
  // the way std::priority_queue::top() must.
  std::vector<Event> heap_;
  // The FIFO lane: lane_[lane_head_ ..] are pending, in (at, seq) order.
  std::vector<Event> lane_;
  std::size_t lane_head_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sdnprobe::sim
