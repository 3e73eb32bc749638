// Discrete-event simulation kernel. The data-plane simulator schedules packet
// deliveries and the prober schedules probe injections / timeouts on this
// loop; detection-delay results (Fig. 8) are read off the simulated clock.
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

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

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

  // A binary min-heap on (at, seq) kept with std::push_heap/pop_heap, so
  // run_until can move the earliest event out instead of copying it (and
  // every capture of its callback) the way std::priority_queue::top() must.
  std::vector<Event> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sdnprobe::sim
