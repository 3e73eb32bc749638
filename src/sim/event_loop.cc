#include "sim/event_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace sdnprobe::sim {

void EventLoop::schedule_at(SimTime at, Callback fn) {
  if (at < now_) at = now_;
  queue_.push_back(Event{at, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

std::size_t EventLoop::run() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

std::size_t EventLoop::run_until(SimTime deadline) {
  std::size_t ran = 0;
  while (!queue_.empty() && queue_.front().at <= deadline) {
    // Move out before running: the callback may schedule new events.
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

void EventLoop::clear() { queue_.clear(); }

}  // namespace sdnprobe::sim
