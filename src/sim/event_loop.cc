#include "sim/event_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace sdnprobe::sim {
namespace {
// The lane drops its consumed prefix once it is this long and at least
// half the lane, so an always-busy lane stays O(1) amortized per event.
constexpr std::size_t kLaneCompactAt = 1024;
}  // namespace

void EventLoop::schedule_at(SimTime at, Callback fn) {
  if (at < now_) at = now_;
  if (lane_head_ == lane_.size() || at >= lane_.back().at) {
    lane_.push_back(Event{at, next_seq_++, std::move(fn)});
    return;
  }
  heap_.push_back(Event{at, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventLoop::lane_is_next() const {
  return lane_head_ < lane_.size() &&
         (heap_.empty() || Later{}(heap_.front(), lane_[lane_head_]));
}

EventLoop::Event EventLoop::pop_next() {
  if (!lane_is_next()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }
  Event e = std::move(lane_[lane_head_++]);
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  } else if (lane_head_ >= kLaneCompactAt && 2 * lane_head_ >= lane_.size()) {
    lane_.erase(lane_.begin(),
                lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
  return e;
}

std::size_t EventLoop::run() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

std::size_t EventLoop::run_until(SimTime deadline) {
  std::size_t ran = 0;
  while (!empty() &&
         (lane_is_next() ? lane_[lane_head_] : heap_.front()).at <= deadline) {
    // Move out before running: the callback may schedule new events.
    Event e = pop_next();
    now_ = e.at;
    e.fn();
    ++ran;
  }
  if (now_ < deadline && deadline != std::numeric_limits<SimTime>::infinity()) {
    now_ = deadline;
  }
  return ran;
}

void EventLoop::clear() {
  heap_.clear();
  lane_.clear();
  lane_head_ = 0;
}

}  // namespace sdnprobe::sim
