// Wall-clock timing for pre-computation measurements (Table II's PCT column
// and the §VIII-A per-header synthesis latency numbers).
#pragma once

#include <chrono>

namespace sdnprobe::util {

// Monotonic stopwatch. Starts on construction; restart() re-arms it.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_millis() const { return elapsed_seconds() * 1e3; }
  double elapsed_micros() const { return elapsed_seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sdnprobe::util
