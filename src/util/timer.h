#ifndef MBTA_UTIL_TIMER_H_
#define MBTA_UTIL_TIMER_H_

#include <chrono>

namespace mbta {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Restart, in milliseconds.
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  // mbta-lint: taint-ok(wall-clock timing feeds observability output only, never solver decisions)
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mbta

#endif  // MBTA_UTIL_TIMER_H_
