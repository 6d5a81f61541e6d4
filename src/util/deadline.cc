#include "util/deadline.h"

#include "util/fault_injector.h"

namespace mbta {

const char* ToString(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kWorkBudget:
      return "work_budget";
    case StopReason::kWallClock:
      return "wall_clock";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

DeadlineGate::DeadlineGate(const DeadlineBudget& budget,
                           FaultInjector* faults,
                           const std::atomic<bool>* cancel)
    : budget_(budget), faults_(faults), cancel_(cancel) {
  if (budget_.max_wall_ms > 0.0) {
    clock_ = budget_.clock != nullptr ? budget_.clock
                                      : &SteadyClock::Instance();
    start_ms_ = clock_->NowMs();
  }
}

bool DeadlineGate::Poll() {
  if (cancel_ != nullptr && cancel_->load(std::memory_order_acquire)) {
    reason_ = StopReason::kCancelled;
    return true;
  }
  if (clock_ != nullptr &&
      clock_->NowMs() - start_ms_ >= budget_.max_wall_ms) {
    reason_ = StopReason::kWallClock;
    return true;
  }
  return false;
}

bool DeadlineGate::Charge(std::uint64_t n) {
  if (expired()) return true;
  // Tested here so the unarmed hot path skips building the point name.
  if (faults_ != nullptr) MaybeFail(faults_, "solver/step");
  if (budget_.max_work != DeadlineBudget::kUnlimitedWork &&
      n > budget_.max_work - work_used_) {
    reason_ = StopReason::kWorkBudget;
    return true;
  }
  // Poll the expensive signals sparsely; charge 0 (an explicit
  // checkpoint with no work attached) always polls.
  if (charges_++ % kPollInterval == 0 || n == 0) {
    if (Poll()) return true;
  }
  work_used_ += n;
  return false;
}

}  // namespace mbta
