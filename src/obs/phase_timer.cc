#include "obs/phase_timer.h"

namespace mbta {

void PhaseTimings::Record(std::string_view path, double ms) {
  auto it = entries_.find(path);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(path), Entry{}).first;
  }
  it->second.total_ms += ms;
  ++it->second.calls;
}

double PhaseTimings::TotalMs(std::string_view path) const {
  const auto it = entries_.find(path);
  return it == entries_.end() ? 0.0 : it->second.total_ms;
}

void PhaseTimings::Clear() {
  entries_.clear();
  stack_.clear();
}

void PhaseTimings::Merge(const PhaseTimings& other) {
  if (this == &other) return;
  const std::string prefix = stack_.empty() ? std::string() : stack_ + '/';
  for (const auto& [path, entry] : other.entries_) {
    Entry& mine = entries_[prefix + path];
    mine.total_ms += entry.total_ms;
    mine.calls += entry.calls;
  }
}

std::size_t PhaseTimings::PushLabel(std::string_view label) {
  const std::size_t parent_len = stack_.size();
  if (!stack_.empty()) stack_ += '/';
  stack_ += label;
  return parent_len;
}

void PhaseTimings::PopAndRecord(std::size_t parent_len, double ms) {
  auto it = entries_.find(stack_);
  if (it == entries_.end()) {
    it = entries_.emplace(stack_, Entry{}).first;
  }
  it->second.total_ms += ms;
  ++it->second.calls;
  stack_.resize(parent_len);
}

ScopedPhase::ScopedPhase(PhaseTimings* timings, std::string_view label)
    : timings_(timings) {
  if (timings_ == nullptr) return;
  parent_len_ = timings_->PushLabel(label);
  // The span layer rides under the phase layer: an attached Tracer turns
  // every phase into a timeline span with no call-site changes. The span
  // name is the single label; the tree structure comes from nesting
  // (depth), so the analyzer can rebuild the slash path.
  if (timings_->tracer_ != nullptr) {
    span_ = timings_->tracer_->BeginSpan(label, "phase");
  }
  start_ = Clock::now();
}

ScopedPhase::~ScopedPhase() {
  if (timings_ == nullptr) return;
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start_)
          .count();
  if (timings_->tracer_ != nullptr) timings_->tracer_->EndSpan(span_);
  timings_->PopAndRecord(parent_len_, ms);
}

}  // namespace mbta
