#include "obs/counters.h"

namespace mbta {

void CounterRegistry::Add(std::string_view key, std::uint64_t delta) {
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    counters_.emplace(std::string(key), delta);
  } else {
    it->second += delta;
  }
}

void CounterRegistry::Set(std::string_view key, std::uint64_t value) {
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    counters_.emplace(std::string(key), value);
  } else {
    it->second = value;
  }
}

void CounterRegistry::SetGauge(std::string_view key, double value) {
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(key), value);
  } else {
    it->second = value;
  }
}

std::uint64_t CounterRegistry::Value(std::string_view key) const {
  const auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second;
}

double CounterRegistry::Gauge(std::string_view key) const {
  const auto it = gauges_.find(key);
  return it == gauges_.end() ? 0.0 : it->second;
}

bool CounterRegistry::Has(std::string_view key) const {
  return counters_.find(key) != counters_.end() ||
         gauges_.find(key) != gauges_.end();
}

void CounterRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
}

void CounterRegistry::Merge(const CounterRegistry& other) {
  if (this == &other) return;
  for (const auto& [key, value] : other.counters_) {
    auto it = counters_.find(key);
    if (it == counters_.end()) {
      counters_.emplace(key, value);
    } else {
      it->second += value;
    }
  }
  for (const auto& [key, value] : other.gauges_) {
    auto it = gauges_.find(key);
    if (it == gauges_.end()) {
      gauges_.emplace(key, value);
    } else {
      it->second = value;
    }
  }
}

}  // namespace mbta
