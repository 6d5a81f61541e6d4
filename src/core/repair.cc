#include "core/repair.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/check.h"

namespace mbta {

namespace {

/// The worker side of the marginal gain for one run of same-worker
/// candidates. Loading sorts the worker's chosen benefits once and keeps
/// the fatigue fold's running (utility, weight) before every position;
/// a candidate's benefit then goes in at its rank and only the tail is
/// folded. The sorted sequence and each IEEE operation are exactly those
/// of the from-scratch fold in MarginalGain, so the result is
/// bit-identical. (Equal benefits are interchangeable: equal nonzero
/// doubles share their bits, and a zero adds nothing to the fold
/// whatever its sign.)
class WorkerFold {
 public:
  void Load(const ObjectiveState& state, WorkerId w, bool modular,
            std::span<const double> benefit) {
    worker_ = w;
    modular_ = modular;
    sorted_.clear();
    if (modular) {
      double sum = 0.0;
      for (EdgeId we : state.WorkerEdges(w)) sum += benefit[we];
      old_ = sum;
      return;
    }
    for (EdgeId we : state.WorkerEdges(w)) sorted_.push_back(benefit[we]);
    std::sort(sorted_.begin(), sorted_.end(), std::greater<>());
    const double fatigue = state.objective().market().worker(w).fatigue;
    utility_.resize(sorted_.size() + 1);
    weight_.resize(sorted_.size() + 1);
    utility_[0] = 0.0;
    weight_[0] = 1.0;
    for (std::size_t k = 0; k < sorted_.size(); ++k) {
      utility_[k + 1] = utility_[k] + weight_[k] * sorted_[k];
      weight_[k + 1] = weight_[k] * fatigue;
    }
    old_ = utility_[sorted_.size()];
  }

  WorkerId worker() const { return worker_; }
  /// The worker's utility without the candidate.
  double old_value() const { return old_; }

  /// The worker's utility with a candidate of benefit `b` added.
  double With(double b) const {
    if (modular_) return old_ + b;
    const std::size_t m = sorted_.size();
    std::size_t r = 0;
    while (r < m && sorted_[r] >= b) ++r;
    double utility = utility_[r] + weight_[r] * b;
    for (std::size_t k = r; k < m; ++k) utility += weight_[k + 1] * sorted_[k];
    return utility;
  }

 private:
  WorkerId worker_ = 0;  // meaningful once Load has run
  bool modular_ = false;
  double old_ = 0.0;
  std::vector<double> sorted_;   // chosen benefits, descending
  std::vector<double> utility_;  // fold utility before sorted_[k]
  std::vector<double> weight_;   // fold weight before sorted_[k]
};

}  // namespace

void GreedyRefill(ObjectiveState& state, const std::vector<EdgeId>& candidates,
                  RepairStats* stats, DeadlineGate* gate,
                  std::vector<RefillEvaluation>* evaluations) {
  const MutualBenefitObjective& objective = state.objective();
  const LaborMarket& market = objective.market();
  const std::span<const double> quality = market.Qualities();
  const std::span<const double> benefit = market.WorkerBenefits();
  const std::span<const double> task_value = market.EdgeTaskValues();
  const double alpha = objective.alpha();
  const bool modular = objective.kind() == ObjectiveKind::kModular;

  for (EdgeId e : candidates) MBTA_CHECK(e < market.NumEdges());
  std::vector<EdgeId> live = candidates;
  // Requester term of each task over its chosen edges — the sum of
  // V(t)·q (modular) or the miss product (submodular) — valid for the
  // pass it is stamped with.
  std::vector<std::uint32_t> task_pass(market.NumTasks(), 0);
  std::vector<double> task_term(market.NumTasks());
  WorkerFold fold;
  for (std::uint32_t pass = 1;; ++pass) {
    double best_gain = 1e-12;
    EdgeId best_edge = kInvalidEdge;
    bool fold_loaded = false;
    std::size_t kept = 0;
    for (const EdgeId e : live) {
      if (!state.CanAdd(e)) continue;  // for the rest of this refill
      live[kept++] = e;
      if (gate != nullptr && gate->Charge()) return;
      const WorkerId w = market.EdgeWorker(e);
      const TaskId t = market.EdgeTask(e);
      if (task_pass[t] != pass) {
        double term = modular ? 0.0 : 1.0;
        for (EdgeId te : state.TaskEdges(t)) {
          if (modular) {
            term += task_value[te] * quality[te];
          } else {
            term *= 1.0 - quality[te];
          }
        }
        task_pass[t] = pass;
        task_term[t] = term;
      }
      double task_old;
      double task_plus;
      if (modular) {
        task_old = task_term[t];
        task_plus = task_term[t] + task_value[e] * quality[e];
      } else {
        task_old = task_value[e] * (1.0 - task_term[t]);
        task_plus = task_value[e] * (1.0 - task_term[t] * (1.0 - quality[e]));
      }
      if (!fold_loaded || fold.worker() != w) {
        fold.Load(state, w, modular, benefit);
        fold_loaded = true;
      }
      const double gain = alpha * (task_plus - task_old) +
                          (1.0 - alpha) * (fold.With(benefit[e]) -
                                           fold.old_value());
      if (stats != nullptr) ++stats->gain_evaluations;
      if (evaluations != nullptr) evaluations->push_back({e, gain});
      if (gain > best_gain) {
        best_gain = gain;
        best_edge = e;
      }
    }
    live.resize(kept);
    if (best_edge == kInvalidEdge) break;
    state.Add(best_edge);
    if (stats != nullptr) ++stats->edges_added;
  }
}

}  // namespace mbta
