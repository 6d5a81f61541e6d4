#ifndef MBTA_MARKET_TYPES_H_
#define MBTA_MARKET_TYPES_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"

namespace mbta {

using WorkerId = VertexId;
using TaskId = VertexId;

/// A skill profile: non-negative weights over a fixed set of skill
/// dimensions (dimension count is per-market). An empty vector means
/// "unskilled / no requirement" and matches everything with strength 1.
using SkillVector = std::vector<double>;

/// Cosine similarity of two skill vectors in [0, 1]; 1.0 if either is
/// empty (no requirement). Vectors must have equal dimension when both
/// are non-empty.
double SkillMatch(const SkillVector& a, const SkillVector& b);

/// A crowd worker: the left side of the bipartite labor market.
struct Worker {
  WorkerId id = 0;
  /// Maximum number of tasks this worker accepts.
  int capacity = 1;
  /// Cost (reservation wage) the worker incurs per task.
  double unit_cost = 0.0;
  /// Fatigue discount in (0, 1]: the k-th accepted task (0-indexed, ranked
  /// by benefit) contributes fatigue^k of its worker-side benefit. 1.0
  /// disables fatigue and keeps the worker-side objective modular.
  double fatigue = 1.0;
  /// Base reliability: probability of answering a perfectly matched,
  /// trivial task correctly. In [0.5, 1] for binary tasks.
  double reliability = 0.75;
  SkillVector skills;
};

/// A posted task: the right side of the market.
struct Task {
  TaskId id = 0;
  /// Number of workers the requester wants on the task (answer redundancy).
  int capacity = 1;
  /// Payment to each assigned worker.
  double payment = 0.0;
  /// Requester's value for the task being answered correctly.
  double value = 1.0;
  /// Intrinsic difficulty in [0, 1]; harder tasks depress answer quality.
  double difficulty = 0.0;
  /// Owning requester (tasks posted by the same requester share a budget
  /// in the budget-constrained problem variant). Defaults to a private
  /// requester per task.
  std::uint32_t requester = 0;
  SkillVector required_skills;
};

/// Per-edge attributes materialized when the market is built.
struct EdgeAttributes {
  /// q(w, t): probability worker w answers task t correctly.
  double quality = 0.5;
  /// wb(w, t): worker-side benefit of doing t (payment - cost + interest);
  /// non-negative by construction (irrational edges are not eligible).
  double worker_benefit = 0.0;
};

/// Parameters of the default edge model mapping (worker, task) pairs to
/// eligibility and attributes.
struct EdgeModelParams {
  /// Minimum skill match for the worker to qualify for the task.
  double skill_threshold = 0.2;
  /// Weight of the interest (skill-match) term in worker benefit.
  double interest_weight = 0.5;
};

/// The payment covers the worker's cost — the half of eligibility that
/// needs no skill match.
bool IsRational(const Worker& w, const Task& t);

/// A worker is eligible for a task iff the payment covers the worker's
/// cost and the skill match clears the threshold.
bool IsEligible(const Worker& w, const Task& t, const EdgeModelParams& p);

/// Computes quality and worker benefit for an eligible pair.
EdgeAttributes ComputeEdgeAttributes(const Worker& w, const Task& t,
                                     const EdgeModelParams& p);

/// The from-match forms of the two above, for callers that already hold
/// `match` = SkillMatch(w.skills, t.required_skills); the edge model's
/// formulas live only here.
bool IsEligible(const Worker& w, const Task& t, double match,
                const EdgeModelParams& p);
EdgeAttributes ComputeEdgeAttributes(const Worker& w, const Task& t,
                                     double match, const EdgeModelParams& p);

}  // namespace mbta

#endif  // MBTA_MARKET_TYPES_H_
