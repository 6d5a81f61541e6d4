#include "market/types.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace mbta {

double SkillMatch(const SkillVector& a, const SkillVector& b) {
  if (a.empty() || b.empty()) return 1.0;
  MBTA_CHECK_MSG(a.size() == b.size(), "skill dims %zu vs %zu", a.size(),
                 b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  // mbta-lint: float-eq-ok(exact-zero guard against division by zero)
  if (na == 0.0 || nb == 0.0) return 0.0;
  const double sim = dot / (std::sqrt(na) * std::sqrt(nb));
  return std::clamp(sim, 0.0, 1.0);
}

bool IsRational(const Worker& w, const Task& t) {
  return !(t.payment < w.unit_cost);
}

bool IsEligible(const Worker& w, const Task& t, const EdgeModelParams& p) {
  return IsRational(w, t) &&
         IsEligible(w, t, SkillMatch(w.skills, t.required_skills), p);
}

EdgeAttributes ComputeEdgeAttributes(const Worker& w, const Task& t,
                                     const EdgeModelParams& p) {
  return ComputeEdgeAttributes(w, t, SkillMatch(w.skills, t.required_skills),
                               p);
}

bool IsEligible(const Worker& w, const Task& t, double match,
                const EdgeModelParams& p) {
  return IsRational(w, t) && match >= p.skill_threshold;
}

EdgeAttributes ComputeEdgeAttributes(const Worker& w, const Task& t,
                                     double match, const EdgeModelParams& p) {
  EdgeAttributes attr;
  // Quality: base reliability attenuated by skill mismatch and task
  // difficulty, floored at coin-flip level for binary tasks.
  const double edge = (w.reliability - 0.5) * (0.3 + 0.7 * match) *
                      (1.0 - 0.5 * t.difficulty);
  attr.quality = std::clamp(0.5 + edge, 0.5, 0.995);
  // Worker benefit: monetary surplus plus interest bonus; non-negative
  // because eligibility requires payment >= cost.
  attr.worker_benefit =
      (t.payment - w.unit_cost) + p.interest_weight * match;
  MBTA_CHECK(attr.worker_benefit >= 0.0);
  return attr;
}

}  // namespace mbta
