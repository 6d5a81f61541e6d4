#include "tests/hungarian.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace mbta {

AssignmentResult MinCostAssignment(const std::vector<double>& cost,
                                   std::size_t n, std::size_t m,
                                   DeadlineGate* gate) {
  MBTA_CHECK(n <= m);
  MBTA_CHECK(cost.size() == n * m);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // 1-indexed potentials over rows (u) and columns (v); p[j] is the row
  // matched to column j (0 = none). Classic e-maxx formulation.
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<std::size_t> p(m + 1, 0), way(m + 1, 0);

  // Budget checkpoint: one charge per row augmentation. Each completed
  // row leaves a consistent partial matching, so tripping mid-solve
  // keeps the processed rows matched and the rest unassigned.
  std::size_t rows_done = n;
  // Per-row scratch, hoisted: assign() rewrites in place, so the row loop
  // never reallocates after the first iteration (R9).
  std::vector<double> minv;
  std::vector<bool> used;
  for (std::size_t i = 1; i <= n; ++i) {
    if (gate != nullptr && gate->Charge()) {
      rows_done = i - 1;
      break;
    }
    p[0] = i;
    std::size_t j0 = 0;
    minv.assign(m + 1, kInf);
    used.assign(m + 1, false);
    do {
      used[j0] = true;
      const std::size_t i0 = p[j0];
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = cost[(i0 - 1) * m + (j - 1)] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    // Augment along the alternating path.
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.row_to_col.assign(n, -1);
  for (std::size_t j = 1; j <= m; ++j) {
    if (p[j] != 0) result.row_to_col[p[j] - 1] = static_cast<int>(j - 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Rows past the deadline cut stay unmatched; all processed rows must
    // have found a column.
    if (result.row_to_col[i] < 0) {
      MBTA_CHECK(i >= rows_done);
      continue;
    }
    result.total += cost[i * m + static_cast<std::size_t>(result.row_to_col[i])];
  }
  return result;
}

AssignmentResult MaxWeightMatching(const std::vector<double>& weight,
                                   std::size_t n, std::size_t m,
                                   DeadlineGate* gate) {
  MBTA_CHECK(weight.size() == n * m);
  // Square k x k matrix of costs = -weight, padded with zeros. A zero pad
  // cell behaves like "leave unmatched at zero gain", so free disposal
  // falls out of the perfect matching on the padded matrix.
  const std::size_t k = std::max(n, m);
  AssignmentResult result;
  result.row_to_col.assign(n, -1);
  if (k == 0) return result;
  std::vector<double> cost(k * k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      cost[i * k + j] = -std::max(weight[i * m + j], 0.0);
    }
  }
  const AssignmentResult inner = MinCostAssignment(cost, k, k, gate);
  for (std::size_t i = 0; i < n; ++i) {
    const int j = inner.row_to_col[i];
    if (j >= 0 && static_cast<std::size_t>(j) < m &&
        weight[i * m + static_cast<std::size_t>(j)] > 0.0) {
      result.row_to_col[i] = j;
      result.total += weight[i * m + static_cast<std::size_t>(j)];
    }
  }
  return result;
}

}  // namespace mbta
