#ifndef MBTA_TESTS_HUNGARIAN_H_
#define MBTA_TESTS_HUNGARIAN_H_

#include <cstddef>
#include <vector>

#include "util/deadline.h"

/// Test helper: an independent assignment solver that the min-cost flow
/// tests cross-check against.

namespace mbta {

/// Result of an assignment-problem solve: row_to_col[i] is the column
/// assigned to row i, or -1 if the row is unassigned.
struct AssignmentResult {
  std::vector<int> row_to_col;
  double total = 0.0;  // total cost (min) or weight (max) of the matching
};

/// Kuhn–Munkres / Jonker–Volgenant style O(n^3) solver for the minimum-
/// cost assignment problem on an n x m cost matrix with n <= m: every row
/// is matched to a distinct column so total cost is minimized.
///
/// `cost` is row-major, cost[i*m + j].
///
/// `gate`, when non-null, is charged once per row augmentation; if it
/// trips, the remaining rows are left unassigned (row_to_col = -1) and
/// the partial matching — valid for the rows processed so far — is
/// returned. A full run matches every row.
AssignmentResult MinCostAssignment(const std::vector<double>& cost,
                                   std::size_t n, std::size_t m,
                                   DeadlineGate* gate = nullptr);

/// Maximum-weight bipartite matching with free disposal: any subset of
/// rows/columns may stay unmatched, and pairs with weight <= 0 are never
/// used. Works for any n, m. Weight matrix is row-major weight[i*m + j];
/// use 0 (or negative) for non-edges. `gate` as in MinCostAssignment.
AssignmentResult MaxWeightMatching(const std::vector<double>& weight,
                                   std::size_t n, std::size_t m,
                                   DeadlineGate* gate = nullptr);

}  // namespace mbta

#endif  // MBTA_TESTS_HUNGARIAN_H_
