// Root-node cutting planes for the branch & bound of branch_bound.h:
// Gomory mixed-integer cuts read off the optimal root basis, and knapsack
// cover cuts separated on the 0-1 rows the admission model produces
// (Appendix A's availability knapsack). Both families are globally valid —
// they cut off fractional vertices of the LP relaxation but never an
// integer-feasible point — so rows accepted at the root are simply appended
// to the search model and inherited by every child re-solve.
//
// Separation is deterministic: candidate order, greedy cover construction
// and the pool's violation/parallelism filters depend only on the model,
// the basis and the fractional point, never on scheduling. cuts_test.cpp
// property-checks validity against reference-mode branch & bound optima on
// seeded random knapsack and admission instances.
#pragma once

#include <vector>

#include "solver/model.h"
#include "solver/simplex.h"

namespace bate {

/// One cutting plane over the model's structural variables:
///   sum(terms) {<=,>=} rhs.
/// `violation` is the amount by which the separating fractional point
/// breaks the cut, normalized by the coefficient L2 norm.
struct Cut {
  std::vector<Term> terms;  // sorted by var, coefficients merged
  Relation relation = Relation::kGreaterEqual;
  double rhs = 0.0;
  double violation = 0.0;
};

/// Minimum normalized violation for a cut to be worth adding; the
/// separators and the branch & bound cut pool share it.
inline constexpr double kMinCutViolation = 1e-4;

/// Gomory mixed-integer cuts from the rows of `basis` whose basic variable
/// is a fractional structural integer. `x` is the relaxation's optimal
/// point for `model` (structural values). The basis must be the one that
/// produced `x` (its row tableau is re-derived from a dense factorization
/// of the basis matrix). Rows whose source data is numerically unsuitable
/// are skipped, never emitted loose.
std::vector<Cut> separate_gomory(const Model& model, const Basis& basis,
                                 const std::vector<double>& x);

/// Knapsack cover cuts on rows all of whose variables are binary in
/// `model` (bounds {0,1}, integer). Each such row is canonicalized to
/// sum a_j y_j <= b with a_j > 0 by sign-flipping / complementing; a
/// greedy minimal cover violated at `x` is extended with every heavier
/// item and mapped back to x-space.
std::vector<Cut> separate_cover(const Model& model,
                                const std::vector<double>& x);

/// Violation / parallelism / capacity filter over accepted cuts. `add`
/// rejects (returns false) cuts below `min_violation`, near-parallel to an
/// already-accepted cut (normalized coefficient dot beyond
/// `max_parallelism`), or past the `capacity` cap.
class CutPool {
 public:
  CutPool(int capacity, double min_violation, double max_parallelism)
      : capacity_(capacity),
        min_violation_(min_violation),
        max_parallelism_(max_parallelism) {}

  bool add(Cut cut);
  const std::vector<Cut>& cuts() const { return cuts_; }
  /// Cuts accepted since the last drain (the cut-and-resolve loop appends
  /// each round's acceptances to the model and drains).
  std::vector<Cut> drain();

 private:
  int capacity_;
  double min_violation_;
  double max_parallelism_;
  std::vector<Cut> cuts_;          // all accepted (parallelism reference)
  std::vector<double> norms_;      // L2 norm per accepted cut
  std::size_t drained_ = 0;        // cuts_[0, drained_) already handed out
};

}  // namespace bate
