// LP / MILP model container.
//
// The paper solves its traffic-scheduling LP and the admission / recovery
// MILPs with Gurobi; Gurobi is not available offline, so src/solver is a
// from-scratch replacement: this model class, a bounded-variable revised
// primal simplex (simplex.h) and branch & bound (branch_bound.h). The optima
// are identical by LP duality; only absolute solve times differ, and the
// paper's timing claims are ratios that survive the solver swap (DESIGN.md
// Sec 3).
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "util/check.h"

namespace bate {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { kMinimize, kMaximize };
enum class Relation { kLessEqual, kGreaterEqual, kEqual };

/// One nonzero of a constraint row: coefficient `coef` on variable `var`.
struct Term {
  int var;
  double coef;
};

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  bool integer = false;
  std::string name;
};

struct Constraint {
  std::vector<Term> terms;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

class Model {
 public:
  /// Adds a variable; returns its index. Throws std::invalid_argument when
  /// lower > upper.
  int add_variable(double lower, double upper, double objective,
                   std::string name = "");
  /// Adds a 0/1 integer variable.
  int add_binary(double objective, std::string name = "");
  /// Marks an existing variable integral (for branch & bound).
  void set_integer(int var);

  /// Adds a constraint; duplicate vars in `terms` are accumulated.
  void add_constraint(std::vector<Term> terms, Relation rel, double rhs);

  void set_sense(Sense sense) { sense_ = sense; }
  Sense sense() const { return sense_; }

  int variable_count() const { return static_cast<int>(variables_.size()); }
  int constraint_count() const { return static_cast<int>(constraints_.size()); }
  // Hot-path accessors: the solver and the model builders index these in
  // inner loops, so bounds are a debug-build contract (BATE_DCHECK), not a
  // per-call branch + throw.
  const Variable& variable(int i) const {
    BATE_DCHECK(i >= 0 && i < variable_count());
    return variables_[static_cast<std::size_t>(i)];
  }
  Variable& variable(int i) {
    BATE_DCHECK(i >= 0 && i < variable_count());
    return variables_[static_cast<std::size_t>(i)];
  }
  const Constraint& constraint(int i) const {
    BATE_DCHECK(i >= 0 && i < constraint_count());
    return constraints_[static_cast<std::size_t>(i)];
  }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  bool has_integers() const;

  /// Evaluates a constraint row at the point x.
  double row_activity(int row, const std::vector<double>& x) const;
  /// Objective value at x, in the model's sense.
  double objective_value(const std::vector<double>& x) const;
  /// True when x satisfies all bounds and rows within tolerance.
  bool feasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  Sense sense_ = Sense::kMinimize;
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

/// Bound edit of one template variable; both bounds are replaced.
struct BoundDelta {
  int var = -1;
  double lower = 0.0;
  double upper = 0.0;
};

/// One scenario instance of a template Model: the template with these bound
/// edits applied. BATE's scenario LPs (one per availability pattern in the
/// scheduler's capability precompute) all share a template and differ only
/// in which tunnels are dead — a dead tunnel's flow variable fixed to
/// [0, 0].
struct InstanceDelta {
  std::vector<BoundDelta> bounds;
};

/// Materializes `base` with `delta` applied. Throws std::invalid_argument
/// on an out-of-range variable index, a non-finite lower bound, or
/// lower > upper, mirroring Model's own construction contract.
Model apply_delta(const Model& base, const InstanceDelta& delta);

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;        // in the model's sense
  std::vector<double> x;         // structural variable values
  /// Dual value per constraint row (LP solves only; empty from branch &
  /// bound). Sign convention: in the model's own sense, so for a
  /// minimization problem a binding >= row has a nonnegative dual. By
  /// strong duality, sum_i dual_i * rhs_i + (bound contributions) equals
  /// the objective; tests/solver_test.cpp checks the usable invariant
  /// directly.
  std::vector<double> duals;
  /// Solver work counters: simplex iterations (including bound flips) and
  /// basis-changing pivots. Accumulated across nodes for MILP solves.
  long iterations = 0;
  long pivots = 0;
  /// Pivots taken by the dual simplex (warm restarts whose basis was primal-
  /// infeasible but dual-feasible — the branch & bound child case). A subset
  /// of `pivots`; zero for cold solves and in reference mode.
  long dual_pivots = 0;
  /// Basis refactorizations (eta-file rebuilds) and partial-pricing window
  /// resets (exact reduced-cost recomputations). Zero in reference mode,
  /// which refactorizes every iteration by design.
  long refactorizations = 0;
  long pricing_resets = 0;
  /// Branch & bound nodes whose relaxation was solved (0 for plain LPs).
  long nodes = 0;
  /// Presolve work counters (solver/presolve.h): rows/columns removed from
  /// the model before the simplex saw it, and the time the reduction took.
  /// All zero when presolve was off, trivial, or in reference mode.
  int rows_removed = 0;
  int cols_removed = 0;
  long presolve_us = 0;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

const char* to_string(SolveStatus status);

}  // namespace bate
