#include "solver/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bate {

int Model::add_variable(double lower, double upper, double objective,
                        std::string name) {
  if (lower > upper) throw std::invalid_argument("Model: lower > upper");
  if (std::isnan(lower) || std::isnan(upper) || std::isnan(objective)) {
    throw std::invalid_argument("Model: NaN in variable definition");
  }
  variables_.push_back({lower, upper, objective, false, std::move(name)});
  return variable_count() - 1;
}

int Model::add_binary(double objective, std::string name) {
  const int v = add_variable(0.0, 1.0, objective, std::move(name));
  variables_.back().integer = true;
  return v;
}

void Model::set_integer(int var) {
  variables_.at(static_cast<std::size_t>(var)).integer = true;
}

void Model::add_constraint(std::vector<Term> terms, Relation rel, double rhs) {
  // Validate indices, then sort + merge duplicates in place and move the
  // vector into the row — the builders call this once per row in tight
  // loops, and the former std::map accumulator allocated a node per term.
  for (const Term& t : terms) {
    if (t.var < 0 || t.var >= variable_count()) {
      throw std::out_of_range("Model: constraint references unknown variable");
    }
  }
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < terms.size();) {
    const int var = terms[i].var;
    double coef = 0.0;
    for (; i < terms.size() && terms[i].var == var; ++i) coef += terms[i].coef;
    if (coef != 0.0) terms[out++] = {var, coef};
  }
  terms.resize(out);
  constraints_.push_back({std::move(terms), rel, rhs});
}

bool Model::has_integers() const {
  for (const Variable& v : variables_) {
    if (v.integer) return true;
  }
  return false;
}

double Model::row_activity(int row, const std::vector<double>& x) const {
  BATE_DCHECK(row >= 0 && row < constraint_count());
  BATE_DCHECK(x.size() >= variables_.size());
  const Constraint& c = constraints_[static_cast<std::size_t>(row)];
  double a = 0.0;
  for (const Term& t : c.terms) a += t.coef * x[static_cast<std::size_t>(t.var)];
  return a;
}

double Model::objective_value(const std::vector<double>& x) const {
  BATE_DCHECK(x.size() >= variables_.size());
  double obj = 0.0;
  for (int i = 0; i < variable_count(); ++i) {
    obj += variables_[static_cast<std::size_t>(i)].objective *
           x[static_cast<std::size_t>(i)];
  }
  return obj;
}

bool Model::feasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != variable_count()) return false;
  for (int i = 0; i < variable_count(); ++i) {
    const Variable& v = variables_[static_cast<std::size_t>(i)];
    const double xi = x[static_cast<std::size_t>(i)];
    if (xi < v.lower - tol || xi > v.upper + tol) return false;
  }
  for (int r = 0; r < constraint_count(); ++r) {
    const double a = row_activity(r, x);
    const Constraint& c = constraints_[static_cast<std::size_t>(r)];
    switch (c.relation) {
      case Relation::kLessEqual:
        if (a > c.rhs + tol) return false;
        break;
      case Relation::kGreaterEqual:
        if (a < c.rhs - tol) return false;
        break;
      case Relation::kEqual:
        if (std::abs(a - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

Model apply_delta(const Model& base, const InstanceDelta& delta) {
  for (const BoundDelta& b : delta.bounds) {
    if (b.var < 0 || b.var >= base.variable_count()) {
      throw std::invalid_argument("apply_delta: variable out of range");
    }
    // Same contract as add_variable / solve_lp: finite lower bound,
    // lower <= upper (NaN fails both comparisons and is rejected too).
    if (!std::isfinite(b.lower) || !(b.lower <= b.upper)) {
      throw std::invalid_argument("apply_delta: invalid bounds");
    }
  }
  Model out = base;
  for (const BoundDelta& b : delta.bounds) {
    out.variable(b.var).lower = b.lower;
    out.variable(b.var).upper = b.upper;
  }
  return out;
}

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

}  // namespace bate
