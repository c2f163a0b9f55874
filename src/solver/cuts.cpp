#include "solver/cuts.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "util/check.h"

namespace bate {

namespace {

/// Gomory source rows need frac(x_B) in [kMinFraction, 1 - kMinFraction];
/// nearly-integral rows produce numerically poor cuts.
constexpr double kMinFraction = 5e-3;
/// Reject cuts whose |coef| dynamic range exceeds this (ill-conditioned).
constexpr double kMaxDynamism = 1e7;
/// Cap per separation call (most-violated first).
constexpr int kMaxCutsPerCall = 32;

std::size_t sz(int i) { return static_cast<std::size_t>(i); }

/// Dense LU with partial pivoting of the m x m basis matrix, used once per
/// Gomory separation round to re-derive tableau rows (rho = B^-T e_r). The
/// search models this runs on are presolve-reduced (a few hundred rows), so
/// the O(m^3) factorization is far below one LP re-solve.
class DenseLU {
 public:
  explicit DenseLU(int m) : m_(m), a_(sz(m) * sz(m), 0.0), piv_(sz(m), 0) {}

  double& at(int i, int j) { return a_[sz(i) * sz(m_) + sz(j)]; }
  double at(int i, int j) const { return a_[sz(i) * sz(m_) + sz(j)]; }
  bool ok() const { return ok_; }

  void factor() {
    for (int k = 0; k < m_; ++k) {
      int p = k;
      double best = std::abs(at(k, k));
      for (int i = k + 1; i < m_; ++i) {
        if (std::abs(at(i, k)) > best) {
          best = std::abs(at(i, k));
          p = i;
        }
      }
      piv_[sz(k)] = p;
      if (p != k) {
        for (int j = 0; j < m_; ++j) std::swap(at(k, j), at(p, j));
      }
      const double d = at(k, k);
      if (std::abs(d) < 1e-11) {
        ok_ = false;  // numerically singular basis snapshot: no cuts today
        return;
      }
      for (int i = k + 1; i < m_; ++i) {
        const double l = at(i, k) / d;
        at(i, k) = l;
        if (l == 0.0) continue;
        for (int j = k + 1; j < m_; ++j) at(i, j) -= l * at(k, j);
      }
    }
  }

  /// v := B^-T v. With P B = L U (row swaps recorded in piv_),
  /// B^T = U^T L^T P, so solve U^T z = v forward, L^T u = z backward, then
  /// undo the row swaps in reverse.
  void solve_transpose(std::vector<double>& v) const {
    for (int i = 0; i < m_; ++i) {
      double s = v[sz(i)];
      for (int j = 0; j < i; ++j) s -= at(j, i) * v[sz(j)];
      v[sz(i)] = s / at(i, i);
    }
    for (int i = m_ - 1; i >= 0; --i) {
      double s = v[sz(i)];
      for (int j = i + 1; j < m_; ++j) s -= at(j, i) * v[sz(j)];
      v[sz(i)] = s;
    }
    for (int k = m_ - 1; k >= 0; --k) std::swap(v[sz(k)], v[sz(piv_[sz(k)])]);
  }

 private:
  int m_;
  std::vector<double> a_;  // row-major; L below the diagonal, U on/above
  std::vector<int> piv_;
  bool ok_ = true;
};

double frac(double v) { return v - std::floor(v); }

/// Finalizes an accumulated >= cut: gathers significant coefficients,
/// conservatively absorbs negligible ones into the rhs (for a >= row a
/// dropped term c*x_j is bounded by its worst feasible value, so the cut
/// only weakens), rejects ill-conditioned rows, and scores the violation.
bool finalize_ge_cut(const Model& model, const std::vector<double>& coef,
                     double rhs, const std::vector<double>& x, Cut* out) {
  const int n = model.variable_count();
  std::vector<Term> terms;
  double max_c = 0.0, min_c = kInfinity;
  for (int j = 0; j < n; ++j) {
    const double c = coef[sz(j)];
    if (c == 0.0) continue;
    if (std::abs(c) < 1e-11) {
      const Variable& v = model.variable(j);
      const double worst = c > 0.0 ? c * v.upper : c * v.lower;
      if (!std::isfinite(worst)) return false;  // cannot drop safely
      rhs -= worst;
      continue;
    }
    terms.push_back({j, c});
    max_c = std::max(max_c, std::abs(c));
    min_c = std::min(min_c, std::abs(c));
  }
  if (terms.empty() || max_c / min_c > kMaxDynamism) return false;
  if (!std::isfinite(rhs)) return false;
  double norm = 0.0, act = 0.0;
  for (const Term& t : terms) {
    norm += t.coef * t.coef;
    act += t.coef * x[sz(t.var)];
  }
  norm = std::sqrt(norm);
  const double violation = (rhs - act) / norm;
  if (violation < kMinCutViolation) return false;
  out->terms = std::move(terms);
  out->relation = Relation::kGreaterEqual;
  out->rhs = rhs;
  out->violation = violation;
  return true;
}

/// Deterministic most-violated-first order with a structural tie-break.
void sort_and_cap(std::vector<Cut>* cuts) {
  std::sort(cuts->begin(), cuts->end(), [](const Cut& a, const Cut& b) {
    if (a.violation != b.violation) return a.violation > b.violation;
    if (a.terms.size() != b.terms.size()) return a.terms.size() < b.terms.size();
    return a.terms.front().var < b.terms.front().var;
  });
  if (static_cast<int>(cuts->size()) > kMaxCutsPerCall) {
    cuts->resize(sz(kMaxCutsPerCall));
  }
}

}  // namespace

std::vector<Cut> separate_gomory(const Model& model, const Basis& basis,
                                 const std::vector<double>& x) {
  const int m = model.constraint_count();
  const int n = model.variable_count();
  if (m == 0 || !basis.compatible_with(model) ||
      static_cast<int>(x.size()) != n) {
    return {};
  }

  // Normalized-row view, matching the simplex: >= rows flipped to <=, one
  // slack in [0, inf) per inequality row ([0, 0] for equalities).
  std::vector<double> flip(sz(m), 1.0);
  for (int i = 0; i < m; ++i) {
    if (model.constraint(i).relation == Relation::kGreaterEqual) {
      flip[sz(i)] = -1.0;
    }
  }

  // Column adjacency of the structural variables (normalized sign): each
  // entry's `var` is the row index, `coef` the flipped coefficient.
  std::vector<std::vector<Term>> cols(sz(n));
  for (int i = 0; i < m; ++i) {
    for (const Term& t : model.constraint(i).terms) {
      cols[sz(t.var)].push_back({i, flip[sz(i)] * t.coef});
    }
  }

  // Fill B column by column: structural columns carry flip * coef, slack
  // columns are unit vectors in their row.
  DenseLU lu(m);
  for (int r = 0; r < m; ++r) {
    const int col = basis.basic[sz(r)];
    if (col < n) {
      for (const Term& t : cols[sz(col)]) lu.at(t.var, r) = t.coef;
    } else {
      lu.at(col - n, r) = 1.0;
    }
  }
  lu.factor();
  if (!lu.ok()) return {};

  std::vector<double> rho(sz(m), 0.0);
  std::vector<double> coef(sz(n), 0.0);
  std::vector<Cut> out;

  for (int r = 0; r < m; ++r) {
    const int b = basis.basic[sz(r)];
    if (b >= n || !model.variable(b).integer) continue;
    const double f0 = frac(x[sz(b)]);
    if (f0 < kMinFraction || f0 > 1.0 - kMinFraction) continue;

    std::fill(rho.begin(), rho.end(), 0.0);
    rho[sz(r)] = 1.0;
    lu.solve_transpose(rho);

    std::fill(coef.begin(), coef.end(), 0.0);
    double rhs = f0;
    bool usable = true;

    // Every nonbasic column contributes gamma(alpha) in its bound-shifted
    // space; structural shifts and slack substitutions fold straight back
    // into x-space as we go.
    for (int j = 0; j < n + m && usable; ++j) {
      if (basis.status[sz(j)] == VarStatus::kBasic) continue;
      // alpha_j = rho . A_j over the normalized column; slack columns are
      // unit vectors in their row.
      double alpha;
      if (j < n) {
        alpha = 0.0;
        for (const Term& t : cols[sz(j)]) alpha += rho[sz(t.var)] * t.coef;
      } else {
        alpha = rho[sz(j - n)];
      }

      const bool is_slack = j >= n;
      double lo, hi;
      if (is_slack) {
        const Constraint& c = model.constraint(j - n);
        lo = 0.0;
        hi = c.relation == Relation::kEqual ? 0.0 : kInfinity;
      } else {
        lo = model.variable(j).lower;
        hi = model.variable(j).upper;
      }
      // Shift the nonbasic to its bound: at-upper flips the sign (slacks
      // are never meaningfully at-upper — inf upper, or fixed at 0).
      const bool at_up = !is_slack &&
                         basis.status[sz(j)] == VarStatus::kAtUpper &&
                         std::isfinite(hi) && hi != lo;
      const double shifted = at_up ? -alpha : alpha;

      bool integer_col = !is_slack && model.variable(j).integer;
      if (integer_col) {
        const double bound = at_up ? hi : lo;
        if (std::floor(bound) != bound) integer_col = false;  // keep sound
      }
      double gamma;
      if (integer_col) {
        const double fj = frac(shifted);
        gamma = fj <= f0 + 1e-12 ? fj : f0 * (1.0 - fj) / (1.0 - f0);
      } else {
        gamma = shifted >= 0.0 ? shifted : f0 * (-shifted) / (1.0 - f0);
      }
      if (gamma == 0.0) continue;
      if (!std::isfinite(gamma)) {
        usable = false;
        break;
      }

      if (is_slack) {
        // Substitute s_i = flip*rhs_i - sum flip*a_ij x_j back out.
        const int i = j - n;
        const Constraint& c = model.constraint(i);
        for (const Term& t : c.terms) {
          coef[sz(t.var)] -= gamma * flip[sz(i)] * t.coef;
        }
        rhs -= gamma * flip[sz(i)] * c.rhs;
      } else if (at_up) {
        coef[sz(j)] -= gamma;
        rhs -= gamma * hi;
      } else {
        coef[sz(j)] += gamma;
        rhs += gamma * lo;
      }
    }
    if (!usable) continue;

    Cut cut;
    if (finalize_ge_cut(model, coef, rhs, x, &cut)) {
      out.push_back(std::move(cut));
    }
  }

  sort_and_cap(&out);
  return out;
}

std::vector<Cut> separate_cover(const Model& model,
                                const std::vector<double>& x) {
  const int n = model.variable_count();
  if (static_cast<int>(x.size()) != n) return {};
  std::vector<Cut> out;

  struct Item {
    int var;
    double a;      // canonical weight (> 0)
    bool comp;     // y = 1 - x instead of y = x
    double y;      // fractional value of y at the separating point
  };

  for (int i = 0; i < model.constraint_count(); ++i) {
    const Constraint& c = model.constraint(i);
    if (c.terms.size() < 2) continue;
    bool all_binary = true;
    for (const Term& t : c.terms) {
      const Variable& v = model.variable(t.var);
      if (!v.integer || v.lower != 0.0 || v.upper != 1.0) {
        all_binary = false;
        break;
      }
    }
    if (!all_binary) continue;

    // A <=-direction knapsack per applicable relation: <= rows directly,
    // >= rows negated; equalities yield both.
    std::vector<double> dirs;
    if (c.relation != Relation::kGreaterEqual) dirs.push_back(1.0);
    if (c.relation != Relation::kLessEqual) dirs.push_back(-1.0);

    for (const double dir : dirs) {
      std::vector<Item> items;
      double b = dir * c.rhs;
      double suma = 0.0;
      for (const Term& t : c.terms) {
        double a = dir * t.coef;
        if (a == 0.0) continue;
        bool comp = false;
        if (a < 0.0) {  // complement: a*x = a - a*(1-x)
          comp = true;
          b += -a;
          a = -a;
        }
        const double y =
            std::clamp(comp ? 1.0 - x[sz(t.var)] : x[sz(t.var)], 0.0, 1.0);
        items.push_back({t.var, a, comp, y});
        suma += a;
      }
      if (items.size() < 2 || b < -1e-9 || suma <= b + 1e-9) continue;

      // Greedy cover: cheapest (1 - y) per unit weight first, so the most
      // fractional heavy items form the cover.
      std::sort(items.begin(), items.end(), [](const Item& p, const Item& q) {
        const double kp = (1.0 - p.y) / p.a;
        const double kq = (1.0 - q.y) / q.a;
        if (kp != kq) return kp < kq;
        if (p.a != q.a) return p.a > q.a;
        return p.var < q.var;
      });
      std::vector<Item> cover;
      double weight = 0.0;
      for (const Item& it : items) {
        cover.push_back(it);
        weight += it.a;
        if (weight > b + 1e-9) break;
      }
      if (weight <= b + 1e-9) continue;

      // Minimalize: dropping an item always increases the violation by
      // (1 - y) >= 0, so drop the least-fractional items while the cover
      // property survives. One pass suffices — the residual weight only
      // shrinks, so an item not removable when visited never becomes so.
      std::sort(cover.begin(), cover.end(),
                [](const Item& p, const Item& q) {
                  if (p.y != q.y) return p.y < q.y;  // largest (1-y) first
                  return p.var < q.var;
                });
      std::vector<Item> minimal;
      for (const Item& it : cover) {
        if (weight - it.a > b + 1e-9) {
          weight -= it.a;
        } else {
          minimal.push_back(it);
        }
      }

      double viol_raw = 1.0 - static_cast<double>(minimal.size());
      double amax = 0.0;
      for (const Item& it : minimal) {
        viol_raw += it.y;
        amax = std::max(amax, it.a);
      }
      if (viol_raw <= kMinCutViolation) continue;

      // Extended cover: every item at least as heavy as the heaviest cover
      // member joins the left-hand side at the same rhs.
      std::vector<Item> lhs = minimal;
      for (const Item& it : items) {
        if (it.a >= amax - 1e-12) {
          bool in_cover = false;
          for (const Item& cv : minimal) {
            if (cv.var == it.var) {
              in_cover = true;
              break;
            }
          }
          if (!in_cover) lhs.push_back(it);
        }
      }

      Cut cut;
      cut.relation = Relation::kLessEqual;
      double rhs = static_cast<double>(minimal.size()) - 1.0;
      double act = 0.0;
      for (const Item& it : lhs) {
        if (it.comp) {
          cut.terms.push_back({it.var, -1.0});
          rhs -= 1.0;
          act -= x[sz(it.var)];
        } else {
          cut.terms.push_back({it.var, 1.0});
          act += x[sz(it.var)];
        }
      }
      cut.rhs = rhs;
      std::sort(cut.terms.begin(), cut.terms.end(),
                [](const Term& p, const Term& q) { return p.var < q.var; });
      cut.violation =
          (act - rhs) / std::sqrt(static_cast<double>(cut.terms.size()));
      if (cut.violation < kMinCutViolation) continue;
      out.push_back(std::move(cut));
    }
  }

  sort_and_cap(&out);
  return out;
}

bool CutPool::add(Cut cut) {
  if (static_cast<int>(cuts_.size()) >= capacity_) return false;
  if (cut.terms.empty() || cut.violation < min_violation_) return false;
  double norm = 0.0;
  for (const Term& t : cut.terms) norm += t.coef * t.coef;
  norm = std::sqrt(norm);
  if (!(norm > 0.0) || !std::isfinite(norm)) return false;
  // Parallelism filter: sparse normalized dot against every accepted cut of
  // the same relation (terms are sorted by var).
  for (std::size_t k = 0; k < cuts_.size(); ++k) {
    if (cuts_[k].relation != cut.relation) continue;
    double dot = 0.0;
    std::size_t a = 0, b = 0;
    while (a < cut.terms.size() && b < cuts_[k].terms.size()) {
      if (cut.terms[a].var < cuts_[k].terms[b].var) {
        ++a;
      } else if (cut.terms[a].var > cuts_[k].terms[b].var) {
        ++b;
      } else {
        dot += cut.terms[a].coef * cuts_[k].terms[b].coef;
        ++a;
        ++b;
      }
    }
    if (std::abs(dot) / (norm * norms_[k]) > max_parallelism_) return false;
  }
  cuts_.push_back(std::move(cut));
  norms_.push_back(norm);
  return true;
}

std::vector<Cut> CutPool::drain() {
  std::vector<Cut> out(cuts_.begin() + static_cast<std::ptrdiff_t>(drained_),
                       cuts_.end());
  drained_ = cuts_.size();
  return out;
}

}  // namespace bate
