// Basis carry across rebuilt models.
//
// A caller that rebuilds an LP between solves (the scheduler's admitted-set
// rounds) gets columns and rows in a new order, some gone and some new. To
// restart the next solve from the previous basis, the code that builds the
// model tags every structural column and every row with an exact identity
// (ModelKey), and carry_basis() maps the old basis onto the new model by
// those identities:
//
//  * a structural column or slack whose key survives keeps its nonbasic
//    status (at lower / at upper);
//  * each surviving row keeps its old basic column when that column
//    survived, and otherwise restarts on its own slack;
//  * every new row restarts on its own slack;
//  * a slack that is already basic in another row is replaced by any free
//    slack.
//
// The result has exactly one distinct basic column per row (checked), and
// the shape of the new model, so solve_lp() accepts it as a warm start. The
// carry makes no claim that the basis is nonsingular, primal feasible or
// dual feasible: solve_lp's warm path refactorizes (evicting dependent
// columns to their slacks), repairs infeasibility with the dual simplex or
// the composite Phase 1, and falls back cold when that diverges. The
// optimal objective is therefore that of a cold solve; when the LP has
// several optimal vertices, the carried solve may end on a different one.
#pragma once

#include <cstddef>
#include <vector>

#include "solver/simplex.h"

namespace bate {

/// Identity of one structural column or one row of a rebuilt model: a kind
/// tag plus up to three integers, all chosen by the code that builds the
/// model. Columns and rows are matched only against their own kind of
/// entry, so the two may reuse tags.
struct ModelKey {
  int kind = 0;
  int a = 0;
  int b = 0;
  int c = 0;
  friend bool operator==(const ModelKey&, const ModelKey&) = default;
};

/// The keys of one model, in model order: `cols[j]` for structural column
/// j, `rows[i]` for constraint row i. Keys are meant to be unique within a
/// model; a duplicate only loses its basis entry (it restarts on its slack).
struct ModelKeys {
  std::vector<ModelKey> cols;
  std::vector<ModelKey> rows;
};

/// Maps `old_basis`, a basis of the model keyed by `old_keys`, onto the
/// model keyed by `new_keys` (rules in the header comment). Returns an empty
/// Basis — a cold start — when `old_basis` is empty or does not have the
/// shape `old_keys` describes.
Basis carry_basis(const Basis& old_basis, const ModelKeys& old_keys,
                  const ModelKeys& new_keys);

}  // namespace bate
