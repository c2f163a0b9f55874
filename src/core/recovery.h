// BATE failure recovery (Sec 3.4, Appendices C & D).
//
// When a failure scenario z occurs, traffic is redistributed over surviving
// tunnels to maximize retained profit sum_d r_d, where r_d = g_d when every
// pair of d still receives full bandwidth and (1 - mu_d) g_d otherwise.
// The exact problem is a MILP (NP-hard by reduction from all-or-nothing
// multicommodity flow); recover_optimal solves it by branch & bound and
// recover_greedy implements the 2-approximation of Algorithm 2. Backup
// allocations are pre-computed per single-link failure (Fig 4) so the
// controller can react immediately; BackupPlanner::plan_for picks the table
// for whatever set of links is actually down.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "routing/tunnels.h"
#include "solver/branch_bound.h"
#include "solver/model.h"
#include "topology/graph.h"
#include "workload/demand.h"

namespace bate {

struct RecoveryResult {
  /// Post-recovery allocation per demand (same shape as scheduling output);
  /// tunnels crossing failed links always carry 0.
  std::vector<Allocation> alloc;
  /// full_profit[i] != 0 iff demand i keeps full profit (all pairs whole).
  std::vector<char> full_profit;
  /// Total retained profit sum_d r_d.
  double profit = 0.0;
  bool solved = false;
};

/// Optimal recovery: the profit-maximization MILP (12), solved by branch &
/// bound. Benches and tests use it as the oracle for recover_greedy.
RecoveryResult recover_optimal(const Topology& topo,
                               const TunnelCatalog& catalog,
                               std::span<const Demand> demands,
                               std::span<const LinkId> failed_links,
                               const BranchBoundOptions& options = {});

/// The profit-maximization MILP (12) itself, without solving it. Exposed for
/// the solver microbench (bench/bench_solver.cpp), which times solve_lp on
/// its LP relaxation.
Model build_recovery_model(const Topology& topo, const TunnelCatalog& catalog,
                           std::span<const Demand> demands,
                           std::span<const LinkId> failed_links);

/// Algorithm 2: greedy 2-approximation. Demands are served whole in
/// descending profit density g_d / sum_k b^k_d; a single large demand can
/// evict the accumulated set when its charge exceeds theirs.
RecoveryResult recover_greedy(const Topology& topo,
                              const TunnelCatalog& catalog,
                              std::span<const Demand> demands,
                              std::span<const LinkId> failed_links);

/// Pre-computed backup allocations for potential failure scenarios
/// (Sec 3.4: "BATE proactively computes backup allocation strategies").
/// The paper precomputes single-link plans and notes the scheme "can be
/// easily extended to deal with concurrent failures" (fn. 6); setting
/// `concurrent_pairs > 0` additionally plans for the riskiest pairs of
/// loaded links.
///
/// plan_for() is the one failure rule: the live controller and the
/// simulator both ask it which table to enforce for the links currently
/// down (DESIGN.md Sec 9.5).
class BackupPlanner {
 public:
  BackupPlanner(const Topology& topo, const TunnelCatalog& catalog,
                int concurrent_pairs = 0)
      : topo_(&topo), catalog_(&catalog), concurrent_pairs_(concurrent_pairs) {}

  /// Computes one greedy backup plan (Algorithm 2) per loaded link, plus
  /// plans for the `concurrent_pairs` most probable loaded link pairs, and
  /// forgets the previous round's plans and miss memo.
  void precompute(std::span<const Demand> demands,
                  std::span<const Allocation> current);

  /// The table to enforce while exactly the links in `down` are down:
  ///  - the precomputed plan for the whole set, when there is one;
  ///  - else nullptr (the primary allocations stay live) when no down link
  ///    carries primary traffic;
  ///  - else recover_greedy over demands() for the whole set, kept in a
  ///    one-slot memo (the last miss) until the next precompute().
  /// A returned plan stays valid until the next precompute() or plan_for().
  const RecoveryResult* plan_for(std::span<const LinkId> down);
  std::size_t plan_count() const { return plans_.size(); }
  /// The demand set the plans were computed for (index-aligned with each
  /// plan's allocations).
  const std::vector<Demand>& demands() const { return demands_; }

 private:
  const Topology* topo_;
  const TunnelCatalog* catalog_;
  int concurrent_pairs_;
  std::vector<Demand> demands_;
  /// loaded_[e] != 0 iff link e carried primary traffic at precompute().
  std::vector<char> loaded_;
  std::map<std::vector<LinkId>, RecoveryResult> plans_;
  /// The last miss: one slot, not a per-set cache, so memory stays bounded
  /// however many distinct down sets a failure storm visits.
  std::vector<LinkId> miss_key_;
  std::optional<RecoveryResult> miss_plan_;
};

}  // namespace bate
