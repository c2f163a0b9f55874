// Failure recovery walk-through (Sec 3.4, Fig 4): backup allocations are
// pre-computed per link; when DC2->DC4 fails, traffic shifts to the
// surviving square side immediately. Also demonstrates the profit-aware
// greedy vs optimal recovery on a contended scenario.
//
// Build & run:  ./build/examples/failure_recovery_demo
#include <cstdio>

#include "core/pricing.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "topology/catalog.h"
#include "util/table.h"

using namespace bate;

namespace {

void print_allocation(const Topology& topo, const TunnelCatalog& catalog,
                      const std::vector<Demand>& demands,
                      const std::vector<Allocation>& allocs,
                      const char* title) {
  Table table({"demand", "tunnel", "rate"});
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto& tunnels = catalog.tunnels(demands[i].pairs[0].pair);
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      if (allocs[i][0][t] <= 1e-9) continue;
      table.add_row({std::to_string(demands[i].id),
                     tunnels[t].to_string(topo), fmt(allocs[i][0][t], 2)});
    }
  }
  std::printf("%s", table.to_string(title).c_str());
}

}  // namespace

int main() {
  // --- Part 1: the Fig 4 example --------------------------------------
  const Topology square = square4();
  const auto catalog =
      TunnelCatalog::build(square, std::vector<SdPair>{{0, 1}, {0, 3}}, 3);

  Demand to_dc2;
  to_dc2.id = 1;
  to_dc2.pairs = {{0, 1.0}};
  to_dc2.availability_target = 0.99;
  to_dc2.charge = 1.0;
  to_dc2.refund_fraction = 0.25;
  Demand to_dc4 = to_dc2;
  to_dc4.id = 2;
  to_dc4.pairs = {{1, 1.0}};
  const std::vector<Demand> demands = {to_dc2, to_dc4};

  // Fig 4(a)'s split allocation: each demand carries 0.5 on each of its
  // two paths.
  std::vector<Allocation> fig4a(2);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto& tunnels = catalog.tunnels(demands[i].pairs[0].pair);
    fig4a[i].resize(1);
    fig4a[i][0].assign(tunnels.size(), 0.0);
    int placed = 0;
    for (std::size_t t = 0; t < tunnels.size() && placed < 2; ++t) {
      fig4a[i][0][t] = 0.5;
      ++placed;
    }
  }
  print_allocation(square, catalog, demands, fig4a,
                   "Fig 4(a): original allocation");

  // Pre-compute backups for every loaded link (what the online scheduler
  // does each round), then fail DC2->DC4 as in the paper.
  BackupPlanner planner(square, catalog);
  planner.precompute(demands, fig4a);
  std::printf("\nbackup plans pre-computed for %zu links\n",
              planner.plan_count());

  const LinkId failed_link = square.find_link(1, 3);  // DC2->DC4
  std::printf("link %s fails!\n", square.link(failed_link).name.c_str());
  const LinkId down[] = {failed_link};
  const RecoveryResult* plan = planner.plan_for(down);
  if (plan != nullptr) {
    print_allocation(square, catalog, demands, plan->alloc,
                     "Fig 4(b): pre-computed backup allocation");
    std::printf("retained profit: %.2f of %.2f\n", plan->profit,
                full_profit(demands));
  }

  // --- Part 2: profit-aware recovery under contention ------------------
  std::printf("\n--- economically-guided recovery (testbed, L4 fails) ---\n");
  const Topology testbed = testbed6();
  const auto tcat = TunnelCatalog::build_all_pairs(testbed, 4);
  std::vector<Demand> mixed;
  const double charges[] = {900.0, 500.0, 700.0, 400.0};
  const double refunds[] = {0.10, 1.00, 0.25, 0.10};
  for (int i = 0; i < 4; ++i) {
    Demand d;
    d.id = i + 1;
    d.pairs = {{tcat.pair_index({0, 3 + (i % 2)}), 600.0}};
    d.availability_target = 0.99;
    d.charge = charges[i];
    d.refund_fraction = refunds[i];
    mixed.push_back(d);
  }
  const LinkId l4[] = {testbed_link(testbed, "L4")};
  const RecoveryResult greedy = recover_greedy(testbed, tcat, mixed, l4);
  const RecoveryResult optimal = recover_optimal(testbed, tcat, mixed, l4);
  Table cmp({"algorithm", "profit", "fraction of no-failure",
             "demands kept whole"});
  for (const auto& [name, result] :
       {std::pair<const char*, const RecoveryResult&>{"greedy (Alg 2)",
                                                      greedy},
        std::pair<const char*, const RecoveryResult&>{"optimal (MILP)",
                                                      optimal}}) {
    int whole = 0;
    for (char c : result.full_profit) whole += c != 0;
    cmp.add_row({name, fmt(result.profit, 1),
                 fmt(result.profit / full_profit(mixed), 3),
                 std::to_string(whole) + "/4"});
  }
  std::printf("%s", cmp.to_string().c_str());
  std::printf("greedy/optimal profit ratio: %.3f (2-approximation bound)\n",
              optimal.profit / std::max(greedy.profit, 1e-9));
  return 0;
}
