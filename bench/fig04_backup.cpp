// Fig 4: pre-computed backup allocations. Reproduces the square example and
// then quantifies, on the testbed topology, how often a pre-computed
// single-link backup plan preserves full profit versus naive proportional
// rescaling.
#include <cstdio>

#include "core/pricing.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "sim/experiment.h"
#include "topology/catalog.h"
#include "util/table.h"
#include "workload/demand_gen.h"
#include "workload/sla.h"

using namespace bate;

int main() {
  // The square example (allocations printed by
  // examples/failure_recovery_demo; here we verify the outcome).
  {
    const Topology square = square4();
    const auto catalog =
        TunnelCatalog::build(square, std::vector<SdPair>{{0, 1}, {0, 3}}, 3);
    std::vector<Demand> demands(2);
    demands[0].id = 1;
    demands[0].pairs = {{0, 1.0}};
    demands[0].charge = 1.0;
    demands[1].id = 2;
    demands[1].pairs = {{1, 1.0}};
    demands[1].charge = 1.0;
    const LinkId failed[] = {square.find_link(1, 3)};
    const auto rec = recover_greedy(square, catalog, demands, failed);
    std::printf("Fig 4 square: after DC2->DC4 fails, %d/2 demands kept whole "
                "(paper: 2/2)\n\n",
                static_cast<int>(rec.full_profit[0]) +
                    static_cast<int>(rec.full_profit[1]));
  }

  // Testbed: value of pre-computed backups across all single-link failures.
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});

  WorkloadConfig wl;
  wl.arrival_rate_per_min = 2.0;
  wl.horizon_min = 10.0;
  wl.mean_duration_min = 30.0;
  wl.bw_min_mbps = 50.0;
  wl.bw_max_mbps = 250.0;
  wl.services = testbed_services();
  wl.seed = 4;
  auto demands = generate_demands(catalog, wl);
  if (demands.size() > 14) demands.resize(14);
  const auto schedule = scheduler.schedule(demands);
  if (!schedule.feasible) {
    std::printf("workload infeasible (unexpected)\n");
    return 1;
  }

  BackupPlanner planner(topo, catalog);
  planner.precompute(demands, schedule.alloc);

  Table table({"failed_link", "plan_profit", "profit_fraction",
               "demands_whole"});
  const double baseline = full_profit(demands);
  double worst = 1.0;
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    const LinkId down[] = {e};
    const RecoveryResult* plan = planner.plan_for(down);
    if (plan == nullptr) continue;
    int whole = 0;
    for (char c : plan->full_profit) whole += c != 0;
    worst = std::min(worst, plan->profit / baseline);
    table.add_row({topo.link(e).name, fmt(plan->profit, 0),
                   fmt(plan->profit / baseline, 3),
                   std::to_string(whole) + "/" +
                       std::to_string(demands.size())});
  }
  std::printf("%s", table.to_string(
                        "Fig 4 (testbed): pre-computed backup plans").c_str());
  std::printf("\n%zu plans pre-computed; worst-case retained profit %.1f%%\n",
              planner.plan_count(), worst * 100.0);
  return 0;
}
