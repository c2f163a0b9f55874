// Tests for BATE traffic scheduling (Sec 3.3): the Fig 2 motivating example
// as an acceptance test, capacity/feasibility behaviour, pruning
// monotonicity, hard-repair, the per-pattern capability precompute,
// property checks over random workloads, and the basis carried across
// chained admitted-set rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/scheduling.h"
#include "scenario/pattern.h"
#include "solver/simplex.h"
#include "topology/catalog.h"
#include "topology/generator.h"
#include "util/rng.h"
#include "workload/demand_gen.h"
#include "workload/sla.h"
#include "workload/traffic_matrix.h"

namespace bate {
namespace {

Demand make_demand(DemandId id, int pair, double mbps, double beta) {
  Demand d;
  d.id = id;
  d.pairs = {{pair, mbps}};
  d.availability_target = beta;
  d.charge = mbps;
  return d;
}

struct Toy4Fixture {
  Topology topo = toy4();
  TunnelCatalog catalog =
      TunnelCatalog::build(topo, std::vector<SdPair>{{0, 3}}, 2);
  // Tunnel order: KSP returns both 2-hop paths; identify which is which.
  int via_dc2 = -1;  // e1,e2 path (availability ~0.96)
  int via_dc3 = -1;  // e3,e4 path (availability ~0.999)

  Toy4Fixture() {
    const auto& tunnels = catalog.tunnels(0);
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      if (tunnels[t].uses(topo.find_link(0, 1))) via_dc2 = static_cast<int>(t);
      if (tunnels[t].uses(topo.find_link(0, 2))) via_dc3 = static_cast<int>(t);
    }
  }
};

TEST(Scheduling, Fig2MotivatingExample) {
  Toy4Fixture fx;
  ASSERT_GE(fx.via_dc2, 0);
  ASSERT_GE(fx.via_dc3, 0);

  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  // user1: 6 Gbps at 99 %; user2: 12 Gbps at 90 %.
  const std::vector<Demand> demands = {make_demand(0, 0, 6000.0, 0.99),
                                       make_demand(1, 0, 12000.0, 0.90)};
  const ScheduleResult r = scheduler.schedule(demands);
  ASSERT_TRUE(r.feasible);

  // Fig 2(d): user1 entirely on the reliable path via DC3; user2 10G via
  // DC2 + 2G via DC3. Availability targets must hold in the HARD sense.
  const double a1 = scheduler.achieved_availability(demands[0], r.alloc[0]);
  const double a2 = scheduler.achieved_availability(demands[1], r.alloc[1]);
  EXPECT_GE(a1 + 1e-9, 0.99) << "user1 availability " << a1;
  EXPECT_GE(a2 + 1e-9, 0.90) << "user2 availability " << a2;

  // user1 gets its 6G on the DC3 path (the only way to reach 99 %).
  EXPECT_NEAR(r.alloc[0][0][static_cast<std::size_t>(fx.via_dc3)], 6000.0,
              1.0);
  EXPECT_NEAR(r.alloc[0][0][static_cast<std::size_t>(fx.via_dc2)], 0.0, 1.0);
  // user2 must span both paths for its 12G (the paper's Fig 2d shows
  // 10G + 2G; any split summing to 12G with both paths in use is an
  // equivalent optimum of the LP).
  const double u2_dc2 = r.alloc[1][0][static_cast<std::size_t>(fx.via_dc2)];
  const double u2_dc3 = r.alloc[1][0][static_cast<std::size_t>(fx.via_dc3)];
  EXPECT_NEAR(u2_dc2 + u2_dc3, 12000.0, 1.0);
  EXPECT_GE(u2_dc2, 2000.0 - 1.0);  // DC3 path can spare at most 4G
  EXPECT_LE(u2_dc3, 4000.0 + 1.0);
  // Total allocation matches the paper's 18G (no overprovisioning).
  EXPECT_NEAR(r.total_allocated_mbps, 18000.0, 2.0);
}

TEST(Scheduling, InfeasibleWhenCapacityExceeded) {
  Toy4Fixture fx;
  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  const std::vector<Demand> demands = {make_demand(0, 0, 25000.0, 0.5)};
  const ScheduleResult r = scheduler.schedule(demands);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
}

TEST(Scheduling, InfeasibleWhenAvailabilityUnreachable) {
  Toy4Fixture fx;
  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  // 99.9999% target: even both paths together only reach ~0.99994.
  const std::vector<Demand> demands = {make_demand(0, 0, 100.0, 0.999999)};
  const ScheduleResult r = scheduler.schedule(demands);
  EXPECT_FALSE(r.feasible);
}

TEST(Scheduling, BestEffortDemandGetsBandwidthOnly) {
  Toy4Fixture fx;
  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  const std::vector<Demand> demands = {make_demand(0, 0, 5000.0, 0.0)};
  const ScheduleResult r = scheduler.schedule(demands);
  ASSERT_TRUE(r.feasible);
  double total = 0.0;
  for (double f : r.alloc[0][0]) total += f;
  EXPECT_GE(total, 5000.0 - 1.0);
}

TEST(Scheduling, RespectsCapacityOverride) {
  Toy4Fixture fx;
  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  std::vector<double> residual(static_cast<std::size_t>(fx.topo.link_count()),
                               1000.0);
  const std::vector<Demand> demands = {make_demand(0, 0, 1500.0, 0.5)};
  const ScheduleResult r = scheduler.schedule(demands, residual);
  ASSERT_TRUE(r.feasible);  // 1500 fits across two 1000-capacity paths
  const auto usage =
      link_usage(fx.topo, fx.catalog, demands, r.alloc);
  for (LinkId e = 0; e < fx.topo.link_count(); ++e) {
    EXPECT_LE(usage[static_cast<std::size_t>(e)], 1000.0 + 1e-6);
  }
}

TEST(Scheduling, HardRepairClosesRelaxationGap) {
  Toy4Fixture fx;
  // Without the reliability tie-break and repair, the LP may split user1
  // across both paths and violate the hard guarantee.
  SchedulerConfig loose;
  loose.reliability_epsilon = 0.0;
  loose.hard_repair = false;
  SchedulerConfig strict;  // defaults: tie-break + repair on

  const std::vector<Demand> demands = {make_demand(0, 0, 6000.0, 0.99)};
  TrafficScheduler strict_sched(fx.topo, fx.catalog, strict);
  const ScheduleResult r = strict_sched.schedule(demands);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(strict_sched.achieved_availability(demands[0], r.alloc[0]) + 1e-9,
            0.99);
}

TEST(Scheduling, PrunedAllocatesNoLessThanExact) {
  // Pruning treats the residual as unqualified, so the pruned LP must
  // allocate at least as much bandwidth as the exact one (Fig 16's loss).
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build(
      topo, std::vector<SdPair>{{0, 2}, {0, 3}, {0, 4}}, 4);
  std::vector<Demand> demands = {make_demand(0, 0, 400.0, 0.995),
                                 make_demand(1, 1, 300.0, 0.999),
                                 make_demand(2, 2, 500.0, 0.95)};

  SchedulerConfig exact_cfg;
  exact_cfg.exact = true;
  SchedulerConfig pruned_cfg;
  pruned_cfg.max_failures = 1;

  TrafficScheduler exact_s(topo, catalog, exact_cfg);
  TrafficScheduler pruned_s(topo, catalog, pruned_cfg);
  const auto exact_r = exact_s.schedule(demands);
  const auto pruned_r = pruned_s.schedule(demands);
  ASSERT_TRUE(exact_r.feasible);
  ASSERT_TRUE(pruned_r.feasible);
  EXPECT_GE(pruned_r.total_allocated_mbps + 1e-6,
            exact_r.total_allocated_mbps);
}

TEST(Scheduling, MultiPairDemand) {
  const Topology topo = testbed6();
  const auto catalog =
      TunnelCatalog::build(topo, std::vector<SdPair>{{0, 2}, {0, 4}}, 3);
  Demand d;
  d.id = 0;
  d.pairs = {{0, 300.0}, {1, 200.0}};
  d.availability_target = 0.99;
  TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  const std::vector<Demand> demands = {d};
  const ScheduleResult r = scheduler.schedule(demands);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.alloc[0].size(), 2u);
  double p0 = 0.0;
  double p1 = 0.0;
  for (double f : r.alloc[0][0]) p0 += f;
  for (double f : r.alloc[0][1]) p1 += f;
  EXPECT_GE(p0, 300.0 - 1e-3);
  EXPECT_GE(p1, 200.0 - 1e-3);
  EXPECT_GE(scheduler.achieved_availability(d, r.alloc[0]) + 1e-9, 0.99);
}

TEST(Scheduling, ThrowsOnUnknownPair) {
  Toy4Fixture fx;
  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  const std::vector<Demand> demands = {make_demand(0, 7, 100.0, 0.9)};
  EXPECT_THROW(scheduler.schedule(demands), std::out_of_range);
}

// Property sweep: on random workloads the schedule must satisfy capacity
// and deliver full bandwidth for every demand; hard availability must meet
// the target whenever the LP+repair report feasibility and repair succeeds.
class SchedulingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SchedulingProperty, CapacityAndBandwidthInvariants) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);

  WorkloadConfig wcfg;
  wcfg.arrival_rate_per_min = 1.0;
  wcfg.horizon_min = 10.0;
  wcfg.mean_duration_min = 20.0;
  wcfg.bw_min_mbps = 10.0;
  wcfg.bw_max_mbps = 60.0;
  wcfg.seed = 3000 + static_cast<std::uint64_t>(GetParam());
  auto demands = generate_demands(catalog, wcfg);
  if (demands.size() > 10) demands.resize(10);
  if (demands.empty()) GTEST_SKIP();

  TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  const ScheduleResult r = scheduler.schedule(demands);
  if (!r.feasible) GTEST_SKIP();  // availability targets can be unreachable

  const auto usage = link_usage(topo, catalog, demands, r.alloc);
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    EXPECT_LE(usage[static_cast<std::size_t>(e)],
              topo.link(e).capacity + 1e-4);
  }
  for (std::size_t i = 0; i < demands.size(); ++i) {
    for (std::size_t p = 0; p < demands[i].pairs.size(); ++p) {
      double total = 0.0;
      for (double f : r.alloc[i][p]) total += f;
      EXPECT_GE(total + 1e-4, demands[i].pairs[p].mbps)
          << "demand " << i << " pair " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulingProperty, ::testing::Range(0, 10));

/// Max total flow the up tunnels of `pattern` carry against full link
/// capacities, from a model holding only those tunnels.
double max_flow_from_scratch(const Topology& topo,
                             const std::vector<Tunnel>& tunnels,
                             PatternMask pattern) {
  Model m;
  m.set_sense(Sense::kMaximize);
  std::vector<int> up;
  for (std::size_t t = 0; t < tunnels.size(); ++t) {
    if ((pattern >> t) & 1u) {
      up.push_back(static_cast<int>(t));
      m.add_variable(0.0, kInfinity, 1.0);
    }
  }
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    std::vector<Term> row;
    for (std::size_t v = 0; v < up.size(); ++v) {
      if (tunnels[static_cast<std::size_t>(up[v])].uses(e)) {
        row.push_back({static_cast<int>(v), 1.0});
      }
    }
    if (!row.empty()) {
      m.add_constraint(std::move(row), Relation::kLessEqual,
                       topo.link(e).capacity);
    }
  }
  const Solution sol = solve_lp(m);
  EXPECT_EQ(sol.status, SolveStatus::kOptimal);
  return sol.objective;
}

TEST(Scheduling, PatternCapabilitiesMatchFromScratchMaxFlow) {
  for (const Topology& topo : {testbed6(), b4()}) {
    const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
    std::vector<PatternDistribution> dists;
    for (int p = 0; p < catalog.pair_count(); ++p) {
      dists.push_back(pruned_patterns(topo, catalog.tunnels(p), 3));
    }
    const auto cap =
        precompute_pattern_capabilities(topo, catalog, dists, SimplexOptions{});
    ASSERT_EQ(cap.size(), dists.size());
    int solved = 0;
    for (int p = 0; p < catalog.pair_count(); ++p) {
      const auto& tunnels = catalog.tunnels(p);
      const auto& row = cap[static_cast<std::size_t>(p)];
      const auto& prob = dists[static_cast<std::size_t>(p)].prob;
      ASSERT_EQ(row.size(), prob.size()) << "pair " << p;
      EXPECT_EQ(row[0], 0.0) << "pair " << p;
      for (PatternMask s = 1; s < prob.size(); ++s) {
        if (prob[s] <= 0.0) {
          EXPECT_EQ(row[s], -1.0) << "pair " << p << " pattern " << s;
          continue;
        }
        const double want = max_flow_from_scratch(topo, tunnels, s);
        EXPECT_LE(std::abs(row[s] - want) / std::max(1.0, want), 1e-6)
            << "pair " << p << " pattern " << s;
        ++solved;
      }
    }
    EXPECT_GT(solved, 0);
  }
}

// --- Basis carried across admitted-set rounds (ScheduleBasisCache) ---

/// Seeded B4 demand stream: pair by gravity-matrix volume, rate = entry /
/// 40, Table-1 availability class (best-effort included).
class B4Stream {
 public:
  explicit B4Stream(std::uint64_t seed)
      : catalog_(TunnelCatalog::build_all_pairs(topo_, 4)),
        scheduler_(topo_, catalog_, SchedulerConfig{}),
        rng_(seed) {
    const TrafficMatrix tm = generate_traffic_matrices(topo_, 1)[0];
    for (const SdPair& p : catalog_.pairs()) {
      weights_.push_back(tm[static_cast<std::size_t>(p.src)]
                           [static_cast<std::size_t>(p.dst)]);
    }
  }

  /// The next demand whose LP is feasible on its own (admission would
  /// reject the others, and one of them makes every set infeasible).
  Demand next() {
    while (true) {
      const std::size_t pair = rng_.weighted_index(weights_);
      const auto& targets = b4_targets();
      const double beta =
          targets[static_cast<std::size_t>(rng_.uniform_int(
                      0, static_cast<int>(targets.size()) - 1))]
              .availability;
      const Demand d = make_demand(next_id_++, static_cast<int>(pair),
                                   weights_[pair] / 40.0, beta);
      if (scheduler_.schedule(std::span<const Demand>(&d, 1)).feasible) {
        return d;
      }
    }
  }
  Rng& rng() { return rng_; }
  const Topology& topo() const { return topo_; }
  const TunnelCatalog& catalog() const { return catalog_; }
  const TrafficScheduler& scheduler() const { return scheduler_; }

 private:
  Topology topo_ = b4();
  TunnelCatalog catalog_;
  TrafficScheduler scheduler_;
  Rng rng_;
  std::vector<double> weights_;
  DemandId next_id_ = 0;
};

/// A cold, unchained solve of the same set without the hard-repair pass:
/// the LP objective a carried round must reach.
ScheduleResult cold_lp(const B4Stream& s, const std::vector<Demand>& set) {
  SchedulerConfig cfg;
  cfg.hard_repair = false;
  const TrafficScheduler cold(s.topo(), s.catalog(), cfg);
  return cold.schedule(set);
}

void expect_same_lp_objective(const ScheduleResult& got,
                              const ScheduleResult& want, const char* when) {
  ASSERT_EQ(got.feasible, want.feasible) << when;
  if (!want.feasible) return;
  EXPECT_LE(std::abs(got.lp_objective - want.lp_objective),
            1e-9 * std::max(1.0, std::abs(want.lp_objective)))
      << when << ": carried " << got.lp_objective << " cold "
      << want.lp_objective;
}

/// Link capacity and row (1) coverage of a round's final allocation.
void expect_capacity_and_coverage(const B4Stream& s,
                                  const std::vector<Demand>& set,
                                  const ScheduleResult& r) {
  const auto usage = link_usage(s.topo(), s.catalog(), set, r.alloc);
  for (LinkId e = 0; e < s.topo().link_count(); ++e) {
    EXPECT_LE(usage[static_cast<std::size_t>(e)],
              s.topo().link(e).capacity * (1.0 + 1e-6) + 1e-6)
        << "link " << e;
  }
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t p = 0; p < set[i].pairs.size(); ++p) {
      double total = 0.0;
      for (const double f : r.alloc[i][p]) total += f;
      EXPECT_GE(total, set[i].pairs[p].mbps * (1.0 - 1e-6) - 1e-6)
          << "demand " << set[i].id << " pair " << p;
    }
  }
}

class CarriedChain : public ::testing::TestWithParam<int> {};

// The live loop's round sequence: withdrawals, a round, a batch of
// arrivals, a round. Every round after the first restarts from the carried
// basis, reaches the cold LP objective, and yields an allocation within
// link capacity that covers every request.
TEST_P(CarriedChain, EveryRoundWarmWithColdObjective) {
  B4Stream s(static_cast<std::uint64_t>(GetParam()));
  std::vector<Demand> set;
  for (int i = 0; i < 16; ++i) set.push_back(s.next());
  ScheduleBasisCache cache;
  int rounds = 0;
  int feasible = 0;
  const auto round = [&](const char* when) {
    const ScheduleResult r = s.scheduler().schedule(set, {}, &cache);
    if (rounds > 0) {
      EXPECT_TRUE(cache.lp.used) << when << " round " << rounds;
    }
    ++rounds;
    expect_same_lp_objective(r, cold_lp(s, set), when);
    if (!r.feasible) return;
    ++feasible;
    expect_capacity_and_coverage(s, set, r);
  };
  round("first");
  for (int step = 0; step < 25; ++step) {
    const int leave = s.rng().uniform_int(1, 3);
    for (int k = 0; k < leave && !set.empty(); ++k) {
      set.erase(set.begin() +
                s.rng().uniform_int(0, static_cast<int>(set.size()) - 1));
    }
    round("after withdrawals");
    const int arrive = s.rng().uniform_int(1, 3);
    for (int k = 0; k < arrive; ++k) set.push_back(s.next());
    round("after arrivals");
  }
  EXPECT_EQ(rounds, 51);
  // The chain must exercise optimal rounds, not only infeasible ones.
  EXPECT_GE(feasible, rounds / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CarriedChain, ::testing::Range(1, 7));

TEST(CarriedBasis, SetReplacedCompletely) {
  B4Stream s(11);
  std::vector<Demand> first;
  std::vector<Demand> second;
  for (int i = 0; i < 12; ++i) first.push_back(s.next());
  for (int i = 0; i < 12; ++i) second.push_back(s.next());
  ScheduleBasisCache cache;
  s.scheduler().schedule(first, {}, &cache);
  const ScheduleResult r = s.scheduler().schedule(second, {}, &cache);
  EXPECT_TRUE(cache.lp.used);
  expect_same_lp_objective(r, cold_lp(s, second), "replaced set");
}

TEST(CarriedBasis, EmptySetThenNonEmpty) {
  B4Stream s(12);
  std::vector<Demand> set;
  ScheduleBasisCache cache;
  const ScheduleResult empty = s.scheduler().schedule(set, {}, &cache);
  EXPECT_TRUE(empty.feasible);
  EXPECT_TRUE(cache.lp.basis.empty());
  for (int i = 0; i < 12; ++i) set.push_back(s.next());
  // No basis to carry: this round solves cold, the next one warm.
  const ScheduleResult first = s.scheduler().schedule(set, {}, &cache);
  EXPECT_FALSE(cache.lp.used);
  expect_same_lp_objective(first, cold_lp(s, set), "first non-empty round");
  set.push_back(s.next());
  const ScheduleResult second = s.scheduler().schedule(set, {}, &cache);
  EXPECT_TRUE(cache.lp.used);
  expect_same_lp_objective(second, cold_lp(s, set), "second round");
}

TEST(CarriedBasis, DemandReadmittedWithDifferentPairs) {
  B4Stream s(13);
  std::vector<Demand> set;
  for (int i = 0; i < 12; ++i) set.push_back(s.next());
  ScheduleBasisCache cache;
  s.scheduler().schedule(set, {}, &cache);
  // Same id, new pair list: the old rows and columns of that id that still
  // match a key describe different constraints now.
  Demand& d = set[3];
  const int old_pair = d.pairs[0].pair;
  const int pairs = s.catalog().pair_count();
  d.pairs = {{(old_pair + 7) % pairs, d.pairs[0].mbps},
             {(old_pair + 11) % pairs, d.pairs[0].mbps / 2.0}};
  const ScheduleResult r = s.scheduler().schedule(set, {}, &cache);
  EXPECT_TRUE(cache.lp.used);
  expect_same_lp_objective(r, cold_lp(s, set), "re-admitted id");
}

TEST(CarriedBasis, SameSizeDifferentSetIsMatchedByIdentity) {
  B4Stream s(14);
  std::vector<Demand> set;
  for (int i = 0; i < 12; ++i) set.push_back(s.next());
  SchedulerConfig cfg;
  cfg.hard_repair = false;
  const TrafficScheduler scheduler(s.topo(), s.catalog(), cfg);
  ScheduleBasisCache cache;
  const ScheduleResult before = scheduler.schedule(set, {}, &cache);
  ASSERT_TRUE(before.feasible);
  // Same size and the same LP shape, every demand at a new position: a
  // basis reused by shape would hand each demand another demand's
  // statuses. Carried by identity, the optimal basis is restarted as is.
  std::rotate(set.begin(), set.begin() + 5, set.end());
  const ScheduleResult rotated = scheduler.schedule(set, {}, &cache);
  EXPECT_TRUE(cache.lp.used);
  EXPECT_EQ(rotated.lp_pivots, 0);
  expect_same_lp_objective(rotated, cold_lp(s, set), "rotated set");
  // Swap one demand for a newcomer on the same pair, at the other end.
  Demand swapped = set.front();
  set.erase(set.begin());
  swapped.id = 1000;
  set.push_back(swapped);
  const ScheduleResult r = scheduler.schedule(set, {}, &cache);
  EXPECT_TRUE(cache.lp.used);
  expect_same_lp_objective(r, cold_lp(s, set), "swapped demand");
  EXPECT_LT(r.lp_pivots, cold_lp(s, set).lp_pivots);
}

}  // namespace
}  // namespace bate
