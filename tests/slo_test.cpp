// Tests for the availability-SLO ledger stack (src/obs/availability.h,
// src/obs/slo.h, src/obs/timeseries.h): the shared availability arithmetic
// and its equivalence with the offline simulator's per-second counters, the
// demand lifecycle state machine (degrade/recover windows, withdraw
// finalization, invalid transitions, transition-log caps), error-budget
// burn math, the ring-buffer time-series store, and registry reset
// scoping.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/availability.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "sim/metrics.h"

namespace bate::obs {
namespace {

constexpr std::int64_t kSec = 1'000'000;  // microseconds

// ---------------------------------------------------------------- shared
// availability arithmetic

TEST(Availability, IntervalSatisfiedFloor) {
  EXPECT_TRUE(interval_satisfied(1.0));
  EXPECT_TRUE(interval_satisfied(0.99));  // the paper's 1% tolerance, exact
  EXPECT_FALSE(interval_satisfied(0.9899999));
  EXPECT_FALSE(interval_satisfied(0.0));
}

TEST(Availability, RatioNeverActiveIsPerfect) {
  EXPECT_DOUBLE_EQ(availability_ratio(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(availability_ratio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(availability_ratio(0, 4), 0.0);
}

TEST(Availability, TargetMetTolerance) {
  EXPECT_TRUE(availability_target_met(0.99, 0.99));
  // Within kAvailabilityTol below the target still counts as met.
  EXPECT_TRUE(availability_target_met(0.99 - 1e-13, 0.99));
  EXPECT_FALSE(availability_target_met(0.99 - 1e-9, 0.99));
}

// The headline equivalence: one outage schedule fed through (a) the
// simulator's per-second counters and (b) the live meter's time-weighted
// transitions must produce the IDENTICAL availability double. The real
// quotients are equal (the meter's totals are the second counts scaled by
// exactly 1e6), so correctly-rounded division yields bit-equal results.
TEST(Availability, MeterMatchesSimulatorCounters) {
  // 600 active seconds, unsatisfied during [120,180) and [300,420).
  const auto unsat = [](long s) {
    return (s >= 120 && s < 180) || (s >= 300 && s < 420);
  };

  DemandOutcome outcome;
  outcome.admitted = true;
  outcome.availability_target = 0.9;
  for (long s = 0; s < 600; ++s) {
    ++outcome.active_seconds;
    if (!unsat(s)) ++outcome.satisfied_seconds;
  }
  ASSERT_EQ(outcome.active_seconds, 600);
  ASSERT_EQ(outcome.satisfied_seconds, 420);

  // Feed the meter the same schedule one second at a time (exercising the
  // same-state no-op path), starting at an arbitrary epoch.
  const std::int64_t t0 = 7 * kSec;
  AvailabilityMeter meter;
  meter.start(t0, !unsat(0));
  for (long s = 1; s < 600; ++s) meter.set_satisfied(t0 + s * kSec, !unsat(s));
  meter.finalize(t0 + 600 * kSec);

  EXPECT_EQ(meter.active_us(), 600 * kSec);
  EXPECT_EQ(meter.satisfied_us(), 420 * kSec);
  const std::int64_t end = t0 + 600 * kSec;
  // Bit-equal, not approximately equal: shared arithmetic is the contract.
  EXPECT_EQ(meter.availability_at(end), outcome.achieved_availability());
  EXPECT_EQ(availability_target_met(meter.availability_at(end), 0.9),
            outcome.target_met());
}

// ---------------------------------------------------------------- meter

TEST(AvailabilityMeter, OpenIntervalAccruesUnderCurrentState) {
  AvailabilityMeter m;
  EXPECT_FALSE(m.started());
  // Reads before start() see an inactive meter.
  EXPECT_EQ(m.active_us_at(50), 0);
  EXPECT_DOUBLE_EQ(m.availability_at(50), 1.0);

  m.start(100, true);
  EXPECT_EQ(m.active_us_at(100), 0);
  EXPECT_EQ(m.active_us_at(160), 60);
  EXPECT_EQ(m.satisfied_us_at(160), 60);

  m.set_satisfied(200, false);  // 100 satisfied us banked
  EXPECT_EQ(m.active_us(), 100);
  EXPECT_EQ(m.satisfied_us(), 100);
  EXPECT_EQ(m.satisfied_us_at(260), 100);  // open interval is unsatisfied
  EXPECT_EQ(m.unsatisfied_us_at(260), 60);
}

TEST(AvailabilityMeter, RepeatedStartIsIgnored) {
  AvailabilityMeter m;
  m.start(100, true);
  m.start(500, false);  // ignored: the clock is already running
  EXPECT_TRUE(m.satisfied());
  EXPECT_EQ(m.active_us_at(200), 100);
}

TEST(AvailabilityMeter, OutOfOrderTimestampClampsToZeroInterval) {
  AvailabilityMeter m;
  m.start(1000, true);
  m.set_satisfied(500, false);  // earlier than last seen: zero-length interval
  EXPECT_EQ(m.active_us(), 0);
  EXPECT_FALSE(m.satisfied());  // the state switch still happens
  m.finalize(1500);
  EXPECT_EQ(m.active_us(), 500);
  EXPECT_EQ(m.satisfied_us(), 0);
}

TEST(AvailabilityMeter, FinalizeFreezes) {
  AvailabilityMeter m;
  m.start(0, true);
  m.set_satisfied(300, false);
  m.finalize(400);
  EXPECT_TRUE(m.finalized());
  EXPECT_EQ(m.active_us(), 400);
  EXPECT_EQ(m.satisfied_us(), 300);
  // Neither further transitions nor the passage of time change the totals.
  m.set_satisfied(1000, true);
  m.finalize(2000);
  EXPECT_EQ(m.active_us_at(9999), 400);
  EXPECT_EQ(m.satisfied_us_at(9999), 300);
  EXPECT_DOUBLE_EQ(m.availability_at(9999), 0.75);
}

TEST(AvailabilityMeter, BudgetBurnMath) {
  // 1000s active, 30s unsatisfied, beta 0.99 => allowed 10s, burn 3.0.
  AvailabilityMeter m;
  m.start(0, true);
  m.set_satisfied(970 * kSec, false);
  m.finalize(1000 * kSec);
  const std::int64_t end = 1000 * kSec;
  EXPECT_NEAR(m.budget_burn_at(0.99, end), 3.0, 1e-9);
  // Burn rate: 3.0 burned over 1000/3600 active hours.
  EXPECT_NEAR(m.burn_per_hour_at(0.99, end), 3.0 / (1000.0 / 3600.0), 1e-6);
  // A looser promise has a bigger budget: beta 0.9 allows 100s, burn 0.3.
  EXPECT_NEAR(m.budget_burn_at(0.9, end), 0.3, 1e-9);
  // beta 1.0 allows zero downtime: any unsatisfied time is infinite burn.
  EXPECT_DOUBLE_EQ(m.budget_burn_at(1.0, end), AvailabilityMeter::kInfiniteBurn);
}

TEST(AvailabilityMeter, NoBurnWhileFullySatisfied) {
  AvailabilityMeter m;
  m.start(0, true);
  EXPECT_DOUBLE_EQ(m.budget_burn_at(1.0, 500 * kSec), 0.0);
  EXPECT_DOUBLE_EQ(m.budget_burn_at(0.99, 500 * kSec), 0.0);
  EXPECT_DOUBLE_EQ(m.burn_per_hour_at(0.99, 500 * kSec), 0.0);
}

// ---------------------------------------------------------------- ledger

TEST(SloLedger, LifecycleWindowsAccrue) {
  SloLedger ledger;
  ledger.admit(7, 3, 0.99, 0);
  EXPECT_EQ(ledger.live_demands(), 1u);
  ledger.allocate(7, 10 * kSec);
  ledger.degrade(7, 100 * kSec);
  ledger.recover(7, 130 * kSec);

  const auto snap = ledger.snapshot(200 * kSec);
  ASSERT_EQ(snap.demands.size(), 1u);
  const auto& row = snap.demands[0];
  EXPECT_EQ(row.id, 7);
  EXPECT_EQ(row.tenant, 3);
  EXPECT_DOUBLE_EQ(row.beta, 0.99);
  EXPECT_EQ(row.state, DemandState::kRecovered);
  EXPECT_EQ(row.admitted_us, 0);
  EXPECT_EQ(row.active_us, 200 * kSec);
  EXPECT_EQ(row.satisfied_us, 170 * kSec);  // 30s degraded window
  EXPECT_DOUBLE_EQ(row.availability, 170.0 / 200.0);
  // allowed = 0.01 * 200s = 2s; burned 30s => burn 15.
  EXPECT_NEAR(row.budget_burn, 15.0, 1e-9);
  EXPECT_FALSE(row.target_met);
  // admitted -> allocated -> degraded -> recovered, in order.
  ASSERT_EQ(row.transitions.size(), 4u);
  EXPECT_EQ(row.transitions[0].state, DemandState::kAdmitted);
  EXPECT_EQ(row.transitions[1].state, DemandState::kAllocated);
  EXPECT_EQ(row.transitions[2].state, DemandState::kDegraded);
  EXPECT_EQ(row.transitions[3].state, DemandState::kRecovered);
  EXPECT_EQ(row.transitions[2].t_us, 100 * kSec);
  EXPECT_EQ(row.dropped_transitions, 0);
  EXPECT_EQ(ledger.invalid_transitions(), 0);
}

TEST(SloLedger, SetSatisfiedIsEdgeTriggered) {
  SloLedger ledger;
  ledger.admit(1, 0, 0.9, 0);
  ledger.allocate(1, 0);
  // Repeating the current satisfied bit must not append transitions.
  for (int i = 1; i <= 5; ++i) ledger.set_satisfied(1, true, i * kSec);
  ledger.set_satisfied(1, false, 10 * kSec);
  for (int i = 11; i <= 15; ++i) ledger.set_satisfied(1, false, i * kSec);
  ledger.set_satisfied(1, true, 20 * kSec);

  const auto snap = ledger.snapshot(20 * kSec);
  ASSERT_EQ(snap.demands.size(), 1u);
  const auto& row = snap.demands[0];
  // admitted, allocated, degraded, recovered — nothing else.
  ASSERT_EQ(row.transitions.size(), 4u);
  EXPECT_EQ(row.satisfied_us, 10 * kSec);
  EXPECT_EQ(row.active_us, 20 * kSec);
  EXPECT_EQ(ledger.invalid_transitions(), 0);
}

TEST(SloLedger, WithdrawFreezesTheRow) {
  SloLedger ledger;
  ledger.admit(5, 1, 0.5, 0);
  ledger.degrade(5, 60 * kSec);
  ledger.withdraw(5, 100 * kSec);
  EXPECT_EQ(ledger.live_demands(), 0u);

  const auto at_withdraw = ledger.snapshot(100 * kSec);
  const auto much_later = ledger.snapshot(5000 * kSec);
  ASSERT_EQ(at_withdraw.demands.size(), 1u);
  ASSERT_EQ(much_later.demands.size(), 1u);
  EXPECT_EQ(at_withdraw.demands[0].state, DemandState::kWithdrawn);
  // Availability is frozen at finalize time; later snapshots agree exactly.
  EXPECT_EQ(much_later.demands[0].active_us, 100 * kSec);
  EXPECT_EQ(much_later.demands[0].satisfied_us, 60 * kSec);
  EXPECT_DOUBLE_EQ(at_withdraw.demands[0].availability,
                   much_later.demands[0].availability);
  EXPECT_DOUBLE_EQ(much_later.demands[0].availability, 0.6);
}

TEST(SloLedger, InvalidTransitionsAreCountedNotFatal) {
  SloLedger ledger;
  ledger.admit(1, 0, 0.9, 0);
  EXPECT_EQ(ledger.invalid_transitions(), 0);

  ledger.admit(1, 0, 0.9, kSec);     // duplicate admit
  ledger.allocate(99, kSec);         // unknown id
  // A recover while already satisfied is a duplicate report, NOT an error.
  ledger.recover(1, 2 * kSec);
  ledger.withdraw(1, 3 * kSec);      // fine (terminal)
  ledger.withdraw(1, 4 * kSec);      // already withdrawn
  ledger.degrade(1, 5 * kSec);       // withdrawn demand
  EXPECT_EQ(ledger.invalid_transitions(), 4);
  // The valid history is intact.
  const auto snap = ledger.snapshot(6 * kSec);
  ASSERT_EQ(snap.demands.size(), 1u);
  EXPECT_EQ(snap.demands[0].state, DemandState::kWithdrawn);
}

TEST(SloLedger, TransitionLogCapDropsOldest) {
  SloLedger ledger(SloLedger::Config{/*max_transitions=*/4,
                                     /*max_withdrawn=*/1024});
  ledger.admit(1, 0, 0.9, 0);
  for (int i = 1; i <= 10; ++i) {
    ledger.set_satisfied(1, i % 2 == 0, i * kSec);
  }
  const auto snap = ledger.snapshot(11 * kSec);
  ASSERT_EQ(snap.demands.size(), 1u);
  const auto& row = snap.demands[0];
  EXPECT_EQ(row.transitions.size(), 4u);
  // 11 transitions total (admit + 10 flips), 4 retained.
  EXPECT_EQ(row.dropped_transitions, 7);
  // The retained prefix is the EARLIEST history: admit + the first 3 flips.
  EXPECT_EQ(row.transitions.front().state, DemandState::kAdmitted);
  EXPECT_EQ(row.transitions.back().t_us, 3 * kSec);
  for (std::size_t i = 1; i < row.transitions.size(); ++i) {
    EXPECT_LE(row.transitions[i - 1].t_us, row.transitions[i].t_us);
  }
  // The meter is unaffected by the log cap: 5 degraded seconds
  // ([1,2),[3,4),[5,6),[7,8),[9,10)).
  EXPECT_EQ(row.active_us, 11 * kSec);
  EXPECT_EQ(row.satisfied_us, 6 * kSec);
}

TEST(SloLedger, WithdrawnRetentionCapEvictsOldest) {
  SloLedger ledger(SloLedger::Config{/*max_transitions=*/64,
                                     /*max_withdrawn=*/2});
  for (std::int64_t id = 1; id <= 3; ++id) {
    ledger.admit(id, 0, 0.9, 0);
    EXPECT_EQ(ledger.live_demands(), 1u);
    ledger.withdraw(id, id * kSec);
  }
  EXPECT_EQ(ledger.live_demands(), 0u);
  const auto snap = ledger.snapshot(10 * kSec);
  // Oldest retirement (id 1) evicted; 2 and 3 retained, sorted by id.
  ASSERT_EQ(snap.demands.size(), 2u);
  EXPECT_EQ(snap.demands[0].id, 2);
  EXPECT_EQ(snap.demands[1].id, 3);

  // The live count: a duplicate admit (of a retained withdrawn id, or of a
  // live one) and a second withdraw are invalid and leave it alone, and
  // evicting a retired row never moves it.
  ledger.admit(3, 0, 0.9, 11 * kSec);
  ledger.withdraw(3, 11 * kSec);
  EXPECT_EQ(ledger.live_demands(), 0u);
  ledger.admit(4, 0, 0.9, 12 * kSec);
  ledger.admit(4, 0, 0.9, 12 * kSec);
  ledger.admit(5, 0, 0.9, 12 * kSec);
  EXPECT_EQ(ledger.live_demands(), 2u);
  ledger.withdraw(5, 13 * kSec);  // evicts id 2
  EXPECT_EQ(ledger.live_demands(), 1u);
  EXPECT_EQ(ledger.invalid_transitions(), 3);
  const auto after = ledger.snapshot(14 * kSec);
  ASSERT_EQ(after.demands.size(), 3u);
  EXPECT_EQ(after.demands[0].id, 3);
  EXPECT_EQ(after.demands[1].id, 4);
  EXPECT_EQ(after.demands[2].id, 5);
  EXPECT_DOUBLE_EQ(
      Registry::global().gauge("bate_slo_demands_live").value(), 1.0);
}

TEST(SloLedger, TenantAggregation) {
  SloLedger ledger;
  // Tenant 1: one healthy demand, one violating (beta 0.99, 50% down).
  ledger.admit(1, 1, 0.99, 0);
  ledger.admit(2, 1, 0.99, 0);
  ledger.degrade(2, 50 * kSec);
  // Tenant 2: one healthy demand.
  ledger.admit(3, 2, 0.9, 0);

  const auto snap = ledger.snapshot(100 * kSec);
  ASSERT_EQ(snap.tenants.size(), 2u);
  const auto& t1 = snap.tenants[0];
  EXPECT_EQ(t1.tenant, 1);
  EXPECT_EQ(t1.demands, 2);
  EXPECT_EQ(t1.violating, 1);
  // Demand 2: 50s burned of the allowed 1s => burn 50.
  EXPECT_NEAR(t1.worst_burn, 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(t1.min_availability, 0.5);
  const auto& t2 = snap.tenants[1];
  EXPECT_EQ(t2.tenant, 2);
  EXPECT_EQ(t2.demands, 1);
  EXPECT_EQ(t2.violating, 0);
  EXPECT_DOUBLE_EQ(t2.min_availability, 1.0);
}

TEST(SloLedger, SnapshotJsonShape) {
  SloLedger ledger;
  ledger.admit(42, 9, 0.99, 0);
  ledger.degrade(42, 10 * kSec);
  const std::string json = ledger.snapshot(20 * kSec).to_json();
  EXPECT_NE(json.find("\"now_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"demands\":["), std::string::npos);
  EXPECT_NE(json.find("\"tenants\":["), std::string::npos);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"budget_burn\":"), std::string::npos);
  EXPECT_NE(json.find("\"transitions\":["), std::string::npos);
}

TEST(SloLedger, ClearForgetsEverything) {
  SloLedger ledger;
  ledger.admit(1, 0, 0.9, 0);
  ledger.admit(2, 0, 0.9, 0);
  ledger.withdraw(2, kSec);
  ledger.allocate(99, 0);  // one invalid
  EXPECT_EQ(ledger.live_demands(), 1u);
  ledger.clear();
  EXPECT_EQ(ledger.live_demands(), 0u);
  EXPECT_EQ(ledger.invalid_transitions(), 0);
  EXPECT_TRUE(ledger.snapshot(kSec).demands.empty());
  // The count restarts from zero: a cleared id is admissible again.
  ledger.admit(1, 0, 0.9, 2 * kSec);
  EXPECT_EQ(ledger.live_demands(), 1u);
}

TEST(SloLedgerStrings, StateNames) {
  EXPECT_STREQ(to_string(DemandState::kAdmitted), "admitted");
  EXPECT_STREQ(to_string(DemandState::kAllocated), "allocated");
  EXPECT_STREQ(to_string(DemandState::kDegraded), "degraded");
  EXPECT_STREQ(to_string(DemandState::kRecovered), "recovered");
  EXPECT_STREQ(to_string(DemandState::kWithdrawn), "withdrawn");
}

// ---------------------------------------------------------------- ring

TEST(TimeSeriesRing, WrapsKeepingNewest) {
  TimeSeries ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 10; ++i) ring.push(i * kSec, i);
  EXPECT_EQ(ring.size(), 4u);
  const auto pts = ring.points();
  ASSERT_EQ(pts.size(), 4u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].first, static_cast<std::int64_t>(6 + i) * kSec);
    EXPECT_DOUBLE_EQ(pts[i].second, 6.0 + static_cast<double>(i));
  }
}

TEST(TimeSeriesRing, WindowReduction) {
  TimeSeries ring(16);
  // Counter-ish series: value 10*t at t = 0..9 seconds.
  for (int t = 0; t < 10; ++t) ring.push(t * kSec, 10.0 * t);
  // Window [5s, 9s]: points 5..9.
  const WindowStats w = ring.window(9 * kSec, 4 * kSec);
  EXPECT_EQ(w.count, 5);
  EXPECT_DOUBLE_EQ(w.min, 50.0);
  EXPECT_DOUBLE_EQ(w.max, 90.0);
  EXPECT_DOUBLE_EQ(w.avg, 70.0);
  // (90 - 50) / 4s elapsed.
  EXPECT_DOUBLE_EQ(w.rate_per_sec, 10.0);
  EXPECT_EQ(w.first_t_us, 5 * kSec);
  EXPECT_EQ(w.last_t_us, 9 * kSec);
}

TEST(TimeSeriesRing, WindowEdgeCases) {
  TimeSeries ring(8);
  EXPECT_EQ(ring.window(kSec, kSec).count, 0);  // empty series
  ring.push(5 * kSec, 7.0);
  const WindowStats one = ring.window(5 * kSec, kSec);
  EXPECT_EQ(one.count, 1);
  EXPECT_DOUBLE_EQ(one.rate_per_sec, 0.0);  // rate needs two points
  // Window entirely before the data.
  EXPECT_EQ(ring.window(3 * kSec, kSec).count, 0);
}

// ---------------------------------------------------------------- store

TEST(TimeSeriesStore, SampleRecordsCountersGaugesAndQuantiles) {
  Registry registry;
  registry.counter("bate_test_ticks_total").inc(5);
  registry.gauge("bate_test_depth").set(3.5);
  for (int i = 1; i <= 100; ++i) {
    registry.histogram("bate_test_latency_us").record(i);
  }

  TimeSeriesStore store;
  store.sample(registry.snapshot(), 10 * kSec);
  registry.counter("bate_test_ticks_total").inc(15);
  store.sample(registry.snapshot(), 20 * kSec);

  // counter + gauge + histogram _p50/_p99.
  EXPECT_EQ(store.series_count(), 4u);
  const WindowStats ticks =
      store.window("bate_test_ticks_total", 20 * kSec, 60 * kSec);
  EXPECT_EQ(ticks.count, 2);
  EXPECT_DOUBLE_EQ(ticks.min, 5.0);
  EXPECT_DOUBLE_EQ(ticks.max, 20.0);
  EXPECT_DOUBLE_EQ(ticks.rate_per_sec, 1.5);  // (20-5)/10s

  EXPECT_EQ(store.window("bate_test_depth", 20 * kSec, 60 * kSec).count, 2);
  EXPECT_GT(
      store.window("bate_test_latency_us_p50", 20 * kSec, 60 * kSec).count, 0);
  EXPECT_GT(
      store.window("bate_test_latency_us_p99", 20 * kSec, 60 * kSec).count, 0);
  // p99 estimate must sit above p50 for a spread sample.
  const double p50 =
      store.window("bate_test_latency_us_p50", 20 * kSec, 60 * kSec).max;
  const double p99 =
      store.window("bate_test_latency_us_p99", 20 * kSec, 60 * kSec).max;
  EXPECT_GT(p99, p50);

  // Unknown series reduce to zero stats rather than throwing.
  EXPECT_EQ(store.window("no_such_series", 20 * kSec, 60 * kSec).count, 0);

  const std::string json = store.to_json(20 * kSec, 60 * kSec);
  EXPECT_NE(json.find("\"bate_test_ticks_total\""), std::string::npos);
  EXPECT_NE(json.find("\"bate_test_latency_us_p99\""), std::string::npos);
  EXPECT_NE(json.find("\"rate_per_sec\""), std::string::npos);

  store.clear();
  EXPECT_EQ(store.series_count(), 0u);
}

// ---------------------------------------------------------------- reset
// scoping

TEST(ScopedReset, PrefixScopedResetOnEntryAndExit) {
  Registry registry;
  registry.counter("bate_slo_x_total").inc(10);
  registry.counter("bate_other_y_total").inc(10);
  {
    ScopedRegistryReset scoped(registry, "bate_slo_");
    // Entry reset: only the matching prefix was zeroed.
    EXPECT_EQ(registry.counter("bate_slo_x_total").value(), 0);
    EXPECT_EQ(registry.counter("bate_other_y_total").value(), 10);
    registry.counter("bate_slo_x_total").inc(7);
  }
  // Exit reset: the scope's own increments do not leak out.
  EXPECT_EQ(registry.counter("bate_slo_x_total").value(), 0);
  EXPECT_EQ(registry.counter("bate_other_y_total").value(), 10);
}

TEST(ScopedReset, EmptyPrefixResetsEverything) {
  Registry registry;
  registry.counter("a_total").inc(1);
  registry.gauge("b").set(2.0);
  registry.histogram("c_us").record(3);
  {
    ScopedRegistryReset scoped(registry);
    EXPECT_EQ(registry.counter("a_total").value(), 0);
    EXPECT_DOUBLE_EQ(registry.gauge("b").value(), 0.0);
    EXPECT_EQ(registry.histogram("c_us").count(), 0);
  }
}

}  // namespace
}  // namespace bate::obs
