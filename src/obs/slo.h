// Live availability-SLO ledger (DESIGN.md Sec 9.4): the controller-side
// answer to "are we keeping the beta_d promise we charged for?".
//
// Each admitted demand advances through a small lifecycle state machine
//
//   admitted -> allocated -> degraded <-> recovered -> withdrawn
//
// driven by admission results, broker link-status reports, and withdrawals.
// Time spent in a satisfied state (everything but kDegraded) accrues to the
// demand's measured availability through the SAME arithmetic the offline
// simulator uses (obs/availability.h), so live and simulated accountings
// agree to the bit on one event log. From the measured availability and the
// promised beta_d the ledger derives per-demand and per-tenant error-budget
// burn: burn 1.0 means the allowed unavailable time is fully consumed and
// the refund clause of the paper's pricing model is about to trigger.
//
// Threading: one Mutex at rank kObsLedger (above kObsRegistry so metric
// handles may register under it, below kLogger so logging under the ledger
// lock is a rank violation — transitions are hot-path). All transition
// methods are O(log n) map updates; snapshot() copies under the lock and
// formats outside it. Invalid transitions (unknown id, withdrawn demand,
// duplicate admit) are counted, never fatal: the ledger observes the
// system, it must not take it down.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/availability.h"
#include "util/mutex.h"

namespace bate::obs {

/// Demand lifecycle states. Transitions MUST go through the SloLedger API
/// (bate_lint `slo-ledger` rule); nothing outside src/obs assigns these.
enum class DemandState : std::uint8_t {
  kAdmitted = 0,   // accepted, allocation not yet confirmed
  kAllocated = 1,  // allocation broadcast; delivering at promised rate
  kDegraded = 2,   // a link failure is eating into the error budget
  kRecovered = 3,  // back above the satisfied floor after a degradation
  kWithdrawn = 4,  // terminal; availability frozen at finalize time
};

const char* to_string(DemandState s) noexcept;

class SloLedger {
 public:
  struct Config {
    /// Per-demand transition-log cap; once full, further transitions keep
    /// updating the meter but are dropped from the log (counted in
    /// dropped_transitions) to keep memory fixed. The retained prefix is
    /// the demand's earliest history — it always includes the admit.
    std::size_t max_transitions = 64;
    /// Withdrawn demands retained for post-mortem snapshots.
    std::size_t max_withdrawn = 1024;
  };

  struct Transition {
    std::int64_t t_us = 0;
    DemandState state = DemandState::kAdmitted;
  };

  struct DemandRow {
    std::int64_t id = 0;
    std::int64_t tenant = 0;
    double beta = 0.0;  // promised availability target
    DemandState state = DemandState::kAdmitted;
    std::int64_t admitted_us = 0;
    std::int64_t active_us = 0;
    std::int64_t satisfied_us = 0;
    double availability = 1.0;
    double budget_burn = 0.0;
    double burn_per_hour = 0.0;
    bool target_met = true;
    std::vector<Transition> transitions;
    std::int64_t dropped_transitions = 0;
  };

  struct TenantRow {
    std::int64_t tenant = 0;
    std::int64_t demands = 0;
    std::int64_t violating = 0;  // demands with burn > 1
    double worst_burn = 0.0;
    double min_availability = 1.0;
  };

  struct Snapshot {
    std::int64_t now_us = 0;
    std::vector<DemandRow> demands;  // sorted by id; withdrawn included
    std::vector<TenantRow> tenants;  // sorted by tenant
    std::string to_json() const;
  };

  SloLedger() : SloLedger(Config{}) {}
  explicit SloLedger(const Config& config) : config_(config) {}
  SloLedger(const SloLedger&) = delete;
  SloLedger& operator=(const SloLedger&) = delete;

  /// Admission accepted: starts the availability clock (satisfied).
  void admit(std::int64_t id, std::int64_t tenant, double beta,
             std::int64_t t_us);
  /// Allocation confirmed/broadcast. Idempotent from any live state.
  void allocate(std::int64_t id, std::int64_t t_us);
  /// Delivered rate dropped below the satisfied floor on some pair.
  void degrade(std::int64_t id, std::int64_t t_us);
  /// Back at/above the floor after a degradation.
  void recover(std::int64_t id, std::int64_t t_us);
  /// Convenience dispatcher used by per-interval refresh loops: degrades or
  /// recovers only when the satisfied bit actually changed.
  void set_satisfied(std::int64_t id, bool satisfied, std::int64_t t_us);
  /// Terminal: freezes the meter; row retained (up to max_withdrawn).
  void withdraw(std::int64_t id, std::int64_t t_us);

  /// Transitions that named an unknown id, a withdrawn demand, or an
  /// illegal edge. Observability must not crash the controller; tests
  /// assert on this instead.
  std::int64_t invalid_transitions() const;

  std::size_t live_demands() const;

  Snapshot snapshot(std::int64_t now_us) const;

  /// Forgets everything (bench/test isolation).
  void clear();

 private:
  struct Entry {
    std::int64_t tenant = 0;
    double beta = 0.0;
    DemandState state = DemandState::kAdmitted;
    std::int64_t admitted_us = 0;
    AvailabilityMeter meter;
    std::vector<Transition> transitions;
    std::int64_t dropped_transitions = 0;
  };

  void note_transition(Entry& e, DemandState s, std::int64_t t_us)
      BATE_REQUIRES(mu_);
  void retire(std::int64_t id) BATE_REQUIRES(mu_);
  static DemandRow to_row(std::int64_t id, const Entry& e,
                          std::int64_t now_us);

  const Config config_;
  // Logging while holding mu_ is a lock-rank violation by design
  // (kLogger 15 > kObsLedger 12): transitions run on the controller loop.
  mutable Mutex mu_{LockRank::kObsLedger, "slo ledger"};
  std::map<std::int64_t, Entry> demands_ BATE_GUARDED_BY(mu_);
  /// Withdrawn ids in retirement order (oldest first), capped.
  std::deque<std::int64_t> withdrawn_order_ BATE_GUARDED_BY(mu_);
  std::int64_t invalid_ BATE_GUARDED_BY(mu_) = 0;
  /// Entries not yet withdrawn; admit() and withdraw() keep it, retire()
  /// evicts only withdrawn entries, so it never needs a recount.
  std::size_t live_ BATE_GUARDED_BY(mu_) = 0;
};

}  // namespace bate::obs
