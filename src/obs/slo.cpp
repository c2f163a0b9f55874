#include "obs/slo.h"

#include <cstdio>

#include "obs/metrics.h"

namespace bate::obs {

namespace {

/// Ledger metric handles, registered once. inc() is wait-free and gated on
/// obs::enabled() internally; ledger BOOKKEEPING is never gated — the SLO
/// answer must stay correct even with metrics disabled.
struct LedgerMetrics {
  Counter& transitions;
  Counter& invalid;
  Gauge& live;
  static LedgerMetrics& get() {
    static LedgerMetrics m{
        Registry::global().counter("bate_slo_transitions_total"),
        Registry::global().counter("bate_slo_invalid_transitions_total"),
        Registry::global().gauge("bate_slo_demands_live"),
    };
    return m;
  }
};

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_int(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}

}  // namespace

const char* to_string(DemandState s) noexcept {
  switch (s) {
    case DemandState::kAdmitted: return "admitted";
    case DemandState::kAllocated: return "allocated";
    case DemandState::kDegraded: return "degraded";
    case DemandState::kRecovered: return "recovered";
    case DemandState::kWithdrawn: return "withdrawn";
  }
  return "?";
}

void SloLedger::note_transition(Entry& e, DemandState s, std::int64_t t_us) {
  e.state = s;  // bate-lint: allow(slo-ledger)
  if (e.transitions.size() >= config_.max_transitions) {
    ++e.dropped_transitions;
  } else {
    e.transitions.push_back(Transition{t_us, s});
  }
  LedgerMetrics::get().transitions.inc();
}

void SloLedger::admit(std::int64_t id, std::int64_t tenant, double beta,
                      std::int64_t t_us) {
  MutexLock lock(mu_);
  auto [it, inserted] = demands_.try_emplace(id);
  if (!inserted) {
    ++invalid_;
    LedgerMetrics::get().invalid.inc();
    return;
  }
  Entry& e = it->second;
  e.tenant = tenant;
  e.beta = beta;
  e.admitted_us = t_us;
  e.meter.start(t_us, /*satisfied=*/true);
  note_transition(e, DemandState::kAdmitted, t_us);
  ++live_;
  LedgerMetrics::get().live.set(static_cast<double>(live_));
}

void SloLedger::allocate(std::int64_t id, std::int64_t t_us) {
  MutexLock lock(mu_);
  auto it = demands_.find(id);
  if (it == demands_.end() || it->second.state == DemandState::kWithdrawn) {
    ++invalid_;
    LedgerMetrics::get().invalid.inc();
    return;
  }
  // Idempotent from any live state: re-broadcasts are routine.
  if (it->second.state != DemandState::kAdmitted) return;
  note_transition(it->second, DemandState::kAllocated, t_us);
}

void SloLedger::degrade(std::int64_t id, std::int64_t t_us) {
  MutexLock lock(mu_);
  auto it = demands_.find(id);
  if (it == demands_.end() || it->second.state == DemandState::kWithdrawn) {
    ++invalid_;
    LedgerMetrics::get().invalid.inc();
    return;
  }
  Entry& e = it->second;
  if (e.state == DemandState::kDegraded) return;
  e.meter.set_satisfied(t_us, false);
  note_transition(e, DemandState::kDegraded, t_us);
}

void SloLedger::recover(std::int64_t id, std::int64_t t_us) {
  MutexLock lock(mu_);
  auto it = demands_.find(id);
  if (it == demands_.end() || it->second.state == DemandState::kWithdrawn) {
    ++invalid_;
    LedgerMetrics::get().invalid.inc();
    return;
  }
  Entry& e = it->second;
  // Recover is only meaningful out of a degradation; a recover while
  // already satisfied is a harmless duplicate report, not an error.
  if (e.state != DemandState::kDegraded) return;
  e.meter.set_satisfied(t_us, true);
  note_transition(e, DemandState::kRecovered, t_us);
}

void SloLedger::set_satisfied(std::int64_t id, bool satisfied,
                              std::int64_t t_us) {
  // Reuses degrade()/recover() edge rules; both treat a report that does
  // not change the satisfied bit as a no-op.
  if (satisfied) {
    recover(id, t_us);
  } else {
    degrade(id, t_us);
  }
}

void SloLedger::withdraw(std::int64_t id, std::int64_t t_us) {
  MutexLock lock(mu_);
  auto it = demands_.find(id);
  if (it == demands_.end() || it->second.state == DemandState::kWithdrawn) {
    ++invalid_;
    LedgerMetrics::get().invalid.inc();
    return;
  }
  Entry& e = it->second;
  e.meter.finalize(t_us);
  note_transition(e, DemandState::kWithdrawn, t_us);
  retire(id);
  --live_;
  LedgerMetrics::get().live.set(static_cast<double>(live_));
}

void SloLedger::retire(std::int64_t id) {
  withdrawn_order_.push_back(id);
  while (withdrawn_order_.size() > config_.max_withdrawn) {
    demands_.erase(withdrawn_order_.front());
    withdrawn_order_.pop_front();
  }
}

std::int64_t SloLedger::invalid_transitions() const {
  MutexLock lock(mu_);
  return invalid_;
}

std::size_t SloLedger::live_demands() const {
  MutexLock lock(mu_);
  return live_;
}

void SloLedger::clear() {
  MutexLock lock(mu_);
  demands_.clear();
  withdrawn_order_.clear();
  invalid_ = 0;
  live_ = 0;
  LedgerMetrics::get().live.set(0.0);
}

SloLedger::DemandRow SloLedger::to_row(std::int64_t id, const Entry& e,
                                       std::int64_t now_us) {
  DemandRow row;
  row.id = id;
  row.tenant = e.tenant;
  row.beta = e.beta;
  row.state = e.state;
  row.admitted_us = e.admitted_us;
  row.active_us = e.meter.active_us_at(now_us);
  row.satisfied_us = e.meter.satisfied_us_at(now_us);
  row.availability = e.meter.availability_at(now_us);
  row.budget_burn = e.meter.budget_burn_at(e.beta, now_us);
  row.burn_per_hour = e.meter.burn_per_hour_at(e.beta, now_us);
  row.target_met = availability_target_met(row.availability, e.beta);
  row.transitions = e.transitions;
  row.dropped_transitions = e.dropped_transitions;
  return row;
}

SloLedger::Snapshot SloLedger::snapshot(std::int64_t now_us) const {
  Snapshot snap;
  snap.now_us = now_us;
  std::map<std::int64_t, TenantRow> tenants;
  {
    MutexLock lock(mu_);
    snap.demands.reserve(demands_.size());
    for (const auto& [id, e] : demands_) {
      snap.demands.push_back(to_row(id, e, now_us));
      const DemandRow& row = snap.demands.back();
      TenantRow& t = tenants[e.tenant];
      t.tenant = e.tenant;
      ++t.demands;
      if (row.budget_burn > 1.0) ++t.violating;
      if (row.budget_burn > t.worst_burn) t.worst_burn = row.budget_burn;
      if (row.availability < t.min_availability) {
        t.min_availability = row.availability;
      }
    }
  }
  snap.tenants.reserve(tenants.size());
  for (auto& [tenant, row] : tenants) snap.tenants.push_back(row);
  return snap;
}

std::string SloLedger::Snapshot::to_json() const {
  std::string out = "{\"now_us\":";
  append_int(out, now_us);
  out += ",\"demands\":[";
  bool first = true;
  for (const DemandRow& d : demands) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":";
    append_int(out, d.id);
    out += ",\"tenant\":";
    append_int(out, d.tenant);
    out += ",\"beta\":";
    append_double(out, d.beta);
    out += ",\"state\":\"";
    out += to_string(d.state);
    out += "\",\"admitted_us\":";
    append_int(out, d.admitted_us);
    out += ",\"active_us\":";
    append_int(out, d.active_us);
    out += ",\"satisfied_us\":";
    append_int(out, d.satisfied_us);
    out += ",\"availability\":";
    append_double(out, d.availability);
    out += ",\"budget_burn\":";
    append_double(out, d.budget_burn);
    out += ",\"burn_per_hour\":";
    append_double(out, d.burn_per_hour);
    out += ",\"target_met\":";
    out += d.target_met ? "true" : "false";
    out += ",\"dropped_transitions\":";
    append_int(out, d.dropped_transitions);
    out += ",\"transitions\":[";
    bool tfirst = true;
    for (const Transition& t : d.transitions) {
      if (!tfirst) out += ',';
      tfirst = false;
      out += "{\"t_us\":";
      append_int(out, t.t_us);
      out += ",\"state\":\"";
      out += to_string(t.state);
      out += "\"}";
    }
    out += "]}";
  }
  out += "],\"tenants\":[";
  first = true;
  for (const TenantRow& t : tenants) {
    if (!first) out += ',';
    first = false;
    out += "{\"tenant\":";
    append_int(out, t.tenant);
    out += ",\"demands\":";
    append_int(out, t.demands);
    out += ",\"violating\":";
    append_int(out, t.violating);
    out += ",\"worst_burn\":";
    append_double(out, t.worst_burn);
    out += ",\"min_availability\":";
    append_double(out, t.min_availability);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace bate::obs
