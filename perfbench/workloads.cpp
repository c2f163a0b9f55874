#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "layers.h"
#include "obs/metrics.h"
#include "stack.h"
#include "system/client.h"
#include "topology/catalog.h"
#include "util/rng.h"
#include "workload/sla.h"
#include "workload/traffic_matrix.h"

namespace perfbench {

namespace {

/// Set-ups per run: at least kSetups, and more until kSetupSeconds have
/// passed; setup_s is their interquartile mean.
constexpr std::size_t kSetups = 15;
constexpr double kSetupSeconds = 1.0;
/// Ledger rows the controller keeps for withdrawn demands (the
/// SloLedger::Config::max_withdrawn the Controller constructs it with).
constexpr long kLedgerWithdrawnRows = 1024;

// ---------------------------------------------------------------- demands --

constexpr int kChurnArrivals = 100000;
constexpr int kChurnClients = 2;
/// Arrivals of the untimed round whose ledger is crosschecked (the size
/// bench_system's slo case scrapes). The controller sends the whole ledger
/// as one frame in one non-blocking write: a 100k-row ledger exceeds the
/// 16 MiB frame limit, and multi-MiB replies fail with EAGAIN, so neither
/// ever reaches the client.
constexpr int kChurnCheckArrivals = 2000;

/// Tiny churn demand: one random pair, 0.01 Mbps, 90% best-effort and 10%
/// with a 0.9 target.
Demand churn_demand(Rng& rng, DemandId id, int pair_count) {
  Demand d;
  d.id = id;
  d.pairs = {{rng.uniform_int(0, pair_count - 1), 0.01}};
  d.availability_target = rng.bernoulli(0.1) ? 0.9 : 0.0;
  d.charge = 0.01;
  d.refund_fraction = 0.1;
  d.duration_minutes = 10.0;
  return d;
}

/// Traffic-matrix-sized B4 demands with the Table-1 target mix (one class
/// in five is best-effort). The pair is drawn by matrix volume and the rate
/// is the matrix entry over kScaleDown, so a few dozen live demands bind
/// link capacity. The matrix is fixed, like the topology; the seed drives
/// the draws.
class B4Demands {
 public:
  static constexpr double kScaleDown = 40.0;

  B4Demands(const Topology& topo, const TunnelCatalog& catalog,
            std::uint64_t seed)
      : rng_(seed) {
    const TrafficMatrix tm = generate_traffic_matrices(topo, 1)[0];
    for (const SdPair& p : catalog.pairs()) {
      const double v = tm[static_cast<std::size_t>(p.src)]
                         [static_cast<std::size_t>(p.dst)];
      weights_.push_back(v);
      mbps_.push_back(v / kScaleDown);
    }
    for (const AvailabilityTarget& t : b4_targets()) {
      betas_.push_back(t.availability);
    }
  }

  Demand next(DemandId id) {
    Demand d;
    d.id = id;
    const std::size_t pair = rng_.weighted_index(weights_);
    d.pairs = {{static_cast<int>(pair), mbps_[pair]}};
    d.availability_target = betas_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(betas_.size()) - 1))];
    d.charge = mbps_[pair];
    d.refund_fraction = 0.1;
    d.duration_minutes = 10.0;
    return d;
  }

 private:
  Rng rng_;
  std::vector<double> weights_;
  std::vector<double> mbps_;
  std::vector<double> betas_;
};

bool more_setups(const std::vector<SetupTimes>& done, double started_ms) {
  return done.size() < kSetups || now_ms() - started_ms < kSetupSeconds * 1e3;
}

LiveDemand live_of(const Demand& d) {
  return LiveDemand{d.id, d.pairs, d.availability_target};
}

// ---------------------------------------------------- applied-at-brokers --

/// Times submit -> admitted rows enforced at every broker, for the demands
/// whose id is a multiple of `sample_every`. A watcher thread wakes on broker
/// 0's update notifications and probes every broker's enforcer for the rows
/// of sampled demands still pending, at most once per kScanPeriodMs:
/// per-update probing of every demand would take a core, and the brokers'
/// locks, from the stack under test.
class AppliedWatcher {
 public:
  AppliedWatcher(LiveStack& stack, DemandId sample_every)
      : stack_(stack), sample_every_(sample_every) {
    thread_ = std::thread([this] { loop(); });
  }
  ~AppliedWatcher() {
    stop_ = true;
    thread_.join();
  }
  AppliedWatcher(const AppliedWatcher&) = delete;
  AppliedWatcher& operator=(const AppliedWatcher&) = delete;

  /// Registers a demand before its submit is written.
  void expect(const Demand& d, double t_submit) {
    if (d.id % sample_every_ != 0) return;
    std::vector<int> pairs;
    for (const PairDemand& p : d.pairs) pairs.push_back(p.pair);
    std::lock_guard<std::mutex> lock(mu_);
    pending_[d.id] = Pending{std::move(pairs), t_submit};
  }

  void verdict(DemandId id, bool admitted) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    if (!admitted) {
      if (it->second.t_applied >= 0.0) ++rejected_but_enforced_;
      pending_.erase(it);
      return;
    }
    if (it->second.t_applied >= 0.0) {
      latencies_.push_back({it->second.t_applied,
                            it->second.t_applied - it->second.t_submit});
      pending_.erase(it);
    } else {
      it->second.admitted = true;
    }
  }

  /// Waits until every admitted demand is enforced everywhere.
  bool settle(double timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms), [&] {
          return std::none_of(pending_.begin(), pending_.end(),
                              [](const auto& kv) {
                                return kv.second.admitted;
                              });
        });
  }

  /// Applied latencies recorded since the last call.
  std::vector<Timed> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(latencies_, {});
  }

  long rejected_but_enforced() {
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_but_enforced_;
  }

 private:
  struct Pending {
    std::vector<int> pairs;
    double t_submit = 0.0;
    bool admitted = false;
    double t_applied = -1.0;
  };

  bool enforced_everywhere(DemandId id, const std::vector<int>& pairs) {
    for (int b = 0; b < LiveStack::kBrokers; ++b) {
      for (const int pair : pairs) {
        if (stack_.broker(b).enforced_rates(id, pair).empty()) return false;
      }
    }
    return true;
  }

  static constexpr double kScanPeriodMs = 1.0;

  void loop() {
    int seen0 = -1;
    int seen1 = -1;
    double last_scan = 0.0;
    std::vector<std::pair<DemandId, std::vector<int>>> todo;
    std::vector<DemandId> applied;
    while (!stop_) {
      const double idle = last_scan + kScanPeriodMs - now_ms();
      if (idle > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(idle));
      }
      const int u0 = stack_.broker(0).wait_updates_past(seen0, 10);
      const int u1 = stack_.broker(1).updates_received();
      if (u0 == seen0 && u1 == seen1) continue;
      last_scan = now_ms();
      seen0 = u0;
      seen1 = u1;
      todo.clear();
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [id, p] : pending_) {
          if (p.t_applied < 0.0) todo.emplace_back(id, p.pairs);
        }
      }
      applied.clear();
      for (const auto& [id, pairs] : todo) {
        if (enforced_everywhere(id, pairs)) applied.push_back(id);
      }
      if (applied.empty()) continue;
      const double t = now_ms();
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const DemandId id : applied) {
          const auto it = pending_.find(id);
          if (it == pending_.end()) continue;
          it->second.t_applied = t;
          if (it->second.admitted) {
            latencies_.push_back({t, t - it->second.t_submit});
            pending_.erase(it);
          }
        }
      }
      cv_.notify_all();
    }
  }

  LiveStack& stack_;
  const DemandId sample_every_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<DemandId, Pending> pending_;
  std::vector<Timed> latencies_;
  long rejected_but_enforced_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ------------------------------------------------------------ client load --

/// Closed-loop window: at most `window` submits in flight, topped back up
/// once no more than `refill_at` remain outstanding.
struct LoadSpec {
  std::size_t window = 16;
  std::size_t refill_at = 15;
  /// Withdraw each admitted demand this many arrivals after its own (0:
  /// never withdraw).
  long withdraw_after = 0;
};

/// What one pass of one connection saw.
struct PassStats {
  std::vector<Timed> response;
  long submitted = 0;
  long verdicts = 0;
  long admitted = 0;
  long failed = 0;
  long stray = 0;  // verdicts that answer no outstanding submit
  long withdrawals = 0;
  double first_submit_ms = 0.0;
  double last_verdict_ms = 0.0;

  void merge(const PassStats& o) {
    response.insert(response.end(), o.response.begin(), o.response.end());
    submitted += o.submitted;
    verdicts += o.verdicts;
    admitted += o.admitted;
    failed += o.failed;
    stray += o.stray;
    withdrawals += o.withdrawals;
    first_submit_ms = first_submit_ms == 0.0
                          ? o.first_submit_ms
                          : std::min(first_submit_ms, o.first_submit_ms);
    last_verdict_ms = std::max(last_verdict_ms, o.last_verdict_ms);
  }
  double elapsed_s() const {
    return std::max(1e-9, (last_verdict_ms - first_submit_ms) / 1e3);
  }
};

/// One tenant connection driving closed-loop submits, with exact client-side
/// timestamps per request. Its live set and withdrawal schedule persist
/// across passes.
class Tenant {
 public:
  Tenant(std::uint16_t port, int tenant) : user_(port, tenant) {}

  /// Submits `next()` demands until it returns nullopt, then drains every
  /// outstanding verdict.
  PassStats pass(const std::function<std::optional<Demand>()>& next,
                 const LoadSpec& spec, AppliedWatcher& watcher) {
    PassStats st;
    std::unordered_map<std::uint64_t, Inflight> inflight;
    bool more = true;
    try {
      while (more || !inflight.empty()) {
        if (more && inflight.size() <= spec.refill_at) {
          while (more && inflight.size() < spec.window) {
            while (!withdrawals_.empty() &&
                   withdrawals_.front().first <= arrivals_) {
              const DemandId id = withdrawals_.front().second;
              withdrawals_.pop_front();
              user_.withdraw(id);
              live_.erase(id);
              ++withdrawn_total_;
              ++st.withdrawals;
            }
            std::optional<Demand> d = next();
            if (!d) {
              more = false;
              break;
            }
            const double t = now_ms();
            if (st.submitted == 0) st.first_submit_ms = t;
            watcher.expect(*d, t);
            const std::uint64_t rid = user_.submit_async(*d);
            inflight.emplace(rid, Inflight{t, live_of(*d), arrivals_++});
            ++st.submitted;
          }
          continue;
        }
        const UserClient::Reply r = user_.wait_reply();
        const double t = now_ms();
        const auto it = inflight.find(r.request_id);
        if (it == inflight.end() || it->second.demand.id != r.id) {
          ++st.failed;
          ++st.stray;
          continue;
        }
        st.last_verdict_ms = t;
        const bool admitted = r.status == AdmissionStatus::kAdmitted;
        if (admitted || r.status == AdmissionStatus::kRejected) {
          ++st.verdicts;
          st.response.push_back({t, t - it->second.t_submit});
        } else {
          ++st.failed;  // shed (or a duplicate-request refusal)
        }
        watcher.verdict(r.id, admitted);
        if (admitted) {
          ++st.admitted;
          live_[r.id] = it->second.demand;
          if (spec.withdraw_after > 0) {
            withdrawals_.emplace_back(it->second.arrival + spec.withdraw_after,
                                      r.id);
          }
        }
        inflight.erase(it);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: connection error: %s\n", e.what());
      st.failed += static_cast<long>(inflight.size()) + 1;
    }
    return st;
  }

  /// Stats round trip: the controller has handled (and broadcast for)
  /// everything this connection sent before it.
  void barrier() { user_.stats(); }

  const std::map<DemandId, LiveDemand>& live() const { return live_; }
  long withdrawn_total() const { return withdrawn_total_; }

 private:
  struct Inflight {
    double t_submit = 0.0;
    LiveDemand demand;
    long arrival = 0;
  };
  UserClient user_;
  std::map<DemandId, LiveDemand> live_;
  std::deque<std::pair<long, DemandId>> withdrawals_;
  long arrivals_ = 0;
  long withdrawn_total_ = 0;
};

std::vector<LiveDemand> live_list(const std::map<DemandId, LiveDemand>& m) {
  std::vector<LiveDemand> out;
  out.reserve(m.size());
  for (const auto& [id, d] : m) out.push_back(d);
  return out;
}

// --------------------------------------------------------------- reporting --

/// Reports `name`_p50_ms / _p90_ms as interquartile means across windows,
/// and notes them with the p99 and the sample counts behind them.
void report_latency(RunResult& res, const std::string& name,
                    const std::vector<WindowStats>& windows, std::size_t n) {
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  for (const WindowStats& w : windows) {
    p50.push_back(w.p50);
    p90.push_back(w.p90);
    p99.push_back(w.p99);
  }
  res.metrics[name + "_p50_ms"] = interquartile_mean(p50);
  res.metrics[name + "_p90_ms"] = interquartile_mean(p90);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%s: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms (interquartile "
                "means over %zu windows, n=%zu samples)",
                name.c_str(), interquartile_mean(p50), interquartile_mean(p90),
                interquartile_mean(p99), windows.size(), n);
  res.notes.emplace_back(buf);
}

/// Interquartile mean across windows of a window rate.
double window_rate(const std::vector<WindowStats>& windows, bool busy) {
  std::vector<double> v;
  for (const WindowStats& w : windows) v.push_back(busy ? w.busy_rate : w.rate);
  return interquartile_mean(v);
}

void report_setup(RunResult& res, const std::vector<SetupTimes>& setups,
                  bool trace) {
  std::vector<double> total;
  std::vector<double> catalog;
  std::vector<double> ctor;
  for (const SetupTimes& s : setups) {
    total.push_back(s.total_ms);
    catalog.push_back(s.catalog_ms);
    ctor.push_back(s.controller_ctor_ms);
  }
  // Interquartile means: failover_b4's set-up times fall into two modes
  // (about 35 and 115 ms on a 4-vCPU VM), and a median jumps between them.
  if (trace) {
    res.metrics["setup.catalog_ms"] = interquartile_mean(catalog);
    res.metrics["setup.controller_ctor_ms"] = interquartile_mean(ctor);
  } else {
    res.metrics["setup_s"] = interquartile_mean(total) / 1e3;
  }
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "setup: interquartile mean %.4f s over %zu set-ups",
                interquartile_mean(total) / 1e3, setups.size());
  res.notes.emplace_back(buf);
}

/// End-of-phase checks shared by the admission workloads.
void check_phase(RunResult& res, LiveStack& stack, AppliedWatcher& watcher,
                 std::vector<Tenant*> tenants,
                 const std::vector<LiveDemand>& live) {
  if (!watcher.settle(20000)) {
    res.violate("admitted rows not enforced at every broker within 20 s");
  }
  for (Tenant* t : tenants) t->barrier();
  if (!stack.wait_brokers_quiet()) res.violate("brokers never went quiet");
  if (watcher.rejected_but_enforced() > 0) {
    res.violate("a rejected demand was enforced at the brokers");
  }
  const std::string err = check_enforced(stack, live, {});
  if (!err.empty()) res.violate(err);
}

ControllerConfig churn_config() {
  ControllerConfig cfg;
  cfg.reschedule_after_batch = false;
  cfg.precompute_backup = false;
  return cfg;
}

// ------------------------------------------------------- churn_testbed6 --

/// Churn times the applied-at-every-broker latency of one demand in this
/// many (AppliedWatcher's sampling).
constexpr DemandId kChurnAppliedSample = 8;
/// Churn windows: 10 per round, so each holds a tenth of the admitted-set
/// growth and enough samples for its p90.
constexpr std::size_t kChurnWindow = kChurnArrivals / 10;

/// One churn round: a fresh stack, 100k arrivals from two tenants. Only the
/// round's windows are kept, never its raw samples.
struct ChurnRound {
  PassStats stats;
  std::vector<WindowStats> response;
  std::vector<WindowStats> applied;
  std::size_t applied_samples = 0;
  double delivered = 1.0;
};

ChurnRound churn_round(RunResult& res, const std::vector<Demand>& demands,
                       TraceCapture* capture, bool crosscheck) {
  LiveStack stack(testbed6, 4, churn_config());
  AppliedWatcher watcher(stack, kChurnAppliedSample);
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (int c = 0; c < kChurnClients; ++c) {
    tenants.push_back(std::make_unique<Tenant>(stack.port(), 100 + c));
  }
  if (capture != nullptr) capture->begin(stack.controller_tid());

  LoadSpec spec;
  spec.window = 256;
  spec.refill_at = spec.window / 2;
  std::vector<PassStats> per(kChurnClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kChurnClients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t i = static_cast<std::size_t>(c);
      const auto next = [&]() -> std::optional<Demand> {
        if (i >= demands.size()) return std::nullopt;
        const Demand& d = demands[i];
        i += kChurnClients;
        return d;
      };
      per[static_cast<std::size_t>(c)] =
          tenants[static_cast<std::size_t>(c)]->pass(next, spec, watcher);
    });
  }
  for (auto& t : threads) t.join();

  ChurnRound round;
  for (const PassStats& p : per) round.stats.merge(p);
  if (round.stats.stray > 0) {
    res.violate("a verdict answered no outstanding submit");
  }
  std::map<DemandId, LiveDemand> live;
  std::vector<Tenant*> raw;
  for (auto& t : tenants) {
    live.insert(t->live().begin(), t->live().end());
    raw.push_back(t.get());
  }
  const std::vector<LiveDemand> all = live_list(live);
  check_phase(res, stack, watcher, raw, all);
  const std::vector<Timed> applied = watcher.take();
  if (capture != nullptr) capture->end(round.stats.submitted);
  round.response =
      window_stats(std::exchange(round.stats.response, {}), kChurnWindow);
  round.applied =
      window_stats(applied, kChurnWindow / kChurnAppliedSample);
  round.applied_samples = applied.size();
  round.delivered = delivered_fraction(stack, all, {});
  if (crosscheck) {
    const std::string err =
        crosscheck_ledger(stack.port(), static_cast<long>(all.size()));
    if (!err.empty()) res.violate("slo crosscheck: " + err);
  }
  return round;
}

RunResult run_churn(const RunOptions& opt) {
  RunResult res;
  std::vector<Demand> demands;
  {
    const int pairs =
        TunnelCatalog::build_all_pairs(testbed6(), 4).pair_count();
    Rng rng(opt.seed);
    demands.reserve(kChurnArrivals);
    for (int i = 0; i < kChurnArrivals; ++i) {
      demands.push_back(churn_demand(rng, i + 1, pairs));
    }
  }
  std::vector<SetupTimes> setups;
  const double setup_start = now_ms();
  while (more_setups(setups, setup_start)) {
    setups.push_back(LiveStack(testbed6, 4, churn_config()).setup());
  }
  // Windows never span two rounds: the gap between them is set-up.
  const auto windows = [](const std::vector<ChurnRound>& rs, bool applied) {
    std::vector<WindowStats> out;
    for (const ChurnRound& r : rs) {
      const auto& w = applied ? r.applied : r.response;
      out.insert(out.end(), w.begin(), w.end());
    }
    return out;
  };
  const auto rate = [&](const std::vector<ChurnRound>& rs) {
    return window_rate(windows(rs, false), false);
  };
  const auto tally = [&](const std::vector<ChurnRound>& rs) {
    for (const ChurnRound& r : rs) {
      res.attempted += r.stats.submitted;
      res.failed += r.stats.failed;
    }
  };

  if (!opt.trace) {
    std::vector<ChurnRound> rs;
    double rss = 0.0;
    const double deadline = now_ms() + opt.seconds * 1e3;
    do {
      rs.push_back(churn_round(res, demands, nullptr, false));
      if (rs.size() == 1) rss = peak_rss_mb();
    } while (now_ms() < deadline);
    tally(rs);
    long verdicts = 0;
    long admitted = 0;
    std::size_t applied = 0;
    double delivered = 0.0;
    for (const ChurnRound& r : rs) {
      verdicts += r.stats.verdicts;
      admitted += r.stats.admitted;
      applied += r.applied_samples;
      delivered += r.delivered;
    }
    res.metrics["events_per_s"] = rate(rs);
    report_latency(res, "response", windows(rs, false),
                   static_cast<std::size_t>(verdicts));
    report_latency(res, "applied", windows(rs, true), applied);
    res.metrics["admitted_frac"] =
        static_cast<double>(admitted) / static_cast<double>(verdicts);
    res.metrics["delivered_frac"] = delivered / static_cast<double>(rs.size());
    res.metrics["peak_rss_mb"] = rss;
    res.notes.push_back("churn: " + std::to_string(rs.size()) + " rounds of " +
                        std::to_string(kChurnArrivals) + " arrivals");
  } else {
    TraceCapture capture;
    std::vector<ChurnRound> plain;
    std::vector<ChurnRound> traced;
    const double deadline = now_ms() + opt.seconds * 1e3;
    do {
      plain.push_back(churn_round(res, demands, nullptr, false));
      traced.push_back(churn_round(res, demands, &capture, false));
    } while (now_ms() < deadline);
    tally(plain);
    tally(traced);
    EventCounts ev;
    for (const ChurnRound& r : traced) {
      ev.verdicts += r.stats.verdicts;
      ev.submits += r.stats.submitted;
    }
    res.metrics = layer_metrics(capture, ev);
    res.metrics["obs.trace_overhead_frac"] = rate(plain) / rate(traced) - 1.0;
  }
  // Ledger crosscheck on one more, untimed and smaller, round.
  const std::vector<Demand> head(demands.begin(),
                                 demands.begin() + kChurnCheckArrivals);
  const ChurnRound check = churn_round(res, head, nullptr, true);
  res.attempted += check.stats.submitted;
  res.failed += check.stats.failed;
  report_setup(res, setups, opt.trace);
  return res;
}

// ----------------------------------------------------------------- bate_b4 --

constexpr long kWithdrawAfter = 64;
/// Verdicts per bate_b4 window.
constexpr std::size_t kBateWindow = 200;
/// Fresh stacks the timed phase of bate_b4 runs on in turn (with --trace 1,
/// an untraced and then a traced segment on each). A stack's figures move
/// together, as its threads tend to keep the cores they first ran on, so a
/// run averages over several stacks.
constexpr int kBateSegments = 5;

RunResult run_bate(const RunOptions& opt) {
  RunResult res;
  std::vector<SetupTimes> setups;
  const double setup_start = now_ms();
  while (more_setups(setups, setup_start)) {
    setups.push_back(LiveStack(b4, 4, ControllerConfig{}).setup());
  }
  LoadSpec spec;
  spec.window = 16;
  spec.refill_at = spec.window - 1;
  spec.withdraw_after = kWithdrawAfter;
  // One seeded demand stream runs through every segment.
  std::optional<B4Demands> gen;
  DemandId next_id = 1;
  const auto tally = [&](const PassStats& p) {
    res.attempted += p.submitted;
    res.failed += p.failed;
    if (p.stray > 0) res.violate("a verdict answered no outstanding submit");
  };

  // Untraced figures (windows never span two segments).
  std::vector<WindowStats> response;
  std::vector<WindowStats> applied;
  std::size_t applied_n = 0;
  PassStats all;
  double delivered = 0.0;
  double rss = 0.0;
  // Traced run: registry and spans, and untraced vs traced verdict rates.
  TraceCapture capture;
  EventCounts ev;
  double seconds[2] = {0.0, 0.0};  // untraced, traced
  long verdicts[2] = {0, 0};

  const int passes = opt.trace ? 2 : 1;
  for (int s = 0; s < kBateSegments; ++s) {
    LiveStack stack(b4, 4, ControllerConfig{});
    setups.push_back(stack.setup());
    if (!gen) gen.emplace(stack.topo(), stack.catalog(), opt.seed);
    AppliedWatcher watcher(stack, 1);
    Tenant tenant(stack.port(), 100);
    const auto pass = [&](const std::function<bool()>& more) {
      return tenant.pass(
          [&]() -> std::optional<Demand> {
            if (!more()) return std::nullopt;
            return gen->next(next_id++);
          },
          spec, watcher);
    };
    // Warm-up: fill the steady-state live set before timing.
    long left = 2 * kWithdrawAfter;
    tally(pass([&] { return left-- > 0; }));
    watcher.take();

    for (int on = 0; on < passes; ++on) {
      const bool traced = on == 1;
      if (traced) capture.begin(stack.controller_tid());
      const double deadline =
          now_ms() + opt.seconds * 1e3 / (kBateSegments * passes);
      PassStats st = pass([&] { return now_ms() < deadline; });
      tally(st);
      check_phase(res, stack, watcher, {&tenant}, live_list(tenant.live()));
      const std::vector<Timed> done = watcher.take();
      if (opt.trace) {
        seconds[on] += st.elapsed_s();
        verdicts[on] += st.verdicts;
        if (traced) {
          capture.end(st.submitted);
          ev.verdicts += st.verdicts;
          ev.withdrawals += st.withdrawals;
          ev.submits += st.submitted;
        }
        continue;
      }
      const std::vector<WindowStats> r =
          window_stats(std::exchange(st.response, {}), kBateWindow);
      const std::vector<WindowStats> a = window_stats(done, kBateWindow);
      response.insert(response.end(), r.begin(), r.end());
      applied.insert(applied.end(), a.begin(), a.end());
      applied_n += done.size();
      all.merge(st);
    }
    delivered += delivered_fraction(stack, live_list(tenant.live()), {});
    if (s == 0) rss = peak_rss_mb();
    if (s + 1 < kBateSegments) continue;
    const long rows = static_cast<long>(tenant.live().size()) +
                      std::min(tenant.withdrawn_total(), kLedgerWithdrawnRows);
    const std::string err = crosscheck_ledger(stack.port(), rows);
    if (!err.empty()) res.violate("slo crosscheck: " + err);
  }

  if (!opt.trace) {
    res.metrics["events_per_s"] = window_rate(response, false);
    report_latency(res, "response", response,
                   static_cast<std::size_t>(all.verdicts));
    report_latency(res, "applied", applied, applied_n);
    res.metrics["admitted_frac"] = static_cast<double>(all.admitted) /
                                   static_cast<double>(all.verdicts);
    res.metrics["delivered_frac"] = delivered / kBateSegments;
    res.metrics["peak_rss_mb"] = rss;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "bate_b4: %ld verdicts, %ld withdrawals on %d stacks",
                  all.verdicts, all.withdrawals, kBateSegments);
    res.notes.emplace_back(buf);
  } else {
    res.metrics = layer_metrics(capture, ev);
    res.metrics["obs.trace_overhead_frac"] =
        (static_cast<double>(verdicts[0]) / seconds[0]) /
            (static_cast<double>(verdicts[1]) / seconds[1]) -
        1.0;
  }
  report_setup(res, setups, opt.trace);
  return res;
}

// ------------------------------------------------------------- failover_b4 --

constexpr int kStandingOffered = 300;
/// Link events replayed before the ledger crosscheck.
constexpr long kCheckEvents = 200;

/// B4 stack with a standing set admitted in one batch.
struct FailoverStack {
  std::unique_ptr<LiveStack> stack;
  std::vector<LiveDemand> live;
  SetupTimes setup;
};

FailoverStack failover_setup(RunResult& res, std::uint64_t seed) {
  const double t0 = now_ms();
  FailoverStack fs;
  fs.stack = std::make_unique<LiveStack>(b4, 4, ControllerConfig{});
  B4Demands gen(fs.stack->topo(), fs.stack->catalog(), seed);
  std::vector<Demand> demands;
  for (int i = 0; i < kStandingOffered; ++i) demands.push_back(gen.next(i + 1));
  UserClient user(fs.stack->port(), 100);
  const std::vector<UserClient::Reply> replies =
      user.submit_many(demands, demands.size());
  res.attempted += kStandingOffered;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].admitted()) {
      fs.live.push_back(live_of(demands[i]));
    } else if (replies[i].status != AdmissionStatus::kRejected) {
      ++res.failed;
    }
  }
  // Set-up ends once every broker enforces the standing set; a violation
  // shows in the check below, after the wait times out.
  user.stats();
  const double deadline = now_ms() + 20000.0;
  while (!check_enforced(*fs.stack, fs.live, {}).empty() &&
         now_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  fs.setup = fs.stack->setup();
  fs.setup.total_ms = now_ms() - t0;
  if (!fs.stack->wait_brokers_quiet()) res.violate("brokers never went quiet");
  const std::string err = check_enforced(*fs.stack, fs.live, {});
  if (!err.empty()) res.violate("standing set: " + err);
  return fs;
}

/// Seeded link-event log: single-link flaps and overlapping two-link
/// failures repaired in either order (partial repairs).
class LinkEvents {
 public:
  LinkEvents(std::uint64_t seed, int links) : rng_(seed ^ 0x5eedf00dULL),
                                              links_(links) {}
  std::pair<LinkId, bool> next() {
    if (queue_.empty()) refill();
    const auto e = queue_.front();
    queue_.pop_front();
    return e;
  }

 private:
  void refill() {
    const LinkId a = rng_.uniform_int(0, links_ - 1);
    LinkId b = rng_.uniform_int(0, links_ - 2);
    if (b >= a) ++b;
    switch (rng_.uniform_int(0, 2)) {
      case 0:
        queue_ = {{a, false}, {a, true}};
        break;
      case 1:
        queue_ = {{a, false}, {b, false}, {a, true}, {b, true}};
        break;
      default:
        queue_ = {{a, false}, {b, false}, {b, true}, {a, true}};
        break;
    }
  }
  Rng rng_;
  int links_;
  std::deque<std::pair<LinkId, bool>> queue_;
};

/// Link events per failover_b4 window.
constexpr std::size_t kFailoverWindow = 1000;

/// Times from a link report until its broadcast is applied.
struct FailoverPass {
  WindowRecorder response{kFailoverWindow};  // downs; the reporting broker
  WindowRecorder applied{kFailoverWindow};   // downs; every broker
  WindowRecorder events{kFailoverWindow};    // downs and ups; every broker
  double delivered_sum = 0.0;                // over down events
  long downs = 0;
};

FailoverPass failover_pass(RunResult& res, FailoverStack& fs,
                           LinkEvents& log, std::set<LinkId>& down,
                           double seconds, long max_events = -1) {
  FailoverPass p;
  LiveStack& stack = *fs.stack;
  int rows = 0;
  for (const LiveDemand& d : fs.live) rows += static_cast<int>(d.pairs.size());
  const double deadline = now_ms() + seconds * 1e3;
  while (now_ms() < deadline &&
         static_cast<long>(p.events.count()) != max_events) {
    const auto [link, up] = log.next();
    const int reporter =
        static_cast<int>(p.events.count() % LiveStack::kBrokers);
    std::vector<int> base;
    for (int b = 0; b < LiveStack::kBrokers; ++b) {
      base.push_back(stack.broker(b).updates_received());
    }
    ++res.attempted;
    const double t0 = now_ms();
    stack.broker(reporter).report_link(link, up);
    const int got = spin_updates_past(
        stack.broker(reporter),
        base[static_cast<std::size_t>(reporter)] + rows - 1, 10000);
    const double t1 = now_ms();
    bool ok = got >= base[static_cast<std::size_t>(reporter)] + rows;
    for (int b = 0; b < LiveStack::kBrokers && ok; ++b) {
      ok = spin_updates_past(stack.broker(b),
                             base[static_cast<std::size_t>(b)] + rows - 1,
                             10000) >= base[static_cast<std::size_t>(b)] + rows;
    }
    const double t2 = now_ms();
    if (!ok) {
      ++res.failed;  // a broadcast never reached every broker
      res.violate("link event broadcast not applied within 10 s");
      break;
    }
    p.events.add({t2, t2 - t0});
    if (up) {
      down.erase(link);
    } else {
      down.insert(link);
      p.response.add({t1, t1 - t0});
      p.applied.add({t2, t2 - t0});
      p.delivered_sum += delivered_fraction(stack, fs.live, down);
      ++p.downs;
    }
    const std::string err = check_enforced(stack, fs.live, down);
    if (!err.empty()) {
      res.violate(err);
      break;
    }
  }
  return p;
}

/// Standing sets, each on a fresh stack, the timed phase of failover_b4
/// visits in turn (with --trace 1, an untraced and then a traced segment on
/// each). A run's figures thus average over several standing sets and
/// several placements of the stack's threads on the machine's cores.
constexpr int kFailoverSegments = 10;

RunResult run_failover(const RunOptions& opt) {
  RunResult res;
  // Every set-up admits a standing set of its own, drawn from the next seed
  // of this sequence; admitted_frac averages over all of them.
  Rng setup_seeds(opt.seed);
  std::vector<SetupTimes> setups;
  std::size_t admitted = 0;
  const auto set_up = [&] {
    FailoverStack fs = failover_setup(res, setup_seeds.engine()());
    setups.push_back(fs.setup);
    admitted += fs.live.size();
    return fs;
  };
  const double setup_start = now_ms();
  while (more_setups(setups, setup_start)) set_up();
  LinkEvents log(opt.seed, b4().link_count());

  if (!opt.trace) {
    // Windows never span two segments.
    std::vector<WindowStats> response;
    std::vector<WindowStats> applied;
    std::vector<WindowStats> events;
    const auto append = [](std::vector<WindowStats>& to, WindowRecorder& from) {
      const std::vector<WindowStats> w = from.finish();
      to.insert(to.end(), w.begin(), w.end());
    };
    std::size_t event_count = 0;
    double delivered = 0.0;
    long downs = 0;
    double rss = 0.0;
    for (int s = 0; s < kFailoverSegments; ++s) {
      FailoverStack fs = set_up();
      std::set<LinkId> down;
      FailoverPass p = failover_pass(res, fs, log, down,
                                     opt.seconds / kFailoverSegments);
      append(response, p.response);
      append(applied, p.applied);
      append(events, p.events);
      event_count += p.events.count();
      delivered += p.delivered_sum;
      downs += p.downs;
      if (s == 0) rss = peak_rss_mb();
    }
    // Rate over the event loop's busy time: the benchmark's own checks
    // between events do not count.
    res.metrics["events_per_s"] = window_rate(events, true);
    const auto down_count = static_cast<std::size_t>(downs);
    report_latency(res, "response", response, down_count);
    report_latency(res, "applied", applied, down_count);
    res.metrics["admitted_frac"] =
        static_cast<double>(admitted) /
        static_cast<double>(kStandingOffered * setups.size());
    res.metrics["delivered_frac"] =
        downs > 0 ? delivered / static_cast<double>(downs) : 1.0;
    res.metrics["peak_rss_mb"] = rss;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "failover_b4: %zu of %zu standing demands admitted over %zu "
                  "set-ups; %zu link events on %d of them",
                  admitted, kStandingOffered * setups.size(), setups.size(),
                  event_count, kFailoverSegments);
    res.notes.emplace_back(buf);
  } else {
    TraceCapture capture;
    EventCounts ev;
    std::vector<double> applied_p50[2];  // untraced, traced
    for (int s = 0; s < kFailoverSegments; ++s) {
      FailoverStack fs = set_up();
      std::set<LinkId> down;
      for (int on = 0; on < 2; ++on) {
        if (on) capture.begin(fs.stack->controller_tid());
        FailoverPass p = failover_pass(res, fs, log, down,
                                       opt.seconds / (2 * kFailoverSegments));
        for (const WindowStats& w : p.applied.finish()) {
          applied_p50[on].push_back(w.p50);
        }
        if (!on) continue;
        // The controller refreshes the SLO ledger after its broadcast: a
        // stats round trip waits that out before the rings are read.
        UserClient(fs.stack->port()).stats();
        capture.end(0);
        ev.link_events += static_cast<long>(p.events.count());
      }
    }
    res.metrics = layer_metrics(capture, ev);
    res.metrics["obs.trace_overhead_frac"] =
        interquartile_mean(applied_p50[1]) /
            interquartile_mean(applied_p50[0]) -
        1.0;
  }
  // Ledger crosscheck on a fresh stack replaying the head of the same log:
  // the ledger keeps at most 64 transitions per demand, and a truncated log
  // cannot be replayed.
  FailoverStack check = failover_setup(res, opt.seed);
  LinkEvents check_log(opt.seed, check.stack->topo().link_count());
  std::set<LinkId> check_down;
  failover_pass(res, check, check_log, check_down, 60.0, kCheckEvents);
  const std::string err = crosscheck_ledger(
      check.stack->port(), static_cast<long>(check.live.size()));
  if (!err.empty()) res.violate("slo crosscheck: " + err);
  report_setup(res, setups, opt.trace);
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"churn_testbed6", "bate_b4",
                                                 "failover_b4"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  bate::obs::set_enabled(false);
  if (options.workload == "churn_testbed6") return run_churn(options);
  if (options.workload == "bate_b4") return run_bate(options);
  return run_failover(options);
}

}  // namespace perfbench
