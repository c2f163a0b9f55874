// Live-loop benchmark of the BATE control plane (paper Sec 3-4): one
// Controller, two Brokers and UserClient tenants in one process, over
// loopback TCP. Every number is read from outside the program — client-side
// timestamps, the Broker/Controller/UserClient public APIs, registry
// snapshots and the spans the program already records.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// prints human-readable lines and, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics with obs off; --trace 1 reports the per-layer metrics
// from traced passes (obs on), each following an untraced pass of equal
// length on the same kind of stack, which gives the tracing overhead.
//
// Workloads. Every input is generated here from --seed (same seed, same
// inputs); the program only receives the generated demands and link
// reports. Topologies and the B4 traffic matrix are fixed.
//
//  * churn_testbed6 — testbed6, 4 tunnels/pair, reschedule_after_batch and
//    precompute_backup off. Rounds of 100k tiny arrivals, each on a fresh
//    stack, from two pipelined tenant connections with one generator thread
//    each (closed loop, window 256, refilled at half). Seed: each arrival's
//    pair and class (0.01 Mbps; 90% best-effort, 10% beta=0.9). Loads net
//    framing, the admission queue, the batch drain, delta broadcast and the
//    per-batch SLO refresh; the admitted set grows to 100k, exposing costs
//    that scale with it. Bypasses the scheduling LP and backup precompute.
//  * bate_b4 — B4, y=2, default ControllerConfig: a scheduling round and
//    backup precompute after every batch and every withdrawal. Seed: each
//    arrival's pair (by traffic-matrix volume; rate = entry / 40) and its
//    Table-1 class, best-effort included, so capacity and availability bind.
//    Steady state: each admitted demand is withdrawn 64 arrivals after its
//    own. The timed phase runs on five fresh stacks in turn, each after a
//    128-arrival warm-up, continuing one demand stream. One connection,
//    closed loop, window 16. Loads core (admission, scheduling, recovery)
//    and solver; net and obs stay small.
//  * failover_b4 — B4, default ControllerConfig. Every set-up admits a
//    standing set of 300 demands (drawn as in bate_b4) in one batch; the
//    timed phase visits ten such stacks in turn and replays on them one
//    link-event log — single-link flaps and overlapping two-link failures
//    repaired in either order — each event waiting until every broker
//    applied the previous broadcast (polled every 20 us). Seed: the
//    standing sets and the links of the log. Loads the plan lookup,
//    full-table broadcast, broker apply and SLO refresh on link events;
//    bypasses admission and every LP.
//
// End-to-end metrics (--trace 0), each reported by every workload. Rates
// and percentiles are interquartile means over windows of consecutive
// completions (10k verdicts on churn; 200 on bate_b4; 1000 link events on
// failover_b4; never spanning two stacks), so a burst of interference on a
// shared machine moves only the windows it hits. p90 is the tail reported:
// on a shared VM the p99 of every workload moves by more than the 25% bound
// from run to run, with the host's preemption rather than the program; it
// is printed beside p50 and p90, with the sample counts, in the
// human-readable lines.
//   setup_s          s      lower   interquartile mean over >= 15 set-ups
//                                   and >= 1 s of them: topology, catalog,
//                                   Controller ctor, stack start, brokers
//                                   connected (failover: + standing set
//                                   enforced at every broker)
//   events_per_s     1/s    higher  verdicts/s (admission workloads); link
//                                   events per second of report -> applied
//                                   time on failover
//   response_p50_ms  ms     lower   submit write -> verdict read; failover:
//   response_p90_ms  ms     lower   link-down report -> reporting broker
//                                   applied the broadcast
//   applied_p50_ms   ms     lower   submit -> admitted row enforced at every
//   applied_p90_ms   ms     lower   broker (churn: one demand in 8);
//                                   failover: link-down report -> broadcast
//                                   applied at every broker
//   admitted_frac    fraction higher  admitted / verdicts (failover: over
//                                   every set-up's standing set)
//   delivered_frac   fraction higher  share of requested bandwidth of live
//                                   beta>0 demands brokers deliver over
//                                   tunnels avoiding down links (failover:
//                                   after each down event, averaged)
//   peak_rss_mb      MiB    lower   VmHWM of this process once the first
//                                   timed stack (churn round, bate_b4 or
//                                   failover_b4 segment) is done: later
//                                   stacks repeat its work, and a transient
//                                   peak in any of them would make the
//                                   figure grow with the stacks a run holds
// Failures (shed, missing or duplicate verdicts, timeouts, connection
// errors) are the JSON's "failed" out of "attempted"; rejections are
// verdicts, not failures.
//
// Per-layer metrics (--trace 1): layers.cpp, units and directions in
// BENCHMARK.json.
//
// Correctness, checked on every run (a violation sets "correct": false):
// one verdict per submit; every admitted row enforced, identically, at
// every broker at the end of each phase; per-link enforced load within
// capacity under the current down set; no rejected demand enforced; and
// bench_system's SLO-ledger replay crosscheck, on an untimed phase whose
// ledger the controller can still send (the first 2000 churn arrivals; a
// fresh failover stack replaying the first 200 link events).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

struct MetricInfo {
  const char* name;
  const char* unit;
};

constexpr MetricInfo kMetrics[] = {
    {"setup_s", "s"},
    {"events_per_s", "1/s"},
    {"response_p50_ms", "ms"},
    {"response_p90_ms", "ms"},
    {"applied_p50_ms", "ms"},
    {"applied_p90_ms", "ms"},
    {"admitted_frac", "fraction"},
    {"delivered_frac", "fraction"},
    {"peak_rss_mb", "MiB"},
    {"net.frames_per_event", "count/event"},
    {"net.bytes_per_event", "B/event"},
    {"net.updates_per_event", "count/event"},
    {"system.queue_wait_p50_us", "us"},
    {"system.queue_wait_p99_us", "us"},
    {"system.batch_size_mean", "count"},
    {"system.tick_self_us", "us"},
    {"system.fanout_us", "us"},
    {"system.broker_apply_us", "us"},
    {"core.admission.decision_us", "us"},
    {"core.admission.conjecture_accept_frac", "fraction"},
    {"core.scheduling.round_ms_p50", "ms"},
    {"core.scheduling.round_ms_sum", "ms"},
    {"core.scheduling.rounds_per_event", "count/event"},
    {"core.scheduling.warm_hit_frac", "fraction"},
    {"core.recovery.precompute_ms", "ms"},
    {"core.recovery.plans_per_precompute", "count"},
    {"core.recovery.plan_hit_frac", "fraction"},
    {"solver.solves_per_event", "count/event"},
    {"solver.pivots_per_solve", "count"},
    {"solver.refactorizations_per_solve", "count"},
    {"solver.solve_us_per_event", "us/event"},
    {"solver.presolve_share", "fraction"},
    {"solver.bnb_nodes_per_round", "count"},
    {"obs.slo_transitions_per_event", "count/event"},
    {"obs.trace_overhead_frac", "fraction"},
    {"setup.catalog_ms", "ms"},
    {"setup.controller_ctor_ms", "ms"},
    {"trace.unattributed_frac", "fraction"},
    {"trace.dropped_spans", "count"},
};

const char* unit_of(const std::string& name) {
  for (const MetricInfo& m : kMetrics) {
    if (name == m.name) return m.unit;
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload churn_testbed6|bate_b4|"
               "failover_b4 --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int a = 1; a + 1 < argc; a += 2) {
    const char* key = argv[a];
    const char* val = argv[a + 1];
    if (std::strcmp(key, "--workload") == 0) {
      opt.workload = val;
      have_workload = true;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = std::atof(val);
    } else if (std::strcmp(key, "--trace") == 0) {
      opt.trace = std::atoi(val) != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || opt.seconds <= 0.0) return usage();
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == opt.workload;
  }
  if (!known) return usage();

  // A run that hangs must fail rather than outlive its time limit.
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(170));
    std::fprintf(stderr, "perfbench: run exceeded 170 s\n");
    std::_Exit(3);
  }).detach();

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : res.notes) std::printf("%s\n", line.c_str());
  std::string metrics;
  for (const auto& [name, value] : res.metrics) {
    const char* unit = unit_of(name);
    if (unit == nullptr || !std::isfinite(value)) {
      res.violate("metric " + name + " is unknown or not finite");
      continue;
    }
    std::printf("%-40s %.6g %s\n", name.c_str(), value, unit);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value, unit);
    metrics += buf;
  }
  if (!res.correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", res.error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": "
      "{%s}}\n",
      res.correct ? "true" : "false", std::max(1L, res.attempted), res.failed,
      metrics.c_str());
  return 0;
}
