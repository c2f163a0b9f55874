// Per-layer numbers for the traced run, read only from outside the program:
// obs::Registry::snapshot() deltas, the spans the program already records
// (obs::Tracer), and the controller thread's runnable time from procfs.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// One retained span, as parsed from Tracer::chrome_json().
struct SpanRecord {
  std::string name;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::int64_t ring = 0;  // TraceRing id, one per recording thread
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

/// Event counts of the traced timed phase (the per-event denominators).
struct EventCounts {
  long verdicts = 0;
  long withdrawals = 0;
  long link_events = 0;
  long submits = 0;  // client.submit spans the load generator opened
  long total() const { return verdicts + withdrawals + link_events; }
};

/// Accumulates registry deltas and spans over one or more traced windows.
/// Each window must start and end with the stack idle, so clearing and
/// reading the trace rings races no writer.
class TraceCapture {
 public:
  ~TraceCapture();

  /// Enables obs, clears the trace rings, snapshots the registry and starts
  /// sampling `controller_tid`'s runnable time.
  void begin(pid_t controller_tid);
  /// Snapshots the registry, copies the retained spans and disables obs.
  /// `submits` is the number of client.submit spans opened in the window.
  void end(long submits);

  std::int64_t counter(const std::string& name) const;
  /// Summed histogram delta: {count, sum, p50}.
  struct Hist {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    double p50 = 0.0;
    double mean() const {
      return count > 0 ? static_cast<double>(sum) / count : 0.0;
    }
  };
  Hist histogram(const std::string& name) const;

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Spans some window lost to ring wrap, counted for every span name whose
  /// true total the registry or the load generator knows exactly.
  std::int64_t dropped_spans() const { return dropped_; }
  /// 1 - (controller time covered by named spans) / (controller runnable
  /// time), over the part of each window the controller's ring retained.
  double unattributed_frac() const;

 private:
  void sample_loop();

  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, std::map<std::int64_t, std::int64_t>> buckets_;
  std::map<std::string, std::int64_t> hist_count_;
  std::map<std::string, std::int64_t> hist_sum_;
  bate::obs::MetricsSnapshot before_;
  std::vector<SpanRecord> spans_;
  std::int64_t dropped_ = 0;
  double named_us_ = 0.0;
  double runnable_us_ = 0.0;

  pid_t tid_ = -1;
  std::int64_t begin_us_ = 0;
  std::atomic<bool> sampling_{false};
  std::thread sampler_;
  /// (obs::now_us(), runnable ns) pairs of the controller thread.
  std::vector<std::pair<std::int64_t, std::int64_t>> samples_;
};

/// Every per-layer metric of one workload, keyed by the BENCHMARK.json name
/// (an event is a verdict, a withdrawal or a link event; 0 where the layer
/// did no work), and the end-to-end metric each should move:
///  net.frames/bytes_per_event        events_per_s on churn_testbed6
///  net.updates_per_event             applied_p90_ms on bate_b4,
///                                    applied_p50_ms on failover_b4
///  system.queue_wait_p50/p99_us      response_p90_ms on churn_testbed6
///  system.batch_size_mean            events_per_s on churn_testbed6
///  system.tick_self_us               events_per_s on churn_testbed6 (batch
///                                    span minus children: SLO refresh and
///                                    reply encode); flat on failover_b4
///  system.fanout_us, broker_apply_us applied_p50_ms on failover_b4, bate_b4
///  core.admission.*                  response_p50_ms, admitted_frac, bate_b4
///  core.scheduling.*                 events_per_s on bate_b4; 0 on churn
///  core.recovery.precompute_ms,      events_per_s on bate_b4
///    plans_per_precompute
///  core.recovery.plan_hit_frac       delivered_frac on failover_b4
///  solver.*                          events_per_s, response_p50_ms on
///                                    bate_b4; counts 0 on churn_testbed6 and
///                                    failover_b4
///  obs.slo_transitions_per_event     system.tick_self_us
///  obs.trace_overhead_frac           traced / untraced cost of the main
///                                    metric - 1 (1/events_per_s; applied
///                                    p50 on failover_b4)
///  setup.catalog_ms, controller_ctor_ms  setup_s
///  trace.unattributed_frac, dropped_spans  residual and ring-wrap loss
std::map<std::string, double> layer_metrics(const TraceCapture& cap,
                                            const EventCounts& events);

}  // namespace perfbench
